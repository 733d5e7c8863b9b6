package persist

import (
	"os"
	"strings"
)

// FailUnder makes every WAL segment write under dir fail with writeErr
// and every fsync with syncErr (nil passes the call through) until
// restore runs. Call it before opening the stores it targets and
// restore after closing them: the seam is a pair of package variables
// the flushers read.
func FailUnder(dir string, writeErr, syncErr error) (restore func()) {
	origWrite, origSync := writeFile, syncFile
	under := func(f *os.File) bool { return strings.HasPrefix(f.Name(), dir) }
	writeFile = func(f *os.File, b []byte) (int, error) {
		if writeErr != nil && under(f) {
			return 0, writeErr
		}
		return origWrite(f, b)
	}
	syncFile = func(f *os.File) error {
		if syncErr != nil && under(f) {
			return syncErr
		}
		return origSync(f)
	}
	return func() { writeFile, syncFile = origWrite, origSync }
}
