package persist

import (
	"errors"
	"sync"
	"syscall"
	"testing"
)

// TestFailedFsyncIsNeverAcked injects EIO into the WAL's fsync, and in
// a second case into its write. The record the failed flush covered
// must get its durability callback with the error, never with success;
// the durable seq must not move; and the WAL must refuse every later
// record rather than retry and call the data durable.
func TestFailedFsyncIsNeverAcked(t *testing.T) {
	for _, c := range []struct {
		name              string
		policy            FsyncPolicy
		writeErr, syncErr error
	}{
		{"fsync/batch", FsyncBatch, nil, syscall.EIO},
		{"fsync/always", FsyncAlways, nil, syscall.EIO},
		{"write/never", FsyncNever, syscall.EIO, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := OpenShard(dir, Options{Policy: c.policy})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			if err := st.Log(Record{Seq: 1, Kind: KindUnion, Keys: []int{1}}, ackOK(t, &wg)); err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			restore := FailUnder(dir, c.writeErr, c.syncErr)
			defer restore()
			var got error
			wg.Add(1)
			if err := st.Log(Record{Seq: 2, Kind: KindUnion, Keys: []int{2}}, func(err error) {
				got = err
				wg.Done()
			}); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if !errors.Is(got, syscall.EIO) {
				t.Fatalf("durability callback got %v, want EIO", got)
			}
			if seq := st.Stats().DurableSeq; seq != 1 {
				t.Fatalf("durable seq %d after a failed fsync, want 1", seq)
			}
			err = st.Log(Record{Seq: 3, Kind: KindUnion, Keys: []int{3}}, func(error) {
				t.Error("callback registered by a refused append")
			})
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("append after a failed fsync: err = %v, want the sticky EIO", err)
			}
			if err := st.Sync(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Sync after a failed fsync: err = %v, want the sticky EIO", err)
			}
			if seq := st.Stats().DurableSeq; seq != 1 {
				t.Fatalf("durable seq %d after Sync, want 1", seq)
			}
			if err := st.Close(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Close: err = %v, want the sticky EIO", err)
			}
		})
	}
}
