package persist_test

// This test lives with persist, not serve, because it reaches the WAL's
// fsync seam (export_test.go), which only persist's own tests can see.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"pipefut/internal/persist"
	"pipefut/internal/serve"
)

// TestServeFailsClosedOnWALError fails every fsync of shard 1's log.
// The mutation whose record the failed fsync covered, and every later
// mutation on shard 1, must get ErrUnavailable (503 over HTTP) instead
// of an ack; a refused mutation must not be applied. Shard 0 keeps
// taking writes, and reads keep working on both shards.
func TestServeFailsClosedOnWALError(t *testing.T) {
	for _, backend := range []string{"treap", "t26"} {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			restore := persist.FailUnder(filepath.Join(dir, "shard-1")+string(filepath.Separator), nil, syscall.EIO)
			defer restore()
			s, err := serve.Open(serve.Config{P: 2, Backend: backend, Shards: 2, Pivots: []int{500},
				DataDir: dir, Fsync: "always"})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			apply := func(keys ...int) error {
				_, err := s.Apply(serve.OpUnion, keys)
				return err
			}
			if err := apply(10); err != nil {
				t.Fatalf("write to the healthy shard: %v", err)
			}
			if err := apply(600); !errors.Is(err, serve.ErrUnavailable) || !errors.Is(err, syscall.EIO) {
				t.Fatalf("write whose fsync failed: err = %v, want ErrUnavailable wrapping EIO", err)
			}
			if err := apply(700); !errors.Is(err, serve.ErrUnavailable) {
				t.Fatalf("write after the failure: err = %v, want ErrUnavailable", err)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/op",
				strings.NewReader(`{"op":"union","keys":[800]}`)))
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("HTTP write after the failure: status %d, want 503", rec.Code)
			}
			if err := apply(20); err != nil {
				t.Fatalf("write to the healthy shard after the failure: %v", err)
			}

			for key, want := range map[int]bool{10: true, 20: true, 700: false, 800: false} {
				got, _, err := s.Contains(key)
				if err != nil || got != want {
					t.Errorf("Contains(%d) = %v, %v; want %v", key, got, err, want)
				}
			}
			keys, _, err := s.Keys()
			if err != nil {
				t.Fatal(err)
			}
			// 600 was applied before its fsync failed: unacknowledged,
			// but it may be visible.
			keys = slices.DeleteFunc(keys, func(k int) bool { return k == 600 })
			if !slices.Equal(keys, []int{10, 20}) {
				t.Errorf("Keys = %v, want [10 20] (plus possibly 600)", keys)
			}
		})
	}
}
