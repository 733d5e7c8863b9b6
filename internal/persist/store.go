package persist

// ShardStore ties one shard's WAL and snapshots together behind the
// interface serve uses: OpenShard runs recovery and hands back the
// state to rebuild from (newest snapshot + log suffix); Append gates
// acks on durability; Snapshot makes a serialized root durable and
// truncates the log behind it.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Recovery is what OpenShard found on disk: rebuild state by loading
// Keys (the snapshot contents as of SnapshotSeq) and replaying Records
// in order. LastSeq is the version counter to resume from.
type Recovery struct {
	SnapshotSeq uint64
	Keys        []int
	Records     []Record
	LastSeq     uint64
	// Torn reports that the log ended in a torn record which was
	// truncated away — expected after a hard kill, never after a clean
	// stop.
	Torn bool
}

// ShardStore is one shard's durable state: a WAL plus its snapshots.
type ShardStore struct {
	dir     string
	wal     *WAL
	snapSeq atomic.Uint64
	snaps   atomic.Int64
}

// Stats is a point-in-time sample of a store's counters.
type Stats struct {
	BytesLogged int64
	Records     int64
	Syncs       int64
	Snapshots   int64
	SnapshotSeq uint64
	DurableSeq  uint64
}

// OpenShard opens (creating if needed) a shard directory and runs
// recovery: leftover .tmp files are removed, the newest valid snapshot
// is loaded, and the WAL is scanned from it. The returned Recovery has
// only the log suffix the snapshot does not cover. A seq gap between
// the snapshot and the log — lost data — is an error.
func OpenShard(dir string, opts Options) (*ShardStore, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, Recovery{}, err
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	snapSeq, keys, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, Recovery{}, err
	}
	w, recs, torn, err := openWAL(dir, snapSeq, opts)
	if err != nil {
		return nil, Recovery{}, err
	}
	// Keep only the suffix past the snapshot; the first kept record must
	// pick up exactly where the snapshot left off.
	suffix := recs[:0]
	for _, r := range recs {
		if r.Seq > snapSeq {
			suffix = append(suffix, r)
		}
	}
	if len(suffix) > 0 && suffix[0].Seq != snapSeq+1 {
		w.f.Close()
		return nil, Recovery{}, fmt.Errorf("persist: %s: snapshot covers seq %d but log resumes at %d", dir, snapSeq, suffix[0].Seq)
	}
	lastSeq := snapSeq
	if n := len(suffix); n > 0 {
		lastSeq = suffix[n-1].Seq
	}
	if w.lastSeq < lastSeq {
		w.lastSeq = lastSeq
	}

	st := &ShardStore{dir: dir, wal: w}
	st.snapSeq.Store(snapSeq)
	w.start()
	return st, Recovery{SnapshotSeq: snapSeq, Keys: keys, Records: suffix, LastSeq: lastSeq, Torn: torn}, nil
}

// Log appends one coalesced run to the WAL; onDurable fires (on the
// flusher goroutine) with nil once the record is durable under the
// fsync policy, or with the WAL's sticky error once it cannot be. After
// an I/O error Log returns that error and logs nothing.
func (s *ShardStore) Log(r Record, onDurable func(error)) error {
	return s.wal.Append(r, onDurable)
}

// Append is Log with a callback that fires only on success.
//
// Deprecated: a failed flush never fires onDurable, so the caller
// cannot tell it from a slow one; use Log. Kept only because the
// benchmark harness names it.
func (s *ShardStore) Append(r Record, onDurable func()) error {
	if onDurable == nil {
		return s.wal.Append(r, nil)
	}
	return s.wal.Append(r, func(err error) {
		if err == nil {
			onDurable()
		}
	})
}

// Sync is a durability barrier over the WAL regardless of policy.
func (s *ShardStore) Sync() error { return s.wal.Sync() }

// Snapshot durably writes the full key set as of seq, then truncates
// the WAL behind it: older snapshots are pruned and log segments whose
// records are all covered are deleted.
func (s *ShardStore) Snapshot(seq uint64, keys []int) error {
	if err := writeSnapshot(s.dir, seq, keys); err != nil {
		return err
	}
	s.snapSeq.Store(seq)
	s.snaps.Add(1)
	pruneSnapshots(s.dir, seq)
	return s.wal.Rotate(seq)
}

// SnapshotSeq is the seq of the newest durable snapshot.
func (s *ShardStore) SnapshotSeq() uint64 { return s.snapSeq.Load() }

// Err surfaces the first background I/O error, if any.
func (s *ShardStore) Err() error { return s.wal.Err() }

// Close flushes and fsyncs the WAL and stops the flusher. After a
// clean Close the next OpenShard replays only what snapshots missed,
// and nothing was lost.
func (s *ShardStore) Close() error { return s.wal.Close() }

// Stats samples the store's counters.
func (s *ShardStore) Stats() Stats {
	return Stats{
		BytesLogged: s.wal.bytes.Load(),
		Records:     s.wal.records.Load(),
		Syncs:       s.wal.syncs.Load(),
		Snapshots:   s.snaps.Load(),
		SnapshotSeq: s.snapSeq.Load(),
		DurableSeq:  s.wal.acked.Load(),
	}
}
