package persist

// The per-shard write-ahead log: an append-only chain of record
// segments with one flusher goroutine providing group commit. Appliers
// call Append, which only buffers the encoded record and registers the
// durability callback — the applier never blocks on I/O, mirroring how
// it never blocks on trees. The flusher retires the pending buffer with
// one write (plus one fsync, per policy) and fires every callback the
// write covered; callbacks are what gate request acks in serve.
//
// A failed write or fsync is sticky. After one, the state of the file
// is unknown, so the WAL never retries the fsync and never treats the
// data as durable: the failed flush and every later one fire their
// callbacks with the error, acked stops advancing, and Append refuses
// new records.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// segment is one append-only log file. Its name encodes the lowest seq
// it may hold, so rotation can decide "every record in segment i is
// ≤ N" from segment i+1's name without reading either file.
type segment struct {
	path  string
	first uint64
}

func segName(first uint64) string { return fmt.Sprintf("wal-%020d.log", first) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	var first uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), "%d", &first); err != nil {
		return 0, false
	}
	return first, true
}

// WAL is one shard's log. Created by OpenShard (store.go), which runs
// recovery first; all methods are safe for concurrent use.
type WAL struct {
	dir      string
	policy   FsyncPolicy
	interval time.Duration

	// mu guards the pending buffer, waiters, segment list, and seq
	// bookkeeping; ioMu serializes actual file writes and fsyncs so the
	// flusher, explicit Sync barriers, and rotation never interleave
	// writes. Lock order: ioMu before mu.
	mu      sync.Mutex
	ioMu    sync.Mutex
	f       *os.File
	segs    []segment
	pending []byte
	waiters []func(error)
	lastSeq uint64
	closed  bool
	firstE  error

	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	bytes   atomic.Int64
	records atomic.Int64
	syncs   atomic.Int64
	acked   atomic.Uint64 // highest seq whose durability callbacks fired
}

// start spawns the flusher; called once by OpenShard after recovery.
func (w *WAL) start() {
	w.kick = make(chan struct{}, 1)
	w.quit = make(chan struct{})
	w.done = make(chan struct{})
	go w.flusher()
}

// Append buffers one record and registers onDurable (may be nil) to
// fire once the record is durable under the policy, with nil, or once
// the WAL has failed to make it durable, with the sticky error. Records
// must carry dense seqs: exactly lastSeq+1. Append itself never performs
// I/O; after an I/O error it returns that error and buffers nothing.
func (w *WAL) Append(r Record, onDurable func(error)) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("persist: append to closed WAL in %s", w.dir)
	}
	if err := w.firstE; err != nil {
		w.mu.Unlock()
		return err
	}
	if r.Seq != w.lastSeq+1 {
		w.mu.Unlock()
		return fmt.Errorf("persist: non-dense append: seq %d after %d", r.Seq, w.lastSeq)
	}
	w.lastSeq = r.Seq
	w.pending = AppendRecord(w.pending, r)
	if onDurable != nil {
		w.waiters = append(w.waiters, onDurable)
	}
	w.records.Add(1)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return nil
}

func (w *WAL) flusher() {
	defer close(w.done)
	for {
		select {
		case <-w.kick:
		case <-w.quit:
			w.flush(w.policy != FsyncNever, false)
			return
		}
		if w.policy == FsyncBatch {
			// Group-commit window: let concurrent appliers pile on so one
			// fsync retires the whole batch.
			t := time.NewTimer(w.interval)
			select {
			case <-t.C:
			case <-w.quit:
				t.Stop()
				w.flush(true, false)
				return
			}
		}
		w.flush(w.policy != FsyncNever, false)
	}
}

// flush retires the pending buffer: one write, one optional fsync, then
// every covered durability callback. barrier forces the fsync even with
// nothing pending (the Sync contract: all prior writes on stable
// storage when it returns). Once an I/O error is sticky, flush does no
// I/O and fails every callback with it.
func (w *WAL) flush(sync, barrier bool) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	buf, ws, seq, f, err := w.pending, w.waiters, w.lastSeq, w.f, w.firstE
	w.pending, w.waiters = nil, nil
	w.mu.Unlock()
	if err == nil && len(buf) > 0 {
		if _, werr := writeFile(f, buf); werr != nil {
			err = w.setErr(werr)
		}
		w.bytes.Add(int64(len(buf)))
	}
	if err == nil && sync && (len(buf) > 0 || barrier) {
		if serr := syncFile(f); serr != nil {
			err = w.setErr(serr)
		}
		w.syncs.Add(1)
	}
	if err == nil {
		// Monotone under ioMu: concurrent flushes are serialized and seq
		// snapshots are nondecreasing.
		w.acked.Store(seq)
	}
	for _, fn := range ws {
		fn(err)
	}
}

// The WAL's write/sync seam: every segment write and fsync on the append
// path goes through these, so tests can inject device errors.
var (
	writeFile = (*os.File).Write
	syncFile  = (*os.File).Sync
)

// Sync is a durability barrier: when it returns, every record appended
// before the call is written and fsynced regardless of policy (the
// drain path: a clean stop never replays).
func (w *WAL) Sync() error {
	w.flush(true, true)
	return w.Err()
}

// Rotate makes the log reflect a durable snapshot covering every seq
// ≤ covered: pending records are flushed and fsynced into the current
// segment, a fresh segment takes over appends, and every older segment
// whose records are all ≤ covered is deleted. Records above covered
// are never touched — a segment that mixes covered and uncovered
// records survives until a later snapshot covers it entirely.
func (w *WAL) Rotate(covered uint64) error {
	if err := w.Sync(); err != nil {
		return err
	}
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("persist: rotate of closed WAL in %s", w.dir)
	}
	cur := w.segs[len(w.segs)-1]
	if first := w.lastSeq + 1; first > cur.first {
		// Current segment has records; retire it and append elsewhere.
		path := filepath.Join(w.dir, segName(first))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		w.f.Close()
		w.f = f
		w.segs = append(w.segs, segment{path: path, first: first})
	}
	// Firsts ascend, so deletable segments form a prefix.
	keep := w.segs[:0]
	for i, sg := range w.segs {
		if i+1 < len(w.segs) && w.segs[i+1].first <= covered+1 {
			if err := os.Remove(sg.path); err != nil {
				w.setErr(err)
				keep = append(keep, sg)
			}
			continue
		}
		keep = append(keep, sg)
	}
	w.segs = keep
	return fsyncDir(w.dir)
}

// Close flushes, fsyncs, stops the flusher, and closes the segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.Err()
	}
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	w.flush(true, true) // final barrier: a clean stop leaves nothing to replay
	w.mu.Lock()
	w.closed = true
	err := w.f.Close()
	w.mu.Unlock()
	if err != nil {
		w.setErr(err)
	}
	return w.Err()
}

// setErr records err unless an earlier error is already sticky, and
// returns the sticky error.
func (w *WAL) setErr(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.firstE == nil {
		w.firstE = fmt.Errorf("persist: wal %s: %w", w.dir, err)
	}
	return w.firstE
}

// Err returns the first I/O error the WAL hit, if any. From then on
// durability callbacks fire with it and Append refuses new records.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstE
}

// AckedSeq is the highest seq whose durability callbacks have fired.
func (w *WAL) AckedSeq() uint64 { return w.acked.Load() }

// openWAL scans dir's segments in name order, decodes and verifies
// every record (dense seqs across segment boundaries), truncates a
// torn tail, and opens the last segment for append. baseSeq seeds the
// append cursor when the log is empty (the newest snapshot's seq).
func openWAL(dir string, baseSeq uint64, opts Options) (*WAL, []Record, bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, false, err
	}
	var segs []segment
	for _, e := range ents {
		if first, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	var recs []Record
	torn := false
	for i, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return nil, nil, false, err
		}
		part, off, derr := DecodeAll(data)
		for _, r := range part {
			if n := len(recs); n > 0 && r.Seq != recs[n-1].Seq+1 {
				return nil, nil, false, fmt.Errorf("persist: %s: wal gap: seq %d follows %d", sg.path, r.Seq, recs[n-1].Seq)
			}
			recs = append(recs, r)
		}
		if derr != nil {
			// A torn or corrupt tail ends the replayable log. Records in
			// later segments (if any) will fail the density check above —
			// a mid-chain loss is a gap, not a tail, and must error.
			torn = true
			if i == len(segs)-1 {
				// Truncate so new appends start at a clean record boundary.
				if err := os.Truncate(sg.path, int64(off)); err != nil {
					return nil, nil, false, err
				}
			}
		}
	}

	lastSeq := baseSeq
	if n := len(recs); n > 0 {
		lastSeq = recs[n-1].Seq
	}
	if len(segs) == 0 {
		path := filepath.Join(dir, segName(lastSeq+1))
		segs = append(segs, segment{path: path, first: lastSeq + 1})
	}
	cur := segs[len(segs)-1]
	f, err := os.OpenFile(cur.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, false, err
	}
	w := &WAL{dir: dir, policy: opts.Policy, interval: opts.interval(), f: f, segs: segs, lastSeq: lastSeq}
	return w, recs, torn, nil
}

// fsyncDir makes directory metadata (creates, renames, removes)
// durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
