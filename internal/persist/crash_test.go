package persist

// Crash-injection tests: simulate the on-disk states a hard kill can
// leave behind — a torn tail record, a missing or corrupt snapshot, a
// kill mid-snapshot-write — and check recovery either reconstructs a
// correct prefix or refuses loudly. The invariant throughout: recovery
// never fabricates or reorders an op, and only ever loses a suffix
// that was not yet durable.

import (
	"os"
	"path/filepath"
	"testing"
)

// fillStore appends seqs [from, to] with key=seq and closes cleanly.
func fillStore(t *testing.T, dir string, from, to uint64) {
	t.Helper()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := from; seq <= to; seq++ {
		if err := st.Log(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func TestCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 1, 10)
	files := walFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 segment, got %d", len(files))
	}
	// Chop bytes off the tail one at a time; every cut must recover a
	// clean prefix, flagged Torn except when the cut lands exactly on a
	// record boundary (then the shorter log is simply complete).
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	boundary := map[int]bool{}
	{
		full, _, _ := DecodeAll(data)
		var b []byte
		boundary[0] = true
		for _, r := range full {
			b = AppendRecord(b, r)
			boundary[len(b)] = true
		}
	}
	for cut := len(data) - 1; cut > len(data)-20; cut-- {
		if err := os.WriteFile(files[0], data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, rec, err := OpenShard(dir, Options{Policy: FsyncNever})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if rec.Torn == boundary[cut] {
			t.Fatalf("cut=%d: torn=%v, boundary=%v", cut, rec.Torn, boundary[cut])
		}
		if n := len(rec.Records); n == 0 || rec.Records[n-1].Seq != rec.LastSeq || rec.LastSeq >= 10 {
			t.Fatalf("cut=%d: bad prefix lastSeq=%d records=%d", cut, rec.LastSeq, n)
		}
		for i, r := range rec.Records {
			if r.Seq != uint64(i+1) {
				t.Fatalf("cut=%d: record %d has seq %d", cut, i, r.Seq)
			}
		}
		// Appending after torn-tail truncation must resume densely and
		// survive the next recovery.
		next := rec.LastSeq + 1
		if err := st.Log(Record{Seq: next, Kind: KindUnion, Keys: []int{int(next)}}, nil); err != nil {
			t.Fatalf("cut=%d: append after truncate: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, rec2, err := OpenShard(dir, Options{Policy: FsyncNever})
		if err != nil || rec2.Torn || rec2.LastSeq != next {
			t.Fatalf("cut=%d: reopen after repair: lastSeq=%d torn=%v err=%v", cut, rec2.LastSeq, rec2.Torn, err)
		}
		st2.Close()
		// Restore the full pre-crash image for the next cut.
		if err := os.WriteFile(files[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashDuringSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		if err := st.Log(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(3, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A kill mid-snapshot leaves a half-written .tmp; open must discard
	// it and recover from the older durable snapshot.
	tmp := filepath.Join(dir, snapName(6)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial snapshot bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.SnapshotSeq != 3 || len(rec.Records) != 3 || rec.Records[0].Seq != 4 || rec.LastSeq != 6 {
		t.Fatalf("recovery: %+v", rec)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf(".tmp not removed: %v", err)
	}
}

func TestCrashCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := st.Log(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Two snapshots, no pruning of the old one in between appends: write
	// the older via the low-level helper so both exist on disk.
	if err := writeSnapshot(dir, 2, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, 4, []int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot; recovery must fall back to seq 2 and
	// replay 3..4 from the (untruncated) log.
	newest := filepath.Join(dir, snapName(4))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.SnapshotSeq != 2 || len(rec.Records) != 2 || rec.Records[0].Seq != 3 || rec.LastSeq != 4 {
		t.Fatalf("fallback recovery: %+v", rec)
	}
}

func TestCrashMissingSnapshotWithRotatedLogErrors(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := st.Log(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(5, []int{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Log(Record{Seq: 6, Kind: KindUnion, Keys: []int{6}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove every snapshot: the rotated log starts at 6 with nothing
	// covering 1..5. That's unrecoverable loss and must be an error,
	// not a silent empty start.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, ok := parseSnapName(e.Name()); ok {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	if _, _, err := OpenShard(dir, Options{Policy: FsyncNever}); err == nil {
		t.Fatal("open accepted a rotated log with no snapshot")
	}
}

func TestCrashMidChainCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := st.Log(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate without covering anything so two segments exist.
	if err := st.wal.Rotate(0); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(5); seq <= 8; seq++ {
		if err := st.Log(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files := walFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("want 2 segments, got %d", len(files))
	}
	// Truncate the FIRST segment: its tail records vanish but the second
	// segment still starts at 5 — a mid-chain gap, which must error.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShard(dir, Options{Policy: FsyncNever}); err == nil {
		t.Fatal("open accepted a mid-chain gap")
	}
}
