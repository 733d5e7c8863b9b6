package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"pipefut/internal/persist"
	"pipefut/internal/serve"
	"pipefut/internal/workload"
)

// The durable workload's prepared data dir: per shard, a snapshot at
// version 1 holding most of the shard's keys, then a WAL suffix of
// union records carrying the rest, so opening the server replays a
// real log suffix on top of a snapshot. Recovery resumes every shard at
// version 1+suffixRecords.
const (
	suffixRecords = 16
	suffixKeys    = 32
)

// prepareDataDir writes the durable workload's starting state under dir
// (dir/shard-<i>, the layout serve.Config.DataDir documents) and returns
// each shard's recovered keys and version.
func prepareDataDir(dir string, sp spec, seed uint64) ([][]int, []uint64, error) {
	rng := workload.NewRNG(seed ^ 0xd1b54a32d192ed03)
	all := workload.DistinctKeys(rng, sp.recovered, sp.universe)
	sorted := slices.Clone(all)
	sort.Ints(sorted)
	pivots := pivotsFor(sp.universe)
	initial := make([][]int, shards)
	base := make([]uint64, shards)
	for i := range shards {
		piece := pieceOf(pivots, sorted, i)
		initial[i] = piece
		mixed := slices.Clone(piece)
		rng.Shuffle(mixed)
		n := min(len(mixed), suffixRecords*suffixKeys)
		suffix, snapKeys := mixed[:n], sortedDistinct(mixed[n:])
		st, _, err := persist.OpenShard(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), persist.Options{Policy: persist.FsyncNever})
		if err != nil {
			return nil, nil, err
		}
		seq := uint64(1)
		err = st.Append(persist.Record{Seq: seq, Kind: persist.KindUnion, Keys: snapKeys}, nil)
		if err == nil {
			err = st.Snapshot(seq, snapKeys)
		}
		for j := 0; err == nil && j < n; j += suffixKeys {
			seq++
			err = st.Append(persist.Record{Seq: seq, Kind: persist.KindUnion, Keys: sortedDistinct(suffix[j:min(j+suffixKeys, n)])}, nil)
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, fmt.Errorf("prepare shard %d: %w", i, err)
		}
		base[i] = seq
	}
	return initial, base, nil
}

// reopenCheck opens a fresh server on a closed durable server's data
// dir and checks that recovery yields exactly want.
func reopenCheck(cfg serve.Config, want []int) error {
	s, err := serve.Open(cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	got, _, err := s.Keys()
	s.Close()
	if err != nil {
		return fmt.Errorf("reopen: keys: %w", err)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("reopen: recovered %d keys, acknowledged state has %d", len(got), len(want))
	}
	return nil
}

// copyDir copies a prepared data dir so each set-up recovers from the
// same bytes.
func copyDir(dst, src string) error {
	return os.CopyFS(dst, os.DirFS(src))
}
