package paralg

import (
	"testing"
	"testing/quick"

	"pipefut/internal/seqtreap"
	"pipefut/internal/workload"
)

// TestBuildTreapMatchesOracleProperty builds from unsorted keys with
// duplicates, which BuildTreap must drop like seqtreap.FromKeys does.
func TestBuildTreapMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, cfgPick uint8) bool {
			n := int(n8)*4 + 1 // up to ~1k, crossing the direct-build cutoff
			rng := workload.NewRNG(uint64(seed))
			keys := workload.DistinctKeys(rng, n, 4*n)
			keys = append(keys, keys[:n/3]...)
			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			got := cfg.BuildTreap(nil, keys)
			return seqtreap.Equal(RToSeqTreap(got), seqtreap.FromKeys(keys))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInsertDeleteKeys inserts into and deletes from a treap that is
// itself still under construction.
func TestInsertDeleteKeys(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		rng := workload.NewRNG(2)
		base := workload.DistinctKeys(rng, 1000, 100000)
		batch := workload.DistinctKeys(rng, 1000, 100000)
		tr := seqtreap.FromKeys(base)
		cfg := RConfig{R: r, SpawnDepth: 8}

		ins := cfg.InsertKeys(nil, cfg.BuildTreap(nil, base), batch)
		if !seqtreap.Equal(RToSeqTreap(ins), seqtreap.Union(tr, seqtreap.FromKeys(batch))) {
			t.Fatal("InsertKeys differs from oracle")
		}
		del := cfg.DeleteKeys(nil, cfg.BuildTreap(nil, base), batch)
		if !seqtreap.Equal(RToSeqTreap(del), seqtreap.Diff(tr, seqtreap.FromKeys(batch))) {
			t.Fatal("DeleteKeys differs from oracle")
		}
	})
}

func TestBuildTreapRootAvailableEarly(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		rng := workload.NewRNG(3)
		keys := workload.DistinctKeys(rng, 50000, 1<<20)
		tr := RConfig{R: r, SpawnDepth: 10}.BuildTreap(nil, keys)
		// The root (and any search path) must be readable without waiting
		// for full construction; just proving it terminates while valid.
		if tr.Read() == nil {
			t.Fatal("empty root")
		}
		found := 0
		for _, k := range keys[:100] {
			cur := tr
			for {
				c := cur.Read()
				if c == nil {
					break
				}
				if c.Key == k {
					found++
					break
				}
				if k < c.Key {
					cur = c.Left
				} else {
					cur = c.Right
				}
			}
		}
		if found != 100 {
			t.Fatalf("found %d of 100 keys during construction", found)
		}
		RWait(tr)
	})
}
