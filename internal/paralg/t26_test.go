package paralg

import (
	"slices"
	"testing"
	"testing/quick"

	"pipefut/internal/seqtreap"
	"pipefut/internal/t26"
	"pipefut/internal/workload"
)

// TestT26BulkInsertMatchesOracleProperty chains two bulk inserts, so
// the second one descends a tree the first is still building.
func TestT26BulkInsertMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%150)+1, int(m8%150)+2
			rng := workload.NewRNG(uint64(seed))
			all := workload.DistinctKeys(rng, n+m, 4*(n+m))
			base := t26.FromKeys(all[:n])
			ins1 := slices.Sorted(slices.Values(all[n : n+m/2]))
			ins2 := slices.Sorted(slices.Values(all[n+m/2:]))

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			mid := cfg.T26BulkInsert(nil, RFromSeqT26(r, base), workload.WellSeparatedLevels(ins1))
			got := RToSeqT26(cfg.T26BulkInsert(nil, mid, workload.WellSeparatedLevels(ins2)))
			if ok, _ := t26.Check(got); !ok {
				return false
			}
			return slices.Equal(t26.Keys(got), slices.Sorted(slices.Values(all)))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestT26PipelinedWavesOverlapSafely(t *testing.T) {
	// Larger run with full spawning: many waves in flight at once.
	rng := workload.NewRNG(9)
	all := workload.DistinctKeys(rng, 20000, 1<<20)
	base := t26.FromKeys(all[:10000])
	ins := slices.Sorted(slices.Values(all[10000:]))
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		cfg := RConfig{R: r, SpawnDepth: 32}
		got := cfg.T26BulkInsert(nil, RFromSeqT26(r, base), workload.WellSeparatedLevels(ins))
		RWaitT26(got)
		res := RToSeqT26(got)
		if ok, why := t26.Check(res); !ok {
			t.Fatal(why)
		}
		if t26.Size(res) != 20000 {
			t.Fatalf("size = %d", t26.Size(res))
		}
	})
}

func TestT26InsertEmptyArray(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		base := t26.FromKeys([]int{1, 2, 3})
		got := RConfig{R: r, SpawnDepth: DefaultSpawnDepth}.T26Insert(nil, RFromSeqT26(r, base), nil)
		if t26.Size(RToSeqT26(got)) != 3 {
			t.Fatal("no-op insert changed the tree")
		}
	})
}

func TestIntersectMatchesOracleProperty(t *testing.T) {
	setOpProperty(t, func(c RConfig, a, b NodeCell) NodeCell { return c.Intersect(nil, a, b) }, seqtreap.Intersect)
}
