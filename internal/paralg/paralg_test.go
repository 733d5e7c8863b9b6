package paralg

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/workload"
)

// The tests in this file feed each set operation operands that are
// still under construction (Mergesort or BuildTreap outputs), where the
// TestPort* properties use converter-built, fully written inputs.

func TestMergeMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.DisjointKeySets(rng, n, m)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			a, b := cfg.Mergesort(nil, ka), cfg.Mergesort(nil, kb)
			got := cfg.Merge(nil, a, b)
			want := seqtree.Merge(RToSeqTree(a), RToSeqTree(b))
			return seqtree.Equal(RToSeqTree(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

// setOpProperty checks one treap set operation against its sequential
// oracle on BuildTreap operands.
func setOpProperty(t *testing.T,
	op func(c RConfig, a, b NodeCell) NodeCell,
	oracle func(a, b *seqtreap.Node) *seqtreap.Node) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.OverlappingKeySets(rng, n, m, float64(cfgPick%4)/4)
			want := oracle(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb))

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			got := op(cfg, cfg.BuildTreap(nil, ka), cfg.BuildTreap(nil, kb))
			return seqtreap.Equal(RToSeqTreap(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnionMatchesOracleProperty(t *testing.T) {
	setOpProperty(t, func(c RConfig, a, b NodeCell) NodeCell { return c.Union(nil, a, b) }, seqtreap.Union)
}

func TestDiffMatchesOracleProperty(t *testing.T) {
	setOpProperty(t, func(c RConfig, a, b NodeCell) NodeCell { return c.Diff(nil, a, b) }, seqtreap.Diff)
}

func TestJoinMatchesOracle(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		rng := workload.NewRNG(3)
		keys := workload.SortedDistinct(rng, 200, 2000)
		want := seqtreap.Join(seqtreap.FromKeys(keys[:120]), seqtreap.FromKeys(keys[120:]))
		cfg := RConfig{R: r, SpawnDepth: DefaultSpawnDepth}
		got := cfg.Join(nil, cfg.BuildTreap(nil, keys[:120]), cfg.BuildTreap(nil, keys[120:]))
		if !seqtreap.Equal(RToSeqTreap(got), want) {
			t.Fatal("join differs from oracle")
		}
	})
}

func TestMergesortSorts(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8 uint8, cfgPick uint8) bool {
			n := int(n8 % 200)
			rng := workload.NewRNG(uint64(seed))
			xs := rng.Perm(n)
			xs = append(xs, xs[:n/3]...) // duplicates stay
			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			got := seqtree.Keys(RToSeqTree(cfg.Mergesort(nil, xs)))
			return slices.Equal(got, slices.Sorted(slices.Values(xs)))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEmptyCases(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		cfg := RConfig{R: r, SpawnDepth: DefaultSpawnDepth}
		e := func() NodeCell { return DoneCell[*RNode](r, nil) }
		for name, got := range map[string]NodeCell{
			"merge":     cfg.Merge(nil, e(), e()),
			"union":     cfg.Union(nil, e(), e()),
			"diff":      cfg.Diff(nil, e(), e()),
			"intersect": cfg.Intersect(nil, e(), e()),
			"join":      cfg.Join(nil, e(), e()),
			"mergesort": cfg.Mergesort(nil, nil),
			"build":     cfg.BuildTreap(nil, nil),
		} {
			if got.Read() != nil {
				t.Errorf("%s of empties not empty", name)
			}
		}
		RWait(e()) // must not hang
	})
}

// TestPipelineOverlap verifies real pipelining: a union consuming the
// output of another union completes without waiting for the first to be
// fully materialized (we can only check it completes and is correct — the
// overlap itself is what makes this terminate quickly).
func TestPipelineOverlap(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		rng := workload.NewRNG(4)
		ka := workload.DistinctKeys(rng, 2000, 100000)
		kb := workload.DistinctKeys(rng, 2000, 100000)
		kc := workload.DistinctKeys(rng, 2000, 100000)
		ta, tb, tc := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb), seqtreap.FromKeys(kc)

		cfg := RConfig{R: r, SpawnDepth: 10}
		// (A ∪ B) ∪ C where the second union starts immediately on the
		// still-materializing first result.
		u1 := cfg.Union(nil, RFromSeqTreap(r, ta), RFromSeqTreap(r, tb))
		u2 := cfg.Union(nil, u1, RFromSeqTreap(r, tc))
		want := seqtreap.Union(seqtreap.Union(ta, tb), tc)
		if !seqtreap.Equal(RToSeqTreap(u2), want) {
			t.Fatal("chained unions differ from oracle")
		}
	})
}

func TestWaitBlocksUntilComplete(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		rng := workload.NewRNG(5)
		ka, kb := workload.DisjointKeySets(rng, 3000, 3000)
		sort.Ints(ka)
		sort.Ints(kb)
		cfg := RConfig{R: r, SpawnDepth: DefaultSpawnDepth}
		got := cfg.Merge(nil,
			RFromSeqTree(r, seqtree.FromSortedBalanced(ka)),
			RFromSeqTree(r, seqtree.FromSortedBalanced(kb)))
		RWait(got)
		// After RWait, every cell must be ready without blocking.
		var walk func(tr NodeCell) int
		walk = func(tr NodeCell) int {
			n, ok := tr.TryRead()
			if !ok {
				t.Fatal("cell not ready after RWait")
			}
			if n == nil {
				return 0
			}
			return 1 + walk(n.Left) + walk(n.Right)
		}
		if walk(got) != 6000 {
			t.Fatal("wrong size")
		}
	})
}
