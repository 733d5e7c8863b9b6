package paralg

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pipefut/internal/seqtree"
	"pipefut/internal/workload"
)

func TestAnnotateSizes(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		rng := workload.NewRNG(1)
		keys := workload.SortedDistinct(rng, 500, 5000)
		tr := seqtree.FromSortedBalanced(keys)
		ann := RConfig{R: r, SpawnDepth: DefaultSpawnDepth}.Annotate(nil, RFromSeqTree(r, tr))
		var check func(a Cell[*RSNode], want *seqtree.Node) bool
		check = func(a Cell[*RSNode], want *seqtree.Node) bool {
			n := a.Read()
			if n == nil || want == nil {
				return (n == nil) == (want == nil)
			}
			if n.Key != want.Key || n.Size != seqtree.Size(want) || n.LSize != seqtree.Size(want.Left) {
				return false
			}
			return check(n.Left, want.Left) && check(n.Right, want.Right)
		}
		if !check(ann, tr) {
			t.Fatal("annotation wrong")
		}
	})
}

func TestMergeBalancedProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.DisjointKeySets(rng, n, m)
			sort.Ints(ka)
			sort.Ints(kb)
			t1 := seqtree.FromSortedBalanced(ka)
			t2 := seqtree.FromSortedBalanced(kb)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			out := RToSeqTree(cfg.MergeBalanced(nil, RFromSeqTree(r, t1), RFromSeqTree(r, t2), n+m))

			want := slices.Sorted(slices.Values(append(append([]int{}, ka...), kb...)))
			if !slices.Equal(seqtree.Keys(out), want) {
				return false
			}
			maxH := 0
			for 1<<(maxH+1) < n+m+1 {
				maxH++
			}
			return seqtree.Height(out) <= maxH+1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRebalanceEmpty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		cfg := RConfig{R: r, SpawnDepth: DefaultSpawnDepth}
		out := cfg.Rebalance(nil, cfg.Annotate(nil, RFromSeqTree(r, nil)), 0)
		if out.Read() != nil {
			t.Fatal("empty rebalance must be empty")
		}
	})
}

func TestRebalanceLarge(t *testing.T) {
	// A large skewed input, fully parallel path.
	rng := workload.NewRNG(2)
	keys := workload.SortedDistinct(rng, 20000, 200000)
	var tr *seqtree.Node
	for _, k := range keys {
		tr = seqtree.Merge(tr, &seqtree.Node{Key: k})
	}
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		cfg := RConfig{R: r, SpawnDepth: 12}
		out := RToSeqTree(cfg.Rebalance(nil, cfg.Annotate(nil, RFromSeqTree(r, tr)), len(keys)))
		if h := seqtree.Height(out); h > 16 {
			t.Fatalf("height %d, want ≤ 16 for 20000 keys", h)
		}
		if !slices.Equal(seqtree.Keys(out), keys) {
			t.Fatal("keys differ")
		}
	})
}
