package paralg

import (
	"strings"
	"testing"

	"pipefut/internal/seqtreap"
	"pipefut/internal/workload"
)

// TestGrainCutoffMatchesOracle sweeps GrainCutoff over both runtimes
// and checks every coarsened entry point against the sequential
// seqtreap oracle. Cutoff 1 keeps the fast paths almost always cold
// (only empty and singleton chunks qualify), so the mixed pipelined ×
// chunk paths — touches expanding chunks one level at a time — carry
// the work; cutoff 64 swallows whole operand trees sequentially.
func TestGrainCutoffMatchesOracle(t *testing.T) {
	rng := workload.NewRNG(23)
	all := workload.DistinctKeys(rng, 900, 1<<14)
	ka, kb := all[:500], all[300:] // 200 shared keys

	wantA := seqtreap.FromKeys(ka)
	wantB := seqtreap.FromKeys(kb)

	for _, cutoff := range []int{1, 8, 64} {
		for _, rt := range []string{"go", "sched"} {
			t.Run(rt, func(t *testing.T) {
				var r Runtime = GoRuntime{}
				if rt == "sched" {
					s := NewSchedRuntime(4)
					defer s.Close()
					r = s
				}
				cfg := RConfig{R: r, SpawnDepth: 4, GrainCutoff: cutoff}

				ta := cfg.BuildTreap(nil, ka)
				tb := cfg.BuildTreap(nil, kb)
				if !seqtreap.Equal(RToSeqTreap(ta), wantA) {
					t.Fatalf("cutoff=%d: BuildTreap disagrees with the oracle", cutoff)
				}

				check := func(name string, got NodeCell, want *seqtreap.Node) {
					t.Helper()
					if !seqtreap.Equal(RToSeqTreap(got), want) {
						t.Errorf("cutoff=%d: %s disagrees with the sequential oracle", cutoff, name)
					}
				}
				check("Union", cfg.Union(nil, ta, tb), seqtreap.Union(wantA, wantB))
				check("Diff", cfg.Diff(nil, ta, tb), seqtreap.Diff(wantA, wantB))
				check("Intersect", cfg.Intersect(nil, ta, tb), seqtreap.Intersect(wantA, wantB))
				check("InsertKeys", cfg.InsertKeys(nil, ta, kb), seqtreap.Union(wantA, wantB))
				check("DeleteKeys", cfg.DeleteKeys(nil, ta, kb[:100]),
					seqtreap.Diff(wantA, seqtreap.FromKeys(kb[:100])))

				// Split pieces of a treap are treaps over the same
				// priorities, so the piece shapes are FromKeys shapes.
				pivot := all[450]
				var lo, hi []int
				for _, k := range ka {
					if k < pivot {
						lo = append(lo, k)
					} else {
						hi = append(hi, k)
					}
				}
				lt, ge := cfg.Split(nil, ta, pivot)
				check("Split(<)", lt, seqtreap.FromKeys(lo))
				check("Split(>=)", ge, seqtreap.FromKeys(hi))

				pieces := cfg.SplitRanges(nil, ta, []int{all[200], all[450], all[700]})
				if len(pieces) != 4 {
					t.Fatalf("cutoff=%d: SplitRanges returned %d pieces, want 4", cutoff, len(pieces))
				}
				total := 0
				for _, p := range pieces {
					total += seqtreap.Size(RToSeqTreap(p))
				}
				if total != len(ka) {
					t.Errorf("cutoff=%d: SplitRanges pieces hold %d keys, want %d", cutoff, total, len(ka))
				}
			})
		}
	}
}

// TestGrainCutoffMergeAndJoin covers the two entry points whose output
// shape is algorithm-determined rather than priority-determined: the
// coarsened run must be node-for-node the shape the pipelined (cutoff
// 0) run builds, which is exactly the claim behind chunkMerge and
// chunkSplitGE mirroring mergeInto and rsplit.
func TestGrainCutoffMergeAndJoin(t *testing.T) {
	rng := workload.NewRNG(29)
	ka, kb := workload.DisjointKeySets(rng, 300, 250)

	base := RConfig{R: GoRuntime{}, SpawnDepth: 4}
	wantMerge := RToSeqTreap(base.Merge(nil,
		RFromSeqTreap(base.R, seqtreap.FromKeys(ka)), RFromSeqTreap(base.R, seqtreap.FromKeys(kb))))
	wantJoin := seqtreap.Join(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb))

	for _, cutoff := range []int{1, 8, 64} {
		s := NewSchedRuntime(4)
		cfg := RConfig{R: s, SpawnDepth: 4, GrainCutoff: cutoff}
		ta := cfg.BuildTreap(nil, ka)
		tb := cfg.BuildTreap(nil, kb)
		if got := RToSeqTreap(cfg.Merge(nil, ta, tb)); !seqtreap.Equal(got, wantMerge) {
			t.Errorf("cutoff=%d: Merge shape differs from the pipelined run", cutoff)
		}
		if got := RToSeqTreap(cfg.Join(nil, ta, tb)); !seqtreap.Equal(got, wantJoin) {
			t.Errorf("cutoff=%d: Join disagrees with the sequential oracle", cutoff)
		}
		s.Close()
	}
}

// TestGrainCutoffZeroCellsBelowCutoff is the headline counter claim: a
// below-cutoff build allocates NO scheduler cells at all, and a union
// of two below-cutoff chunks allocates exactly one — the frontier cell
// the entry point hands back.
func TestGrainCutoffZeroCellsBelowCutoff(t *testing.T) {
	s := NewSchedRuntime(2)
	defer s.Close()
	cfg := RConfig{R: s, SpawnDepth: 6, GrainCutoff: 64}
	rng := workload.NewRNG(31)
	all := workload.DistinctKeys(rng, 96, 1<<12)

	before := s.RT.Counters()
	ta := cfg.BuildTreap(nil, all[:48])
	tb := cfg.BuildTreap(nil, all[48:])
	d := s.RT.Counters().Sub(before)
	if n := d.CellsShared; n != 0 {
		t.Fatalf("below-cutoff builds allocated %d cells, want 0", n)
	}
	if _, ok := ta.(chunkNodeCell); !ok {
		t.Fatalf("below-cutoff BuildTreap returned %T, want a chunk cell", ta)
	}

	before = s.RT.Counters()
	out := cfg.Union(nil, ta, tb)
	RWait(out)
	d = s.RT.Counters().Sub(before)
	if n := d.CellsShared; n != 1 {
		t.Errorf("below-cutoff union allocated %d cells, want exactly the frontier cell", n)
	}
	if !seqtreap.Equal(RToSeqTreap(out), seqtreap.FromKeys(all)) {
		t.Error("below-cutoff union disagrees with the oracle")
	}
}

// TestChunkCellSemantics pins the chunk cell contract: born written,
// inline touches, memoized expansion, panic on write.
func TestChunkCellSemantics(t *testing.T) {
	if n := chunkCell(nil).Read(); n != nil {
		t.Errorf("empty chunk reads %v, want nil", n)
	}

	tr := seqtreap.FromKeys([]int{1, 2, 3})
	c := chunkCell(tr)
	var first, second *RNode
	c.Touch(nil, func(_ Ctx, n *RNode) { first = n })
	c.Touch(nil, func(_ Ctx, n *RNode) { second = n })
	if first == nil || first != second {
		t.Error("chunk expansion is not memoized: repeated touches saw different nodes")
	}
	if first.Key != tr.Key || first.Prio != tr.Prio {
		t.Error("expanded chunk root does not mirror the wrapped node")
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "born written") {
			t.Errorf("write of a chunk cell: recovered %v, want born-written panic", r)
		}
	}()
	c.Write(nil, nil)
}
