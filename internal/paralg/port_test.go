package paralg

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/t26"
	"pipefut/internal/workload"
)

// portSpawnDepths are the grains the property tests sweep: sequential,
// shallow, and spawn everywhere.
var portSpawnDepths = []int{0, 3, 64}

// withPortRuntimes runs f once per runtime implementation. The sched
// runtime gets a small fixed worker pool; Close drains it afterwards.
func withPortRuntimes(t *testing.T, f func(t *testing.T, r Runtime)) {
	t.Run("go", func(t *testing.T) { f(t, GoRuntime{}) })
	t.Run("sched", func(t *testing.T) {
		s := NewSchedRuntime(4)
		defer s.Close()
		f(t, s)
	})
}

func TestPortMergeMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.DisjointKeySets(rng, n, m)
			sort.Ints(ka)
			sort.Ints(kb)
			t1 := seqtree.FromSortedBalanced(ka)
			t2 := seqtree.FromSortedBalanced(kb)
			want := seqtree.Merge(t1, t2)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			got := cfg.Merge(nil, RFromSeqTree(r, t1), RFromSeqTree(r, t2))
			return seqtree.Equal(RToSeqTree(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortUnionMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.OverlappingKeySets(rng, n, m, float64(cfgPick%4)/4)
			ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			want := seqtreap.Union(ta, tb)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			got := cfg.Union(nil, RFromSeqTreap(r, ta), RFromSeqTreap(r, tb))
			return seqtreap.Equal(RToSeqTreap(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortT26BulkInsertMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%150)+1, int(m8%150)+1
			rng := workload.NewRNG(uint64(seed))
			all := workload.DistinctKeys(rng, n+m, 4*(n+m))
			base := t26.FromKeys(all[:n])
			ins := append([]int(nil), all[n:]...)
			sort.Ints(ins)
			levels := workload.WellSeparatedLevels(ins)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			got := RToSeqT26(cfg.T26BulkInsert(nil, RFromSeqT26(r, base), levels))
			if ok, _ := t26.Check(got); !ok {
				return false
			}
			want := append([]int{}, all...)
			sort.Ints(want)
			gotKeys := t26.Keys(got)
			if len(gotKeys) != len(want) {
				return false
			}
			for i := range want {
				if gotKeys[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPortSchedSuspensionsBalance checks the runtime's books after a
// pipelined union on the sched runtime: every suspended continuation
// must have been reactivated, and the pool must go quiescent.
func TestPortSchedSuspensionsBalance(t *testing.T) {
	s := NewSchedRuntime(4)
	defer s.Close()
	rng := workload.NewRNG(11)
	ka, kb := workload.OverlappingKeySets(rng, 3000, 3000, 0.25)
	ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
	want := seqtreap.Union(ta, tb)

	cfg := RConfig{R: s, SpawnDepth: 32}
	got := cfg.Union(nil, RFromSeqTreap(s, ta), RFromSeqTreap(s, tb))
	if !seqtreap.Equal(RToSeqTreap(got), want) {
		t.Fatal("union mismatch")
	}
	s.RT.Wait()
	ctr := s.RT.Counters()
	if ctr.Suspensions != ctr.Reactivations {
		t.Fatalf("suspensions=%d reactivations=%d", ctr.Suspensions, ctr.Reactivations)
	}
	if ctr.Spawns == 0 {
		t.Fatal("no tasks spawned at SpawnDepth=32")
	}
}

// TestDeprecatedDisciplineIsInert pins RConfig.Discipline as a no-op:
// the benchmark harness still replays the t26 backend with
// Discipline: LinearCells, so that config must compute the same trees
// and allocate the same scheduler cells as the zero value, on the
// treap composition (build, insert, delete) and the 2-6-tree bulk
// insert alike.
func TestDeprecatedDisciplineIsInert(t *testing.T) {
	rng := workload.NewRNG(11)
	ka, kb := workload.DisjointKeySets(rng, 400, 300)
	all := workload.DistinctKeys(rng, 500, 2000)
	base, ins := all[:200], append([]int(nil), all[200:]...)
	sort.Ints(ins)

	run := func(disc CellDiscipline) (treap *seqtreap.Node, tree *t26.Node, cells int64) {
		s := NewSchedRuntime(4)
		defer s.Close()
		cfg := RConfig{R: s, SpawnDepth: 6, Discipline: disc}
		tr := cfg.InsertKeys(nil, cfg.BuildTreap(nil, ka), kb)
		treap = RToSeqTreap(cfg.DeleteKeys(nil, tr, ka[:200]))
		tree = RToSeqT26(cfg.T26BulkInsert(nil, RFromSeqT26(s, t26.FromKeys(base)), workload.WellSeparatedLevels(ins)))
		return treap, tree, s.RT.Counters().CellsShared
	}
	treap0, tree0, cells0 := run(0)
	treapL, treeL, cellsL := run(LinearCells)

	want := seqtreap.Diff(seqtreap.Union(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)), seqtreap.FromKeys(ka[:200]))
	if !seqtreap.Equal(treap0, want) || !seqtreap.Equal(treapL, want) {
		t.Error("build/insert/delete composition disagrees with the sequential oracle")
	}
	wantKeys := append(append([]int(nil), base...), ins...)
	sort.Ints(wantKeys)
	if !slices.Equal(t26.Keys(tree0), wantKeys) || !slices.Equal(t26.Keys(treeL), wantKeys) {
		t.Error("t26 bulk insert disagrees with the sequential oracle")
	}
	if cells0 != cellsL {
		t.Errorf("Discipline changed the cell count: %d with the zero value, %d with LinearCells", cells0, cellsL)
	}
}
