package paralg

import (
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pipefut/internal/workload"
)

func TestListRoundTrip(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		xs := []int{4, 2, 7}
		if got := RToSlice(RFromSlice(r, xs)); !slices.Equal(got, xs) {
			t.Fatalf("roundtrip = %v", got)
		}
		if RToSlice(RFromSlice(r, nil)) != nil {
			t.Fatal("empty wrong")
		}
	})
}

func TestProduceConsume(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		for _, d := range portSpawnDepths {
			cfg := RConfig{R: r, SpawnDepth: d}
			for _, chunk := range []int{0, 1, 7, 1000} {
				if got := cfg.Consume(nil, cfg.Produce(nil, 1000, chunk)).Read(); got != 500500 {
					t.Fatalf("depth %d chunk %d: sum = %d", d, chunk, got)
				}
			}
			if got := RToSlice(cfg.Produce(nil, 3, 2)); !slices.Equal(got, []int{3, 2, 1, 0}) {
				t.Fatalf("depth %d: produced %v", d, got)
			}
			if cfg.Consume(nil, cfg.Produce(nil, -1, 4)).Read() != 0 {
				t.Fatal("empty production must sum to 0")
			}
		}
	})
}

func TestQuicksortSortsProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		f := func(seed uint16, n8, cfgPick uint8) bool {
			n := int(n8 % 200)
			rng := workload.NewRNG(uint64(seed))
			xs := rng.Perm(n)
			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			got := RToSlice(cfg.Quicksort(nil, RFromSlice(r, xs), RFromSlice(r, []int{n})))
			want := append(slices.Sorted(slices.Values(xs)), n)
			return slices.Equal(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestQuicksortConsumesStreamingInput(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		// Sort a list that is still being produced: the pipeline composes.
		cfg := RConfig{R: r, SpawnDepth: 8}
		l := cfg.Produce(nil, 2000, 16) // 2000, 1999, ..., 0 (reverse sorted)
		got := RToSlice(cfg.Quicksort(nil, l, RFromSlice(r, nil)))
		if len(got) != 2001 {
			t.Fatalf("len = %d", len(got))
		}
		if !sort.IntsAreSorted(got) {
			t.Fatal("not sorted")
		}
	})
}

func TestQuicksortDuplicates(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		xs := []int{2, 2, 1, 2, 0}
		cfg := RConfig{R: r, SpawnDepth: DefaultSpawnDepth}
		got := RToSlice(cfg.Quicksort(nil, RFromSlice(r, xs), RFromSlice(r, nil)))
		if want := slices.Sorted(slices.Values(xs)); !slices.Equal(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	})
}

// TestLongStreamPipeline runs Produce→Quicksort→Consume over 10⁵
// elements under a 16 MB stack cap, so a walk that nested a stack frame
// per element of a materialized list would overflow. Produce's stream
// is descending, the worst case for Quicksort's head pivot (quadratic),
// so the long sort runs on a shuffled stream and the produced stream is
// sorted at a shorter length.
func TestLongStreamPipeline(t *testing.T) {
	const n = 100_000
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	withPortRuntimes(t, func(t *testing.T, r Runtime) {
		for _, d := range []int{0, 6} {
			cfg := RConfig{R: r, SpawnDepth: d}
			if got := cfg.Consume(nil, cfg.Produce(nil, n, 64)).Read(); got != n*(n+1)/2 {
				t.Fatalf("depth %d: Produce→Consume sum = %d", d, got)
			}
			xs := workload.NewRNG(17).Perm(n)
			sorted := cfg.Quicksort(nil, RFromSlice(r, xs), RFromSlice(r, nil))
			if got := cfg.Consume(nil, sorted).Read(); got != n*(n-1)/2 {
				t.Fatalf("depth %d: Quicksort→Consume sum = %d", d, got)
			}
			if got := RToSlice(sorted); len(got) != n || !sort.IntsAreSorted(got) {
				t.Fatalf("depth %d: Quicksort of %d keys not sorted", d, n)
			}
			const m = 3000
			got := cfg.Consume(nil, cfg.Quicksort(nil, cfg.Produce(nil, m, 16), RFromSlice(r, nil))).Read()
			if got != m*(m+1)/2 {
				t.Fatalf("depth %d: Produce→Quicksort→Consume sum = %d", d, got)
			}
		}
	})
}
