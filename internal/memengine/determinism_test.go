package memengine

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// TestDeterministicAcrossConfigs: integer-state programs must produce
// identical results whatever the parallelism or partitioning, because the
// synchronous scatter-gather model is order-insensitive for commutative
// gathers.
func TestDeterministicAcrossConfigs(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 31, Undirected: true})
	var want []wccState
	for i, cfg := range []Config{
		{Threads: 1, Partitions: 1},
		{Threads: 1, Partitions: 256, Fanout: 4},
		{Threads: 4, Partitions: 16},
		{Threads: 3, Partitions: 64, Fanout: 8},
		{Threads: 4, Partitions: 16, NoWorkStealing: true},
		{Threads: 2, PrivateBufBytes: 64}, // tiny private buffers: many flushes
	} {
		res, err := Run(src, &wccProg{}, cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if want == nil {
			want = res.Vertices
			continue
		}
		for v := range want {
			if res.Vertices[v].Label != want[v].Label {
				t.Fatalf("cfg %d: vertex %d: %d vs %d", i, v, res.Vertices[v].Label, want[v].Label)
			}
		}
	}
}

// TestTransposeIndependentOfThreads: the transpose is built by parallel
// workers, but every partition's chunk has a fixed place in it, so each
// partition of the transposed buffer streams the same edges in the same order
// whatever the worker count (the shuffle is stable within a slice and slices
// are consecutive).
func TestTransposeIndependentOfThreads(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 33})
	pp, err := Prepare(src, Config{Threads: 1, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	stream := func(threads, p int) (out []core.Edge) {
		reverseShuffled(pp.fwd, pp.plan, pp.part, threads).Bucket(p, func(run []core.Edge) { out = append(out, run...) })
		return out
	}
	total := 0
	for p := 0; p < pp.part.K; p++ {
		want := stream(1, p)
		total += len(want)
		for _, threads := range []int{2, 5} {
			if got := stream(threads, p); !slices.Equal(got, want) {
				t.Fatalf("partition %d: %d edges transposed on %d threads differ from the %d of one thread", p, len(got), threads, len(want))
			}
		}
		for _, ed := range want {
			if int(pp.part.Of(ed.Src)) != p {
				t.Fatalf("partition %d holds transposed edge %v", p, ed)
			}
		}
	}
	if int64(total) != pp.ne {
		t.Fatalf("transpose holds %d of %d edges", total, pp.ne)
	}
}

// TestConcurrentIndependentRuns: engine instances must not share state.
func TestConcurrentIndependentRuns(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 32, Undirected: true})
	ref, err := Run(src, &wccProg{}, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Run(src, &wccProg{}, Config{Threads: 2, Partitions: 8})
			if err != nil {
				errs[i] = err
				return
			}
			for v := range ref.Vertices {
				if res.Vertices[v].Label != ref.Vertices[v].Label {
					errs[i] = &mismatchError{v}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

type mismatchError struct{ v int }

func (e *mismatchError) Error() string { return "vertex mismatch" }

// TestHugePartitionCount: more partitions than vertices must still work
// (empty partitions are the common case in the tail).
func TestHugePartitionCount(t *testing.T) {
	edges := []core.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}}
	src := core.NewSliceSource(edges, 2)
	res, err := Run(src, &wccProg{}, Config{Threads: 2, Partitions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Vertices[0].Label != 0 || res.Vertices[1].Label != 0 {
		t.Fatalf("labels: %+v", res.Vertices)
	}
}
