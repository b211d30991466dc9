package memengine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/partition2ps"
)

// TestPageRankNeverTransposes: PageRank takes its out-degrees from
// pre-processing, so it never asks for the transposed edge list. It is no
// core.DirectedProgram, so the pass loop never resolves a Backward stream for
// it, whether it runs through Run, RunJob or a cached Prepare; Run and
// RunJob agree with a cached pass co-scheduled with BFS, after which the
// handle still holds no transpose. SCC, the backward program, still builds
// it.
func TestPageRankNeverTransposes(t *testing.T) {
	if _, ok := any(algorithms.NewPageRank(5)).(core.DirectedProgram); ok {
		t.Fatal("PageRank chooses a direction")
	}
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 9})
	for _, pr := range []core.Partitioner{core.RangePartitioner{}, partition2ps.New()} {
		t.Run(pr.Name(), func(t *testing.T) {
			cfg := Config{Threads: 2, Partitions: 4, Partitioner: pr}
			solo, err := Run(src, algorithms.NewPageRank(5), cfg)
			if err != nil {
				t.Fatal(err)
			}
			job, err := RunJob(context.Background(), src, core.NewJob(algorithms.NewPageRank(5)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := Prepare(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := pp.RunMany(context.Background(), core.ProgramSet{
				core.NewJob(algorithms.NewPageRank(5)), core.NewJob(algorithms.NewBFS(0)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if pp.bwd != nil || pp.tilesBwd != nil {
				t.Fatal("a PageRank pass built the transpose")
			}
			if !reflect.DeepEqual(solo.Vertices, job.Vertices) || !reflect.DeepEqual(solo.Vertices, res[0].Vertices) {
				t.Fatal("Run, RunJob and the cached pass disagree on PageRank's vertices")
			}
			if solo.Stats.Iterations != 5 {
				t.Fatalf("PageRank(5) ran %d iterations", solo.Stats.Iterations)
			}
			if _, _, err := pp.RunMany(context.Background(), core.ProgramSet{core.NewJob(algorithms.NewSCC())}); err != nil {
				t.Fatal(err)
			}
			if pp.bwd == nil {
				t.Fatal("SCC ran without the transpose")
			}
		})
	}
}

// TestDenseCombiningWindowHoldsEveryDestination: a run whose kernels combine
// in the dense accumulator keeps its update windows to one record per
// destination per partition, K·|V| when that is fewer than the edges. On a
// complete graph with self-loops every partition's task touches every
// destination, so an iteration appends exactly K·|V| records and fills the
// window; the ranks equal a run without combining, whose windows hold an
// update per edge.
func TestDenseCombiningWindowHoldsEveryDestination(t *testing.T) {
	const nv, k = 64, 4
	var edges []core.Edge
	for s := core.VertexID(0); s < nv; s++ {
		for d := core.VertexID(0); d < nv; d++ {
			edges = append(edges, core.Edge{Src: s, Dst: d})
		}
	}
	src := core.NewSliceSource(edges, nv)
	for _, threads := range []int{1, 2} {
		cfg := Config{Threads: threads, Partitions: k}
		combined, err := Run(src, algorithms.NewPageRank(3), cfg)
		if err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
		for _, it := range combined.Stats.Iters {
			if appended := it.UpdatesSent - it.UpdatesCombined; appended != k*nv {
				t.Fatalf("threads %d: iteration %d appended %d updates, want K·|V| = %d", threads, it.Iter, appended, k*nv)
			}
		}
		cfg.NoCombine = true
		plain, err := Run(src, algorithms.NewPageRank(3), cfg)
		if err != nil {
			t.Fatalf("threads %d, no combining: %v", threads, err)
		}
		if !reflect.DeepEqual(combined.Vertices, plain.Vertices) {
			t.Fatalf("threads %d: combined ranks differ from uncombined ones", threads)
		}
	}
}
