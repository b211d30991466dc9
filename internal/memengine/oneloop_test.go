package memengine

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/obs"
	"repro/internal/partition2ps"
	"repro/internal/refalgo"
)

// workOnly strips the wall-clock fields from a profile, leaving what two
// runs of the same work must agree on exactly.
func workOnly(s core.Stats) core.Stats {
	s.TotalTime, s.PreprocessTime, s.ScatterTime, s.ShuffleTime, s.GatherTime = 0, 0, 0, 0, 0
	iters := make([]core.IterStats, len(s.Iters))
	for i, it := range s.Iters {
		it.Time, it.ScatterTime, it.ShuffleTime, it.GatherTime = 0, 0, 0, 0
		iters[i] = it
	}
	s.Iters = iters
	return s
}

// spanCounts returns how many spans of each name were recorded.
func spanCounts(rec *obs.Recorder) map[string]int {
	count := map[string]int{}
	for _, e := range rec.Events() {
		count[e.Name]++
	}
	return count
}

// soloCase runs one program both ways on one graph.
func soloCase[V, M any](t *testing.T, src core.EdgeSource, cfg Config, mk func() core.Program[V, M]) {
	t.Helper()
	typedRec, erasedRec := obs.NewRecorder(), obs.NewRecorder()
	cfg.Tracer = typedRec
	typed, err := Run(src, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = erasedRec
	erased, err := RunJob(context.Background(), src, core.NewJob(mk()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(typed.Vertices, erased.Vertices.([]V)) {
		t.Error("Run and RunJob disagree on vertex states")
	}
	if a, b := workOnly(typed.Stats), workOnly(erased.Stats); !reflect.DeepEqual(a, b) {
		t.Errorf("Run and RunJob disagree on work stats:\n typed  %+v\n erased %+v", a, b)
	}
	if typed.Stats.CoJobs != 1 || typed.Stats.Iterations != len(typed.Stats.Iters) {
		t.Errorf("solo profile: CoJobs %d, %d iterations with %d Iters entries",
			typed.Stats.CoJobs, typed.Stats.Iterations, len(typed.Stats.Iters))
	}
	if typed.Stats.PreprocessTime <= 0 || typed.Stats.TotalTime < typed.Stats.PreprocessTime {
		t.Errorf("solo profile: preprocess %v of total %v", typed.Stats.PreprocessTime, typed.Stats.TotalTime)
	}
	count := spanCounts(typedRec)
	if erased := spanCounts(erasedRec); !reflect.DeepEqual(count, erased) {
		t.Errorf("Run and RunJob recorded different spans:\n typed  %v\n erased %v", count, erased)
	}
	// The vocabulary perf/ and figobs read: one run and one preprocess
	// span, and per iteration one each of the three phases.
	iters := typed.Stats.Iterations
	for name, want := range map[string]int{"run": 1, "preprocess": 1, "iteration": iters, "scatter": iters, "shuffle": iters, "gather": iters} {
		if count[name] != want {
			t.Errorf("%d %q spans, want %d", count[name], name, want)
		}
	}
	if count["partition"] == 0 {
		t.Error("no partition spans")
	}
}

// TestSoloIsSetOfOne: Run is RunJob with the types kept, every counter —
// the combining ones included — and every float equal at three threads.
func TestSoloIsSetOfOne(t *testing.T) {
	rmat := graphgen.RMAT(graphgen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 21, Undirected: true})
	t.Run("pagerank", func(t *testing.T) {
		// Phased, and iteration 0 streams the transpose.
		soloCase(t, rmat, Config{Threads: 3, Partitions: 8},
			func() core.Program[algorithms.PRState, float32] { return algorithms.NewPageRank(4) })
	})
	t.Run("bfs-selective", func(t *testing.T) {
		soloCase(t, graphgen.CliqueChain(24, 8, 3), Config{Threads: 3, Partitions: 8, Selective: true, TileEdges: 16},
			func() core.Program[algorithms.BFSState, int32] { return algorithms.NewBFS(5) })
	})
	t.Run("wcc-2ps", func(t *testing.T) {
		soloCase(t, rmat, Config{Threads: 3, Partitions: 8, Partitioner: partition2ps.New()},
			func() core.Program[algorithms.WCCState, core.VertexID] { return algorithms.NewWCC() })
	})
}

// TestParallelGatherMatchesReference: programs without a Combiner hand the
// gather every update scatter produced, and the gather now walks
// partitions on as many goroutines as the job has to itself. Results must
// be those of the textbook algorithms at any thread count.
func TestParallelGatherMatchesReference(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 5, Undirected: true})
	edges, err := core.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	n := src.NumVertices()
	wantLevels := refalgo.BFSLevels(n, edges, 3)
	wantLabels := refalgo.Components(n, edges)
	for _, threads := range []int{1, 2, 8} {
		for _, selective := range []bool{false, true} {
			cfg := Config{Threads: threads, Partitions: 64, Selective: selective}
			bfs, err := Run(src, &bfsProg{root: 3}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v, s := range bfs.Vertices {
				if s.Dist != wantLevels[v] {
					t.Fatalf("threads %d selective %v: bfs vertex %d at level %d, want %d", threads, selective, v, s.Dist, wantLevels[v])
				}
			}
			if bfs.Stats.UpdatesCombined != 0 {
				t.Fatalf("bfsProg combined %d updates; the case needs an uncombined gather", bfs.Stats.UpdatesCombined)
			}
			wcc, err := Run(src, &wccProg{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v, s := range wcc.Vertices {
				if s.Label != wantLabels[v] {
					t.Fatalf("threads %d selective %v: wcc vertex %d labelled %d, want %d", threads, selective, v, s.Label, wantLabels[v])
				}
			}
		}
	}
}

// allocProbe is bfsProg sampling the heap's cumulative allocation volume
// at the start of every iteration.
type allocProbe struct {
	bfsProg
	total []uint64
}

func (a *allocProbe) StartIteration(iter int) {
	a.bfsProg.StartIteration(iter)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.total = append(a.total, ms.TotalAlloc)
}

// TestMemPassIterationAllocation: a steady-state iteration of a selective
// BFS pass borrows its buffers from the pass (subscriber lists, per-worker
// sink tables) and from the job (sinks, update stream, frontiers) — what
// it still allocates is bookkeeping, under 16 KiB. The median over the
// steady iterations is taken because a few of them pay for the amortised
// growth of the per-iteration stats and of this probe's samples.
func TestMemPassIterationAllocation(t *testing.T) {
	pp, err := Prepare(graphgen.CliqueChain(96, 24, 3), Config{
		Threads: 2, Partitions: 8, Partitioner: partition2ps.New(), Selective: true, TileEdges: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := &allocProbe{bfsProg: bfsProg{root: 0}}
	_, pass, err := pp.RunMany(context.Background(), core.ProgramSet{core.NewJob[bfsState, int32](probe)})
	if err != nil {
		t.Fatal(err)
	}
	if pass.Iterations < 100 || pass.TilesSkipped == 0 {
		t.Fatalf("workload lost its shape: %d iterations, %d tiles skipped", pass.Iterations, pass.TilesSkipped)
	}
	var deltas []uint64
	for i := len(probe.total) / 2; i+1 < len(probe.total); i++ {
		deltas = append(deltas, probe.total[i+1]-probe.total[i])
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
	if med := deltas[len(deltas)/2]; med >= 16<<10 {
		t.Errorf("a steady pass iteration allocates %d bytes (median of %d), want < 16 KiB", med, len(deltas))
	}
}
