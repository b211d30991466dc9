package xstream_test

import (
	"context"
	"math"
	"testing"

	xstream "repro"
	"repro/internal/xstreamtest"
)

// Shared-pass equivalence: a job co-scheduled into RunMany must produce
// exactly the results of its own solo Run under the same configuration —
// across engines, partitioners and selective scheduling, with a mixed set
// that exercises per-job frontiers (BFS/SSSP/WCC), dense phased programs
// (PageRank) and split direction groups (PageRank streams the transpose in
// iteration 0 while the traversals stream forward).

// runManyCase is one (engine, partitioner, selective) combination.
type runManyCase struct {
	name      string
	mem       bool
	part      func() xstream.Partitioner
	selective bool
}

func runManyCases() []runManyCase {
	return []runManyCase{
		{"mem/range", true, xstream.NewRangePartitioner, false},
		{"mem/range/selective", true, xstream.NewRangePartitioner, true},
		{"mem/2ps/selective", true, xstream.New2PSPartitioner, true},
		{"mem/2psv", true, xstream.New2PSVolumePartitioner, false},
		{"disk/range", false, xstream.NewRangePartitioner, false},
		{"disk/range/selective", false, xstream.NewRangePartitioner, true},
		{"disk/2ps/selective", false, xstream.New2PSPartitioner, true},
		{"disk/2psv", false, xstream.New2PSVolumePartitioner, false},
	}
}

func (c runManyCase) memConfig() xstream.MemConfig {
	cfg := xstreamtest.MemConfig()
	cfg.Partitions, cfg.Partitioner, cfg.Selective = 16, c.part(), c.selective
	return cfg
}

func (c runManyCase) diskConfig() xstream.DiskConfig {
	cfg := xstreamtest.DiskConfig("runmany")
	cfg.Partitioner, cfg.Selective = c.part(), c.selective
	return cfg
}

// soloVertices runs prog alone through the classic Run path.
func soloVertices[V, M any](t *testing.T, c runManyCase, src xstream.EdgeSource, prog xstream.Program[V, M]) []V {
	t.Helper()
	if c.mem {
		res, err := xstream.RunMemory(src, prog, c.memConfig())
		if err != nil {
			t.Fatalf("%s: solo mem: %v", c.name, err)
		}
		return res.Vertices
	}
	res, err := xstream.RunDisk(src, prog, c.diskConfig())
	if err != nil {
		t.Fatalf("%s: solo disk: %v", c.name, err)
	}
	return res.Vertices
}

func runManySet(t *testing.T, c runManyCase, src xstream.EdgeSource, set xstream.ProgramSet) ([]xstream.JobResult, xstream.Stats) {
	t.Helper()
	var results []xstream.JobResult
	var pass xstream.Stats
	var err error
	if c.mem {
		results, pass, err = xstream.RunManyMemory(context.Background(), src, set, c.memConfig())
	} else {
		results, pass, err = xstream.RunManyDisk(context.Background(), src, set, c.diskConfig())
	}
	if err != nil {
		t.Fatalf("%s: RunMany: %v", c.name, err)
	}
	if pass.CoJobs != len(set) {
		t.Fatalf("%s: pass CoJobs = %d, want %d", c.name, pass.CoJobs, len(set))
	}
	return results, pass
}

func TestRunManyEquivalence(t *testing.T) {
	src := xstreamtest.RMATUndirected(10, 61)
	const root = 3
	const prIters = 5

	for _, c := range runManyCases() {
		t.Run(c.name, func(t *testing.T) {
			wantBFS := xstream.BFSLevels(soloVertices(t, c, src, xstream.NewBFS(root)))
			wantWCC := xstream.WCCLabels(soloVertices(t, c, src, xstream.NewWCC()))
			wantSSSP := xstream.SSSPDistances(soloVertices(t, c, src, xstream.NewSSSP(root)))
			wantPR := xstream.PageRankValues(soloVertices(t, c, src, xstream.NewPageRank(prIters)))

			set := xstream.ProgramSet{
				xstream.NewJob[xstream.BFSState, int32](xstream.NewBFS(root)),
				xstream.NewJob[xstream.WCCState, xstream.VertexID](xstream.NewWCC()),
				xstream.NewJob[xstream.SSSPState, float32](xstream.NewSSSP(root)),
				xstream.NewJob[xstream.PRState, float32](xstream.NewPageRank(prIters)),
			}
			results, pass := runManySet(t, c, src, set)

			gotBFS := xstream.BFSLevels(results[0].Vertices.([]xstream.BFSState))
			gotWCC := xstream.WCCLabels(results[1].Vertices.([]xstream.WCCState))
			gotSSSP := xstream.SSSPDistances(results[2].Vertices.([]xstream.SSSPState))
			gotPR := xstream.PageRankValues(results[3].Vertices.([]xstream.PRState))

			for v := range wantBFS {
				// Min-lattice algorithms have a unique fixpoint: shared-pass
				// results must be bit-identical to the solo runs.
				if gotBFS[v] != wantBFS[v] {
					t.Fatalf("BFS vertex %d: level %d, want %d", v, gotBFS[v], wantBFS[v])
				}
				if gotWCC[v] != wantWCC[v] {
					t.Fatalf("WCC vertex %d: label %d, want %d", v, gotWCC[v], wantWCC[v])
				}
				if gotSSSP[v] != wantSSSP[v] {
					t.Fatalf("SSSP vertex %d: dist %g, want %g", v, gotSSSP[v], wantSSSP[v])
				}
				// PageRank sums floats, whose reduction order legitimately
				// varies with thread scheduling (exactly as the solo
				// equivalence suite tolerates).
				diff := math.Abs(float64(gotPR[v]) - float64(wantPR[v]))
				if diff > 1e-3*(1+math.Abs(float64(wantPR[v]))) {
					t.Fatalf("PageRank vertex %d: rank %g, want %g", v, gotPR[v], wantPR[v])
				}
			}

			// The pass streams the union once: the sum of per-job streams
			// beyond the pass's own is the sharing win.
			var jobStreamed int64
			for _, r := range results {
				jobStreamed += r.Stats.EdgesStreamed
			}
			if want := jobStreamed - pass.EdgesStreamed; pass.EdgesShared != want && !(want < 0 && pass.EdgesShared == 0) {
				t.Fatalf("EdgesShared = %d, want %d", pass.EdgesShared, want)
			}
			if pass.EdgesShared <= 0 {
				t.Fatalf("4 co-scheduled jobs shared no edge reads (pass streamed %d)", pass.EdgesStreamed)
			}
		})
	}
}

// TestRunManyBitExact: with one thread the in-memory engine is fully
// deterministic, so a co-scheduled PageRank must match its solo run to the
// last bit — same combining windows, same shuffle, same gather order.
func TestRunManyBitExact(t *testing.T) {
	src := xstreamtest.RMAT(9, 62)
	cfg := xstream.MemConfig{Threads: 1, Partitions: 16}
	solo, err := xstream.RunMemory(src, xstream.NewPageRank(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := xstream.ProgramSet{
		xstream.NewJob[xstream.PRState, float32](xstream.NewPageRank(5)),
		xstream.NewJob[xstream.PRState, float32](xstream.NewPageRank(5)),
		xstream.NewJob[xstream.PRState, float32](xstream.NewPageRank(5)),
	}
	results, _, err := xstream.RunManyMemory(context.Background(), src, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		got := r.Vertices.([]xstream.PRState)
		for v := range solo.Vertices {
			if got[v] != solo.Vertices[v] {
				t.Fatalf("job %d vertex %d: %+v, want %+v (bitwise)", i, v, got[v], solo.Vertices[v])
			}
		}
	}
}

// TestRunManyAmortization: K identical dense jobs must stream the edge
// list once per pass — per-job streams equal the pass stream, and
// EdgesShared is (K-1) times it.
func TestRunManyAmortization(t *testing.T) {
	src := xstreamtest.RMAT(9, 63)
	const k = 4
	set := make(xstream.ProgramSet, k)
	for i := range set {
		set[i] = xstream.NewJob[xstream.PRState, float32](xstream.NewPageRank(5))
	}
	results, pass, err := xstream.RunManyMemory(context.Background(), src, set, xstream.MemConfig{Threads: 2, Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	per := results[0].Stats.EdgesStreamed
	if pass.EdgesStreamed != per {
		t.Fatalf("pass streamed %d, want the single-job stream %d", pass.EdgesStreamed, per)
	}
	if want := (k - 1) * per; pass.EdgesShared != want {
		t.Fatalf("EdgesShared = %d, want %d", pass.EdgesShared, want)
	}
}

// TestRunManyCancel: a canceled context stops the pass between iterations.
func TestRunManyCancel(t *testing.T) {
	src := xstreamtest.RMAT(9, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set := xstream.ProgramSet{xstream.NewJob[xstream.PRState, float32](xstream.NewPageRank(50))}
	if _, _, err := xstream.RunManyMemory(ctx, src, set, xstream.MemConfig{Threads: 2}); err != context.Canceled {
		t.Fatalf("mem: err = %v, want context.Canceled", err)
	}
	dev := xstream.NewSimDevice(xstream.SimSSD("cancel", 2, 0))
	dcfg := xstream.DiskConfig{Device: dev, Threads: 2, IOUnit: 32 << 10, Partitions: 4}
	if _, _, err := xstream.RunManyDisk(ctx, src, set, dcfg); err != context.Canceled {
		t.Fatalf("disk: err = %v, want context.Canceled", err)
	}
}
