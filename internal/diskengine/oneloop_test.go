package diskengine

// oneloop_test.go pins that the out-of-core engine has one iteration loop
// and two run kinds: a solo Run (the spillable engine) and a RunJob
// (core.jobRun) of the same program over the same config are driven by
// runPass alike — same results, same loop-owned counters, same spans — and
// that what only the spillable run can hit, an I/O fault behind the phase
// hook's vertex view or a cancel between two chunks of one partition's
// vertex window, fails the run with a typed error and leaves nothing behind.

import (
	"context"
	"errors"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/obs"
	"repro/internal/partition2ps"
	"repro/internal/storage"
)

// spanCounts returns how many spans of each name were recorded.
func spanCounts(rec *obs.Recorder) map[string]int {
	count := map[string]int{}
	for _, e := range rec.Events() {
		count[e.Name]++
	}
	return count
}

// TestSoloAndJobShareTheLoop: with vertex state in memory and spilled, for
// PageRank with its transpose pass, a selective BFS over compressed tiles
// and WCC under 2PS, solo Run and RunJob give bit-identical vertices, equal
// loop-owned counters and the same span-name multiset.
func TestSoloAndJobShareTheLoop(t *testing.T) {
	dense, _ := smallGraph(23)
	type workload struct {
		name string
		src  core.EdgeSource
		cfg  Config
		solo typedRun
		job  func() *core.Job
	}
	// PageRank at one thread: its float sums are bit-exact only there.
	pagerank := workload{name: "pagerank", src: dense, cfg: Config{Threads: 1}}
	pagerank.solo, pagerank.job = soloAndJob(func() core.Program[algorithms.PRState, float32] { return algorithms.NewPageRank(3) })
	// A chain keeps the frontier narrow, so tiles are skipped, not just
	// partitions.
	bfs := workload{name: "bfs-selective", src: graphgen.Chain(384, 13),
		cfg: Config{Threads: 2, Selective: true, CompressTiles: true, TileEdges: 32}}
	bfs.solo, bfs.job = soloAndJob(func() core.Program[bfsState, int32] { return &bfsProg{root: 0} })
	wcc := workload{name: "wcc-2ps", src: dense, cfg: Config{Threads: 2, Partitioner: partition2ps.New()}}
	wcc.solo, wcc.job = soloAndJob(func() core.Program[wccState, core.VertexID] { return &wccProg{} })

	for _, w := range []workload{pagerank, bfs, wcc} {
		for _, state := range []string{"in-memory", "spilled"} {
			t.Run(w.name+"/"+state, func(t *testing.T) {
				cfg := w.cfg
				cfg.IOUnit, cfg.Partitions = 8<<10, 4
				if state == "spilled" {
					cfg = spilled(cfg)
				}
				soloRec, jobRec := obs.NewRecorder(), obs.NewRecorder()
				cfg.Device, cfg.Tracer = ssd(0), soloRec
				verts, solo, err := w.solo(w.src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Device, cfg.Tracer = ssd(0), jobRec
				res, err := RunJob(context.Background(), w.src, w.job(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				job := res.Stats
				if !reflect.DeepEqual(verts, res.Vertices) {
					t.Error("Run and RunJob disagree on vertex states")
				}
				type loopOwned struct {
					iters                                       int
					streamed, skipped, partsSkipped, tiles, out int64
				}
				a := loopOwned{solo.Iterations, solo.EdgesStreamed, solo.EdgesSkipped, solo.PartitionsSkipped, solo.TilesSkipped, solo.UpdatesSent}
				b := loopOwned{job.Iterations, job.EdgesStreamed, job.EdgesSkipped, job.PartitionsSkipped, job.TilesSkipped, job.UpdatesSent}
				if a != b {
					t.Errorf("Run and RunJob disagree on loop-owned counters:\n solo %+v\n job  %+v", a, b)
				}
				if w.cfg.Selective && a.tiles == 0 {
					t.Error("selective workload skipped no tiles")
				}
				if solo.CoJobs != 1 || len(solo.Iters) != solo.Iterations {
					t.Errorf("solo profile: CoJobs %d, %d iterations with %d Iters entries", solo.CoJobs, solo.Iterations, len(solo.Iters))
				}
				if solo.PreprocessTime <= 0 || solo.TotalTime < solo.PreprocessTime {
					t.Errorf("solo profile: preprocess %v of total %v", solo.PreprocessTime, solo.TotalTime)
				}
				count := spanCounts(soloRec)
				if other := spanCounts(jobRec); !reflect.DeepEqual(count, other) {
					t.Errorf("Run and RunJob recorded different spans:\n solo %v\n job  %v", count, other)
				}
				// The vocabulary perf/ and figobs read.
				iters := solo.Iterations
				for name, want := range map[string]int{"run": 1, "preprocess": 1, "iteration": iters, "scatter": iters, "gather": iters} {
					if count[name] != want {
						t.Errorf("%d %q spans, want %d", count[name], name, want)
					}
				}
				if count["partition"] == 0 {
					t.Error("no partition spans")
				}
			})
		}
	}
}

// hookFaults is a device whose files go through a seeded storage.NewFaulty
// layer only while armed — the window a phase hook's vertex I/O runs in.
type hookFaults struct {
	storage.Device
	faulty storage.Device
	armed  atomic.Bool
}

func (d *hookFaults) Create(name string) (storage.File, error) {
	f, err := d.Device.Create(name)
	if err != nil {
		return nil, err
	}
	g, err := d.faulty.Open(name)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &hookFile{File: f, faulty: g, armed: &d.armed}, nil
}

type hookFile struct {
	storage.File
	faulty storage.File
	armed  *atomic.Bool
}

func (f *hookFile) ReadAt(p []byte, off int64) (int, error) {
	if f.armed.Load() {
		return f.faulty.ReadAt(p, off)
	}
	return f.File.ReadAt(p, off)
}

func (f *hookFile) WriteAt(p []byte, off int64) (int, error) {
	if f.armed.Load() {
		return f.faulty.WriteAt(p, off)
	}
	return f.File.WriteAt(p, off)
}

func (f *hookFile) Close() error {
	f.faulty.Close()
	return f.File.Close()
}

// armedPageRank arms a flag for the duration of one iteration's phase hook.
type armedPageRank struct {
	*algorithms.PageRank
	at  int
	arm *atomic.Bool
}

func (p *armedPageRank) EndIteration(iter int, sent int64, view core.VertexView[algorithms.PRState]) bool {
	if iter == p.at {
		p.arm.Store(true)
		defer p.arm.Store(false)
	}
	return p.PageRank.EndIteration(iter, sent, view)
}

// TestSpillViewFaultFailsIteration: spilled PageRank folds its ranks
// through the spill view in EndIteration, and the view's ForEach has no
// error to return. One injected fault on a vertex-window read or write
// inside the hook — in the last iteration nothing afterwards would trip
// over it — must fail the run with the injected error, not leave the
// remaining partitions (or a torn window) un-updated and carry on.
func TestSpillViewFaultFailsIteration(t *testing.T) {
	src, _ := smallGraph(29)
	const iters = 3
	for _, c := range []struct {
		name string
		at   int
		opts storage.FaultyOptions
	}{
		{"read/last-iteration", iters, storage.FaultyOptions{Seed: 7, ReadErr: 1, MaxFaults: 1}},
		{"read/mid-run", 1, storage.FaultyOptions{Seed: 7, ReadErr: 1, MaxFaults: 1}},
		{"write/last-iteration", iters, storage.FaultyOptions{Seed: 7, WriteErr: 1, MaxFaults: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			inner := ssd(0)
			dev := &hookFaults{Device: inner, faulty: storage.NewFaulty(inner, c.opts)}
			prog := &armedPageRank{PageRank: algorithms.NewPageRank(iters), at: c.at, arm: &dev.armed}
			_, err := Run[algorithms.PRState, float32](src, prog, spilled(Config{Device: dev, Threads: 1, IOUnit: 8 << 10, Partitions: 4}))
			if n := dev.faulty.(storage.FaultInjector).Faults(); n != 1 {
				t.Fatalf("%d faults injected, want the one in the hook's window", n)
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("a fault inside the phase hook's window I/O returned %v, want ErrInjected", err)
			}
		})
	}
}

// cancelOnScatter is wccProg cancelling a context on its first edge.
type cancelOnScatter struct {
	wccProg
	cancel    context.CancelFunc
	scattered atomic.Int64
}

func (c *cancelOnScatter) Scatter(e core.Edge, src *wccState) (core.VertexID, bool) {
	if c.scattered.Add(1) == 1 {
		c.cancel()
	}
	return c.wccProg.Scatter(e, src)
}

// TestSoloCancelBetweenChunks: a solo run whose context is cancelled while
// the first chunk of a partition scatters stops before the partition's next
// chunk, returns context.Canceled and leaves the device directory empty —
// update files, spilled vertex files and edge files alike.
func TestSoloCancelBetweenChunks(t *testing.T) {
	src, edges := smallGraph(37)
	dir := t.TempDir()
	dev, err := storage.NewOS("os", dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := spilled(Config{Device: dev, Threads: 2, IOUnit: 8 << 10, Partitions: 2, Context: ctx})
	chunkRecs := int64(cfg.IOUnit) * int64(cfg.Partitions) / edgeRecSize
	var first int64 // records of partition 0, the first one scattered
	for _, e := range edges {
		if int64(e.Src) < src.NumVertices()/2 {
			first++
		}
	}
	if first <= chunkRecs {
		t.Fatalf("partition 0 holds %d records, one chunk of %d: nothing to cancel between", first, chunkRecs)
	}
	prog := &cancelOnScatter{cancel: cancel}
	_, err = Run[wccState, core.VertexID](src, prog, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := prog.scattered.Load(); n > chunkRecs {
		t.Errorf("%d edges scattered after a cancel on the first, more than the one chunk of %d in flight", n, chunkRecs)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		t.Errorf("file left on the device: %s", f.Name())
	}
}
