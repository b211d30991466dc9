package diskengine

// oneloop_test.go pins that the out-of-core engine has one iteration loop
// and one run configuration: a solo Run and a RunJob of the same program over
// the same config are driven by runPass alike — same results, same counters,
// I/O included, same spans —, that both engines' passes run core.RunPass
// alike and reject a bad program set before the ingest, and that what only
// a run's stores can hit, an
// I/O fault behind the phase hook's vertex view, a corrupted vertex window or
// update stream, or a cancel between two chunks of one partition's vertex
// window, fails the run with a typed error and leaves nothing behind.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/memengine"
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
// loop-owned counters and transport bytes — and with spilled state the
// bytes the stores moved — and the same span-name multiset.
func TestSoloAndJobShareTheLoop(t *testing.T) {
	dense, _ := smallGraph(23)
	type workload struct {
		name string
		src  core.EdgeSource
		cfg  Config
		solo typedRun
		job  func() *core.Job
	}
	pagerank := workload{name: "pagerank", src: dense, cfg: Config{Threads: 3}}
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
				// Both kinds scatter a partition through one kernel whose
				// combining window stays open for all of it.
				if solo.TransportBytes != job.TransportBytes {
					t.Errorf("Run sent the transport %d bytes, RunJob %d", solo.TransportBytes, job.TransportBytes)
				}
				if state == "spilled" && (solo.BytesRead != job.BytesRead || solo.BytesWritten != job.BytesWritten) {
					t.Errorf("Run moved %d bytes in and %d out, RunJob %d and %d", solo.BytesRead, solo.BytesWritten, job.BytesRead, job.BytesWritten)
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

// TestEnginesShareThePassLoop: both engines drive their passes through
// core.RunPass, so a selective BFS and a PageRank record the same spans per
// iteration on each — one scatter, shuffle, gather and iteration span, and a
// partition span only for a partition that streamed edges — split the phase
// after the scatter into a shuffle and a gather alike (pass-level ShuffleTime
// > 0) and profile every iteration: in memory, and out of core with vertex
// state in memory and spilled, at Threads 2.
func TestEnginesShareThePassLoop(t *testing.T) {
	dense, _ := smallGraph(53)
	for _, w := range []struct {
		name string
		src  core.EdgeSource
		job  func() *core.Job
	}{
		// A chain keeps the frontier narrow: partitions and tiles go unread.
		{"bfs-selective", graphgen.Chain(384, 13), func() *core.Job { return core.NewJob[bfsState, int32](&bfsProg{root: 0}) }},
		{"pagerank", dense, func() *core.Job { return core.NewJob[algorithms.PRState, float32](algorithms.NewPageRank(3)) }},
	} {
		for _, engine := range []string{"memory", "disk", "disk-spilled"} {
			t.Run(w.name+"/"+engine, func(t *testing.T) {
				rec := obs.NewRecorder()
				set := core.ProgramSet{w.job()}
				var pass core.Stats
				var err error
				if engine == "memory" {
					cfg := memengine.Config{Threads: 2, Partitions: 4, Selective: true, TileEdges: 32, Tracer: rec}
					_, pass, err = memengine.RunMany(context.Background(), w.src, set, cfg)
				} else {
					cfg := Config{Device: ssd(0), Threads: 2, Partitions: 4, IOUnit: 8 << 10, Selective: true, TileEdges: 32, Tracer: rec}
					if engine == "disk-spilled" {
						cfg = spilled(cfg)
					}
					_, pass, err = RunMany(context.Background(), w.src, set, cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				perIter := map[int64]map[string]int{}
				for _, e := range rec.Events() {
					switch e.Name {
					case "run", "preprocess":
					case "partition":
						if e.Args["edges"] <= 0 {
							t.Errorf("partition %d recorded a span for %d edges streamed", e.Args["p"], e.Args["edges"])
						}
					case "scatter", "shuffle", "gather", "iteration":
						it := e.Args["iter"]
						if perIter[it] == nil {
							perIter[it] = map[string]int{}
						}
						perIter[it][e.Name]++
					default:
						t.Errorf("unexpected %q span", e.Name)
					}
				}
				if len(perIter) != pass.Iterations {
					t.Errorf("spans for %d iterations of %d", len(perIter), pass.Iterations)
				}
				for it, count := range perIter {
					for _, name := range []string{"scatter", "shuffle", "gather", "iteration"} {
						if count[name] != 1 {
							t.Errorf("iteration %d: %d %q spans, want 1", it, count[name], name)
						}
					}
				}
				if pass.ShuffleTime <= 0 {
					t.Errorf("pass ShuffleTime %v", pass.ShuffleTime)
				}
				if len(pass.Iters) != pass.Iterations {
					t.Errorf("%d Iters entries for %d iterations", len(pass.Iters), pass.Iterations)
				}
			})
		}
	}
}

// ingestTrap is an edge source that fails the test if it is ever streamed.
type ingestTrap struct{ t *testing.T }

func (s ingestTrap) NumVertices() int64 { return 64 }
func (s ingestTrap) NumEdges() int64    { return 64 }
func (s ingestTrap) Edges(func([]core.Edge) error) error {
	s.t.Error("the graph was ingested for a set that cannot run")
	return errors.New("ingested")
}

// TestRunManyRejectsBeforeIngest: RunMany over a graph rejects an empty set,
// and a set with a job whose types fail Check, on either engine before it
// streams the graph.
func TestRunManyRejectsBeforeIngest(t *testing.T) {
	bad := core.ProgramSet{core.NewJob[bfsState, int32](&bfsProg{root: 0}), core.NewJob[[]int32, int32](ptrProg{})}
	for _, c := range []struct {
		name string
		set  core.ProgramSet
	}{{"empty set", nil}, {"job fails Check", bad}} {
		for _, engine := range []string{"memory", "disk"} {
			t.Run(c.name+"/"+engine, func(t *testing.T) {
				var err error
				if engine == "memory" {
					_, _, err = memengine.RunMany(context.Background(), ingestTrap{t}, c.set, memengine.Config{Threads: 2})
				} else {
					_, _, err = RunMany(context.Background(), ingestTrap{t}, c.set, Config{Device: ssd(0), Threads: 2})
				}
				if err == nil {
					t.Fatal("a set that cannot run was accepted")
				}
			})
		}
	}
}

// TestSoloRunRepeatable: the one kernel of a solo run sees a fixed edge
// sequence — every segment of a partition in order — so two solo runs of one
// workload agree on every work counter, on what combining merged away, on the
// update stream and device bytes it left and on every vertex bit, float sums
// included, at Threads 2: PageRank and WCC, vertex state in memory and
// spilled. Partitions hold several chunks, and more destinations than a
// combining window, so the kernel evicts while it scatters.
func TestSoloRunRepeatable(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 15, EdgeFactor: 4, Seed: 43, Undirected: true})
	_, pagerank := soloAndJob(func() core.Program[algorithms.PRState, float32] { return algorithms.NewPageRank(3) })
	_, wcc := soloAndJob(func() core.Program[algorithms.WCCState, core.VertexID] { return algorithms.NewWCC() })
	for _, w := range []struct {
		name string
		job  func() *core.Job
	}{{"pagerank", pagerank}, {"wcc", wcc}} {
		for _, spill := range []bool{false, true} {
			name := fmt.Sprintf("%s/threads 2/spilled %v", w.name, spill)
			cfg := Config{Threads: 2, Partitions: 4, IOUnit: 64 << 10}
			if spill {
				cfg = spilled(cfg)
			}
			var first map[string]float64
			var firstVerts any
			for i := 0; i < 2; i++ {
				cfg.Device = ssd(0)
				res, err := RunJob(context.Background(), src, w.job(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				verts, st := res.Vertices, res.Stats
				got := st.Counters(core.StatWork)
				got["UpdatesCombined"], got["UpdateBytes"] = float64(st.UpdatesCombined), float64(st.UpdateBytes)
				got["BytesRead"], got["BytesWritten"] = float64(st.BytesRead), float64(st.BytesWritten)
				if st.UpdatesCombined == 0 || st.BytesWritten == 0 {
					t.Fatalf("%s: workload lost its shape: %d combined, %d bytes written", name, st.UpdatesCombined, st.BytesWritten)
				}
				if first == nil {
					first, firstVerts = got, verts
					continue
				}
				if !reflect.DeepEqual(verts, firstVerts) {
					t.Errorf("%s: two runs disagree on vertex states", name)
				}
				for k, v := range first {
					if got[k] != v {
						t.Errorf("%s: %s is %v in one run, %v in another", name, k, v, got[k])
					}
				}
			}
		}
	}
}

// hookFaults is a device whose files go through a seeded storage.NewFaulty
// layer only while armed — the window a phase hook's vertex I/O runs in —
// and which logs the name of every file read while armed.
type hookFaults struct {
	storage.Device
	faulty storage.Device
	armed  atomic.Bool

	mu    sync.Mutex
	reads []string
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
	return &hookFile{File: f, faulty: g, name: name, dev: d}, nil
}

type hookFile struct {
	storage.File
	faulty storage.File
	name   string
	dev    *hookFaults
}

func (f *hookFile) ReadAt(p []byte, off int64) (int, error) {
	if d := f.dev; d.armed.Load() {
		d.mu.Lock()
		d.reads = append(d.reads, f.name)
		d.mu.Unlock()
		return f.faulty.ReadAt(p, off)
	}
	return f.File.ReadAt(p, off)
}

func (f *hookFile) WriteAt(p []byte, off int64) (int, error) {
	if f.dev.armed.Load() {
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
// through the run's view of its stored windows in EndIteration, and the
// view's ForEach has no error to return. One injected fault on a vertex-window read or write
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
		{"read/last-iteration", iters - 1, storage.FaultyOptions{Seed: 7, ReadErr: 1, MaxFaults: 1}},
		{"read/mid-run", 1, storage.FaultyOptions{Seed: 7, ReadErr: 1, MaxFaults: 1}},
		{"write/last-iteration", iters - 1, storage.FaultyOptions{Seed: 7, WriteErr: 1, MaxFaults: 1}},
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

// armedWCC is wccProg arming a flag when iteration at starts.
type armedWCC struct {
	wccProg
	at  int
	arm *atomic.Bool
}

func (p *armedWCC) StartIteration(iter int) {
	p.wccProg.StartIteration(iter)
	if iter == p.at {
		p.arm.Store(true)
	}
}

// TestSinkFaultStopsEdgeReads: a fault loading a spilled vertex window when
// the run readies its sink for partition 0 fails the pass with the injected
// error, and no later partition's edge file is read in that iteration — the
// sink returns the failure from its first Edges call, which ends the walk,
// instead of no-op'ing through the rest of the edge files.
func TestSinkFaultStopsEdgeReads(t *testing.T) {
	src, _ := smallGraph(31)
	inner := ssd(0)
	dev := &hookFaults{Device: inner, faulty: storage.NewFaulty(inner, storage.FaultyOptions{Seed: 7, ReadErr: 1, MaxFaults: 1})}
	prog := &armedWCC{at: 1, arm: &dev.armed}
	_, err := Run[wccState, core.VertexID](src, prog, spilled(Config{Device: dev, Threads: 1, IOUnit: 8 << 10, Partitions: 4}))
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("a fault loading a vertex window returned %v, want ErrInjected", err)
	}
	if n := dev.faulty.(storage.FaultInjector).Faults(); n != 1 || len(dev.reads) == 0 || dev.reads[0] != "r0-p0000.verts" {
		t.Fatalf("%d faults injected, reads %v: want one, on partition 0's vertex window", n, dev.reads)
	}
	for _, name := range dev.reads {
		if strings.HasSuffix(name, ".edges") && name != "ds-p0000.edges" {
			t.Errorf("edge file %s read after partition 0's sink failed (reads: %v)", name, dev.reads)
		}
	}
}

// flipAtStart is PageRank running flip as iteration at starts: after the
// previous iteration stored every vertex window, before this one loads any.
type flipAtStart struct {
	*algorithms.PageRank
	at   int
	flip func()
}

func (p *flipAtStart) StartIteration(iter int) {
	if iter == p.at {
		p.flip()
	}
}

// flipByte flips the low bit of the byte at off in file name on dev, behind
// the back of whoever wrote it.
func flipByte(dev storage.Device, name string, off int64) error {
	f, err := dev.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1
	_, err = f.WriteAt(b[:], off)
	return err
}

// TestSpilledVertexFlipIsCorrupted: a solo PageRank whose vertex state
// spills, with one byte of partition 2's vertex file flipped between the
// store that wrote it and the load that reads it back, fails with
// storage.ErrCorrupted — the window's checksum, not a wrong rank.
func TestSpilledVertexFlipIsCorrupted(t *testing.T) {
	src, _ := smallGraph(43)
	dev := ssd(0)
	var flipErr error
	prog := &flipAtStart{PageRank: algorithms.NewPageRank(3), at: 1, flip: func() { flipErr = flipByte(dev, "r0-p0002.verts", 5) }}
	_, err := Run[algorithms.PRState, float32](src, prog, spilled(Config{Device: dev, Threads: 2, IOUnit: 8 << 10, Partitions: 4}))
	if flipErr != nil {
		t.Fatalf("flipping a byte of the spilled vertex file: %v", flipErr)
	}
	if !errors.Is(err, storage.ErrCorrupted) {
		t.Fatalf("a run over a flipped vertex window returned %v, want ErrCorrupted", err)
	}
}

// rewriteDst is a device whose file name, once created, reads back with the
// destination of its first record replaced by dst, and which counts those
// reads.
type rewriteDst struct {
	storage.Device
	name  string
	dst   uint32
	reads atomic.Int64
}

func (d *rewriteDst) Create(name string) (storage.File, error) {
	f, err := d.Device.Create(name)
	if err != nil || name != d.name {
		return f, err
	}
	return &rewriteFile{File: f, dev: d}, nil
}

type rewriteFile struct {
	storage.File
	dev *rewriteDst
}

func (f *rewriteFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if off == 0 && n >= 4 {
		binary.LittleEndian.PutUint32(p, f.dev.dst)
		f.dev.reads.Add(1)
	}
	return n, err
}

// TestSpilledUpdateOutsideWindowIsCorrupted: with verification off nothing
// checksums the update files, so the gather's window check is what stands
// between a spilled update whose destination was rewritten on read — into
// another partition, or past the last vertex — and the vertex state. With
// vertex state in memory and spilled, the run fails with
// storage.ErrCorrupted: never an index panic, never a result.
func TestSpilledUpdateOutsideWindowIsCorrupted(t *testing.T) {
	src, _ := smallGraph(47)
	for _, c := range []struct {
		name string
		dst  uint32
	}{{"other partition", 0}, {"beyond the graph", 1 << 30}} {
		for _, spill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spilled %v", c.name, spill), func(t *testing.T) {
				upd := &rewriteDst{Device: ssd(0), name: "r0-p0001.updates", dst: c.dst}
				cfg := Config{Device: ssd(0), UpdateDevice: upd, Threads: 2, IOUnit: 4 << 10, Partitions: 4, NoVerify: true}
				if spill {
					cfg = spilled(cfg)
				}
				_, err := Run(src, &wccProg{}, spillsUpdates(t, cfg))
				if upd.reads.Load() == 0 {
					t.Fatal("partition 1's update file was never read back")
				}
				if !errors.Is(err, storage.ErrCorrupted) {
					t.Fatalf("a rewritten update destination returned %v, want ErrCorrupted", err)
				}
			})
		}
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
	cfg := spilled(Config{Device: dev, Threads: 2, IOUnit: 8 << 10, Partitions: 2})
	// The edge buffer holds S·K records rounded up to whole tiles.
	tile := int64(withDefaults(cfg).TileEdges)
	chunkRecs := (int64(cfg.IOUnit)*int64(cfg.Partitions)/edgeRecSize + tile - 1) / tile * tile
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
	_, err = RunJob(ctx, src, core.NewJob[wccState, core.VertexID](prog), cfg)
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
