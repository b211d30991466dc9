package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	xstream "repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/refalgo"
	"repro/internal/storage"
)

const (
	inputFile    = "input.xsedge"
	pagerankIter = 5
	// diskPartitions is the partition count both out-of-core workloads
	// run with: disk_pagerank reaches it through the §3.4 rule by its
	// memory budget, disk_bfs_selective forces it.
	diskPartitions = 8
)

// inputs is what one set-up leaves behind for the jobs of a batch
// workload: the edge file on a RAM-backed simulated device (no pacing, no
// host file system, so no page-cache or tmpfs noise) and the reference
// result.
type inputs struct {
	g         *graph
	dev       storage.Device
	root      core.VertexID
	refRanks  []float64 // PageRank workloads
	refLevels []int32   // disk_bfs_selective
}

// batchWorkload is one of the three run-to-completion workloads.
type batchWorkload struct {
	name string
	gen  func(sz sizes, seed int64) (*graph, core.VertexID, error)
	ref  func(in *inputs)
	exec func(c *jobCtx) (jobOut, error)
}

var batchWorkloads = map[string]batchWorkload{
	"mem_pagerank":       {"mem_pagerank", genPageRankInput, refPageRank, execMemPageRank},
	"disk_pagerank":      {"disk_pagerank", genPageRankInput, refPageRank, execDiskPageRank},
	"disk_bfs_selective": {"disk_bfs_selective", genCliqueChain, refBFS, execDiskBFS},
}

func genPageRankInput(sz sizes, seed int64) (*graph, core.VertexID, error) {
	g, err := genRMAT(sz.rmatScale, seed, false)
	return g, 0, err
}

func refPageRank(in *inputs) { in.refRanks = refalgo.PageRank(in.g.n, in.g.edges, pagerankIter) }

func refBFS(in *inputs) { in.refLevels = refalgo.BFSLevels(in.g.n, in.g.edges, in.root) }

// setup generates the seeded input, writes it as a binary edge file and
// computes the reference; single-threaded work throughout.
func (w batchWorkload) setup(tr *tracer, sz sizes, seed int64) (*inputs, error) {
	in := &inputs{dev: storage.NewSim(storage.SSDParams("sim-ssd", 2, 0))}
	var err error
	tr.span(0, 0, "graphgen.gen", func(int) { in.g, in.root, err = w.gen(sz, seed) })
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	tr.span(0, 0, "graphio.write_edges", func(int) { err = graphio.WriteEdges(in.dev, inputFile, in.g.source()) })
	if err != nil {
		return nil, fmt.Errorf("write edge file: %w", err)
	}
	tr.span(0, 0, "refalgo.reference", func(int) { w.ref(in) })
	return in, nil
}

// jobCtx is what one job runs against. tr, rec and the device decorator
// are set only in the traced run.
type jobCtx struct {
	in     *inputs
	sz     sizes
	dev    storage.Device
	tr     *tracer
	parent int
	rec    *obs.Recorder
}

// engineTracer returns the Config.Tracer of the job: the recorder in a
// traced run, a nil interface (tracing off, zero cost) otherwise.
func (c *jobCtx) engineTracer() core.Tracer {
	if c.rec == nil {
		return nil
	}
	return c.rec
}

// step runs fn as a span under the job and returns its wall time. Spans
// the engine recorded meanwhile are adopted under it afterwards, outside
// the measured interval.
func (c *jobCtx) step(name string, fn func()) time.Duration {
	var id int
	t := time.Now()
	c.tr.span(c.parent, 0, name, func(i int) { id = i; fn() })
	d := time.Since(t)
	if c.rec != nil && c.rec.Len() > 0 {
		c.tr.adopt(id, c.rec.Events())
		c.rec.Reset()
	}
	return d
}

// jobOut is one job's timing split and outcome.
type jobOut struct {
	open    time.Duration // opening the edge source
	prepare time.Duration // partitioner + pre-processing shuffle
	engine  time.Duration // the engine call(s), prepare included
	render  time.Duration // result materialisation
	verify  time.Duration
	stats   core.Stats
	wrong   error // result differs from the reference
}

func (o jobOut) prep() time.Duration    { return o.open + o.prepare }
func (o jobOut) iterate() time.Duration { return o.engine - o.prepare + o.render }
func (o jobOut) total() time.Duration   { return o.open + o.engine + o.render + o.verify }

func execMemPageRank(c *jobCtx) (out jobOut, err error) {
	var src *graphio.FileSource
	out.open = c.step("graphio.open", func() { src, err = graphio.OpenEdges(c.dev, inputFile) })
	if err != nil {
		return out, err
	}
	var res *xstream.MemResult[xstream.PRState]
	out.engine = c.step("memengine.run", func() {
		res, err = xstream.RunMemory(src, xstream.NewPageRank(pagerankIter), xstream.MemConfig{
			Threads: threads, Partitioner: xstream.NewRangePartitioner(), Tracer: c.engineTracer()})
	})
	if err != nil {
		return out, err
	}
	out.prepare, out.stats = res.Stats.PreprocessTime, res.Stats
	var ranks []float32
	out.render = c.step("algorithms.result", func() { ranks = xstream.PageRankValues(res.Vertices) })
	out.verify = c.step("perf.verify", func() { out.wrong = verifyRanks(ranks, c.in.refRanks) })
	return out, nil
}

// spillBudget is the memory budget under which the §3.4 rule
// N/K + 5·S·K ≤ M first holds at K = diskPartitions, so vertex state
// spills to the device.
func spillBudget(vertexBytes int64, ioUnit int) int64 {
	return vertexBytes/diskPartitions + 5*int64(ioUnit)*diskPartitions
}

func execDiskPageRank(c *jobCtx) (out jobOut, err error) {
	var src *graphio.FileSource
	out.open = c.step("graphio.open", func() { src, err = graphio.OpenEdges(c.dev, inputFile) })
	if err != nil {
		return out, err
	}
	const prStateBytes = 12
	var res *xstream.DiskResult[xstream.PRState]
	out.engine = c.step("diskengine.run", func() {
		res, err = xstream.RunDisk(src, xstream.NewPageRank(pagerankIter), xstream.DiskConfig{
			Device: c.dev, Prefix: "job-", Threads: threads, IOUnit: c.sz.ioUnit,
			MemoryBudget: spillBudget(c.in.g.n*prStateBytes, c.sz.ioUnit),
			Partitioner:  xstream.NewRangePartitioner(), Tracer: c.engineTracer()})
	})
	if err != nil {
		return out, err
	}
	out.prepare, out.stats = res.Stats.PreprocessTime, res.Stats
	var ranks []float32
	out.render = c.step("algorithms.result", func() { ranks = xstream.PageRankValues(res.Vertices) })
	out.verify = c.step("perf.verify", func() { out.wrong = verifyRanks(ranks, c.in.refRanks) })
	return out, nil
}

// execDiskBFS goes through the type-erased path the CLI and the server
// use: a registry job run by RunMany over a prepared dataset.
func execDiskBFS(c *jobCtx) (out jobOut, err error) {
	var src *graphio.FileSource
	out.open = c.step("graphio.open", func() { src, err = graphio.OpenEdges(c.dev, inputFile) })
	if err != nil {
		return out, err
	}
	var pp *xstream.DiskPrepared
	out.prepare = c.step("diskengine.prepare", func() {
		pp, err = xstream.PrepareDisk(src, xstream.DiskConfig{
			Device: c.dev, Prefix: "job-", Threads: threads, IOUnit: c.sz.ioUnit,
			Partitions: diskPartitions, Partitioner: xstream.New2PSPartitioner(),
			CompressTiles: true, Selective: true, Tracer: c.engineTracer()})
	})
	if err != nil {
		return out, err
	}
	spec, _ := algorithms.ByName("bfs")
	inst, err := spec.New(algorithms.Params{Root: c.in.root})
	if err != nil {
		pp.Close()
		return out, err
	}
	var res []core.JobResult
	run := c.step("diskengine.run", func() {
		res, out.stats, err = pp.RunMany(context.Background(), core.ProgramSet{inst.Job})
	})
	// Closing removes the partition files: part of the job, as in RunDisk.
	out.engine = out.prepare + run + c.step("diskengine.close", pp.Close)
	if err != nil {
		return out, err
	}
	var levels []int32
	out.render = c.step("algorithms.result", func() {
		levels = inst.Result(res[0].Vertices).(map[string]any)["levels"].([]int32)
	})
	out.verify = c.step("perf.verify", func() { out.wrong = verifyLevels(levels, c.in.refLevels) })
	return out, nil
}

// tally counts the jobs a run attempted and those whose result was wrong.
type tally struct{ attempted, failed int }

func (t *tally) add(wrong error) {
	t.attempted++
	if wrong != nil {
		t.failed++
		fmt.Printf("# WRONG RESULT: %v\n", wrong)
	}
}

// runOpts are the command-line settings of one run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	sz       sizes
	outDir   string
}

// setupRepeated runs set-up at least sz.setupReps times — more while the
// total stays under the set-up budget, since a cheap set-up needs more
// samples for a steady median — each after a collection and a host probe,
// and keeps the last one's product.
func setupRepeated[T any](sz sizes, probe *hostProbe, setup func() (T, error)) (T, []float64, error) {
	var times []float64
	var total float64
	var last T
	for len(times) < sz.setupReps || (total < sz.setupBudgetS && len(times) < 9) {
		var zero T
		last = zero
		runtime.GC()
		probe.run()
		t := time.Now()
		v, err := setup()
		if err != nil {
			return zero, nil, err
		}
		d := time.Since(t).Seconds()
		times, total, last = append(times, d), total+d, v
	}
	return last, times, nil
}

// setScaledMedian records the median of xs scaled by the host factor, and
// keeps the unscaled median among the facts.
func setScaledMedian(m *measured, name string, xs []float64, factor float64) {
	m.setMedian(name, xs)
	m.facts["raw_"+name] = m.values[name]
	m.values[name] *= factor
}

// runBatch is the untraced, end-to-end run of a batch workload: repeated
// set-up, one warm-up job, then timed repetitions for o.seconds, each after
// a collection and a host probe outside the timed region. Every timing is
// the median over the repetitions, scaled by the host factor of its phase.
func runBatch(w batchWorkload, o runOpts) (*measured, int, int, error) {
	probe := newHostProbe()
	in, setupTimes, err := setupRepeated(o.sz, probe, func() (*inputs, error) { return w.setup(nil, o.sz, o.seed) })
	if err != nil {
		return nil, 0, 0, err
	}
	m := newMeasured()
	setupFactor := probe.factor()
	setScaledMedian(m, "setup_s", setupTimes, setupFactor)
	c := &jobCtx{in: in, sz: o.sz, dev: in.dev}

	var jobs tally
	var last jobOut
	one := func() (jobOut, cpuTimes, error) {
		runtime.GC()
		probe.run()
		cpu0 := cpuNow()
		out, err := w.exec(c)
		cpu := cpuNow().sub(cpu0)
		if err != nil {
			return out, cpu, err
		}
		jobs.add(out.wrong)
		last = out
		return out, cpu, nil
	}
	if _, _, err := one(); err != nil { // warm-up: caches, lazy runtime set-up
		return nil, 0, 0, err
	}
	probe.factor() // the warm-up's probe does not count
	var job, prep, iterate, cpu []float64
	start := time.Now()
	for len(job) < o.sz.minReps || time.Since(start).Seconds() < o.seconds {
		out, used, err := one()
		if err != nil {
			return nil, 0, 0, err
		}
		job = append(job, out.total().Seconds())
		prep = append(prep, out.prep().Seconds())
		iterate = append(iterate, out.iterate().Seconds())
		cpu = append(cpu, used.total().Seconds())
	}
	factor := probe.factor()
	setScaledMedian(m, "job_s", job, factor)
	setScaledMedian(m, "prep_s", prep, factor)
	setScaledMedian(m, "iterate_s", iterate, factor)
	setScaledMedian(m, "job_cpu_s", cpu, factor)
	m.set("peak_rss_mb", peakRSSMB())
	m.facts["host_factor_setup"], m.facts["host_factor"] = setupFactor, factor
	m.facts["job_s_samples"] = job
	batchFacts(m, in, last.stats)
	return m, jobs.attempted, jobs.failed, nil
}

// batchFacts records the sizes and deterministic counts of the workload,
// which must repeat exactly for a seed.
func batchFacts(m *measured, in *inputs, st core.Stats) {
	m.facts["vertices"] = in.g.n
	m.facts["edge_records"] = len(in.g.edges)
	m.facts["edge_bytes"] = int64(len(in.g.edges)) * 12
	m.facts["graph_checksum"] = fmt.Sprintf("%016x", in.g.checksum)
	m.facts["engine"] = st.Engine
	m.facts["partitioner"] = st.Partitioner
	m.facts["partitions"] = st.Partitions
	m.facts["iterations"] = st.Iterations
	m.facts["edges_streamed"] = st.EdgesStreamed
	m.facts["updates_sent"] = st.UpdatesSent
	// Combining depends on thread scheduling, and with it the update
	// bytes the disk engine writes and reads back: close, not identical.
	m.facts["bytes_read"] = st.BytesRead
	m.facts["bytes_written"] = st.BytesWritten
}
