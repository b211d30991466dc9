package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/memengine"
	"repro/internal/obs"
)

// traceBatch is the traced run of a batch workload: one set-up and one
// warm job, then one untraced and one traced job of the same input. The
// traced job records the benchmark's own spans around every call into a
// layer, the engine's phase and partition spans through Config.Tracer, and
// counts at the device boundary; self times fill the *_s layer metrics.
func traceBatch(w batchWorkload, o runOpts) (*measured, int, int, error) {
	m := newMeasured()
	setupTr := newTracer(0)
	in, err := w.setup(setupTr, o.sz, o.seed)
	if err != nil {
		return nil, 0, 0, err
	}
	setupSelf := selfTimes(setupTr.spans)
	m.set("graphgen.gen_s", setupSelf["graphgen.gen"].Seconds())
	m.set("graphio.write_edges_s", setupSelf["graphio.write_edges"].Seconds())
	m.set("refalgo.reference_s", setupSelf["refalgo.reference"].Seconds())

	var jobs tally
	run := func(c *jobCtx) (jobOut, error) {
		out, err := w.exec(c)
		if err == nil {
			jobs.add(out.wrong)
		}
		return out, err
	}
	plain := &jobCtx{in: in, sz: o.sz, dev: in.dev}
	if _, err := run(plain); err != nil { // warm-up
		return nil, 0, 0, err
	}
	runtime.GC()
	untraced, err := run(plain)
	if err != nil {
		return nil, 0, 0, err
	}

	dev := newCountingDevice(in.dev)
	in.dev.ResetStats()
	tr := newTracer(1)
	var traced jobOut
	runtime.GC()
	mark := markProc()
	tr.span(0, 0, "job", func(id int) {
		traced, err = run(&jobCtx{in: in, sz: o.sz, dev: dev, tr: tr, parent: id, rec: obs.NewRecorder()})
	})
	if err != nil {
		return nil, 0, 0, err
	}
	mark.since(m)
	jobDur := tr.spans[0].Dur

	engine := "diskengine"
	if w.name == "mem_pagerank" {
		engine = "memengine"
	}
	streamBPS := measureStream(m, o.sz)
	fillSelfTimes(m, engine, selfTimes(tr.spans), jobDur)
	fillEngineCounts(m, engine, traced, streamBPS)
	fillStorage(m, dev, in)
	m.set("obs.trace_overhead_share", ratio(traced.total().Seconds(), untraced.total().Seconds())-1)
	m.set("obs.spans", float64(len(tr.spans)))
	if w.name == "mem_pagerank" {
		r, err := erasedOverTyped(in, untraced)
		if err != nil {
			return nil, 0, 0, err
		}
		m.set("memengine.erased_over_typed", r)
	}
	if err := measureLayers(m, in.g, o.sz); err != nil {
		return nil, 0, 0, err
	}
	path, err := writeTrace(o.outDir, w.name, append(setupTr.spans, tr.spans...))
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("# trace: %s (%d spans; open in ui.perfetto.dev)\n", path, len(tr.spans))
	batchFacts(m, in, traced.stats)
	return m, jobs.attempted, jobs.failed, nil
}

// fillSelfTimes maps the traced job's span self times to layer metrics.
// Every span name of a batch job appears here, so the layers sum to the
// job's wall time less the job span's own self time.
func fillSelfTimes(m *measured, engine string, self map[string]time.Duration, job time.Duration) {
	sec := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return d.Seconds()
	}
	layers := map[string]float64{
		"graphio.open_s":             sec("graphio.open"),
		engine + ".prepare_s":        sec("preprocess", "diskengine.prepare"),
		engine + ".scatter_s":        sec("scatter", "partition"),
		engine + ".gather_s":         sec("gather"),
		engine + ".other_s":          sec("run", "iteration", "checkpoint", "memengine.run", "diskengine.run", "diskengine.close"),
		"algorithms.result_render_s": sec("algorithms.result"),
		"perf.verify_s":              sec("perf.verify"),
	}
	if engine == "memengine" {
		layers["memengine.shuffle_s"] = sec("shuffle")
	} else {
		layers[engine+".other_s"] += sec("shuffle")
	}
	var sum float64
	for name, v := range layers {
		m.set(name, v)
		sum += v
	}
	m.set("perf.traced_job_s", job.Seconds())
	m.set("perf.self_time_cover", ratio(sum, job.Seconds()))
}

// fillEngineCounts takes the counts the engine reported for the traced
// job: the update transport's traffic and the engine's streaming volume.
func fillEngineCounts(m *measured, engine string, out jobOut, streamBPS float64) {
	st := out.stats
	m.set("core.transport_bytes", float64(st.TransportBytes))
	m.set("core.transport_batches", float64(st.TransportBatches))
	m.set("core.updates_sent", float64(st.UpdatesSent))
	m.set("core.combined_share", st.CombinedFraction())
	m.set("core.cross_share", st.CrossFraction())
	iterate := out.iterate().Seconds()
	m.set(engine+".iterate_medges_per_s", ratio(float64(st.EdgesStreamed)/1e6, iterate))
	if engine == "memengine" {
		m.set("memengine.stream_bw_share", ratio(ratio(float64(st.BytesStreamed), iterate), streamBPS))
		return
	}
	m.set("diskengine.iter_overhead_ms", ratio(iterate*1e3, float64(st.Iterations)))
	m.set("diskengine.partitions", float64(st.Partitions))
	m.set("diskengine.edges_streamed", float64(st.EdgesStreamed))
	m.set("diskengine.skipped_share", st.SkippedFraction())
	m.set("diskengine.checksummed_mb", float64(st.BytesChecksummed)/1e6)
}

// fillStorage reports the device as seen from outside by the decorator,
// plus the simulated device's own model: the job's I/O time on the paper's
// SSD pair and how much of its reading was sequential.
func fillStorage(m *measured, dev *countingDevice, in *inputs) {
	c := dev.counts()
	m.set("storage.read_mb", float64(c.readBytes)/1e6)
	m.set("storage.write_mb", float64(c.writeBytes)/1e6)
	m.set("storage.read_calls", float64(c.readCalls))
	m.set("storage.write_calls", float64(c.writeCalls))
	m.set("storage.read_busy_s", c.readBusy.Seconds())
	m.set("storage.write_busy_s", c.writeBusy.Seconds())
	m.set("storage.resident_mb", float64(c.peakBytes)/1e6)
	model := in.dev.Stats()
	m.set("storage.seq_read_share", ratio(float64(model.SeqReads), float64(model.Reads)))
	m.set("storage.model_busy_s", model.Busy.Seconds())
}

// erasedOverTyped runs the job's PageRank through the type-erased RunJob
// path on the same input and returns its engine time over the typed
// run's: the measured precondition of the one-loop refactor.
func erasedOverTyped(in *inputs, typed jobOut) (float64, error) {
	src, err := graphio.OpenEdges(in.dev, inputFile)
	if err != nil {
		return 0, err
	}
	spec, _ := algorithms.ByName("pagerank")
	inst, err := spec.New(algorithms.Params{Iters: pagerankIter})
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t := time.Now()
	res, err := memengine.RunJob(context.Background(), src, inst.Job, memengine.Config{
		Threads: threads, Partitioner: core.RangePartitioner{}})
	if err != nil {
		return 0, err
	}
	erased := time.Since(t)
	ranks := inst.Result(res.Vertices).(map[string]any)["ranks"].([]float32)
	if err := verifyRanks(ranks, in.refRanks); err != nil {
		return 0, fmt.Errorf("type-erased run: %w", err)
	}
	return ratio(erased.Seconds(), typed.engine.Seconds()), nil
}
