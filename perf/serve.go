package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/refalgo"
)

// serve_mix drives the serving stack in process — dataset registry, job
// scheduler, HTTP handler — with a closed loop: each client posts a burst
// of jobs, waits for them, and fetches the first page of each result
// before posting again, so a slower server receives less load.
//
// The unit of repetition is a round: every request of the catalog once and
// every hot request hotRepeats times, dealt to the clients burst by burst
// in an order the seed draws afresh for each round. Every round submits the
// same requests, so rounds compare like the repetitions of a batch job,
// while a run's median is over many orders: the order decides which jobs
// share a pass, and a single order moved job_s by 15 % between seeds.
const (
	serveClients = 2
	serveBurst   = 4
	datasetSeed  = 1    // of the two graphs and the root pool, whatever the run's seed
	hotRepeats   = 3    // times a hot request appears in a round; a cold one appears once
	resultPage   = 4096 // entries of the result page a client fetches
)

// catalogEntry is one request the mix can submit, with the check of its
// result against the reference computed in set-up.
type catalogEntry struct {
	req    jobs.Request
	verify func(payload map[string]any) error
}

// serveInputs is what one serve_mix set-up leaves behind.
type serveInputs struct {
	web, social *graph
	reg         *dataset.Registry
	catalog     []catalogEntry
	hot, cold   []int      // catalog indices
	rng         *rand.Rand // draws each round's order
}

func setupServe(tr *tracer, sz sizes, seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	var err error
	tr.span(0, 0, "graphgen.gen", func(int) {
		if in.web, err = genRMAT(sz.webScale, datasetSeed, false); err == nil {
			in.social, err = genRMAT(sz.socialScale, datasetSeed+1, true)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	tr.span(0, 0, "dataset.build", func(int) {
		in.reg = dataset.NewRegistry()
		for _, d := range []struct {
			name       string
			g          *graph
			undirected bool
		}{{"web", in.web, false}, {"social", in.social, true}} {
			var ds *dataset.Dataset
			if ds, err = in.reg.Add(d.name, d.g.source(), dataset.Options{Threads: threads, Undirected: d.undirected}); err != nil {
				return
			}
			if _, err = ds.Mem(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("register datasets: %w", err)
	}
	tr.span(0, 0, "refalgo.reference", func(int) { in.buildCatalog(sz, seed) })
	return in, nil
}

// buildCatalog lists every request the mix can make with its reference and
// marks the hot ones. The datasets and the roots are the
// same for every seed, so that every seed's round is the same amount of
// work — a traversal's cost depends on its root, and rounds that differed
// by it moved job_s by 17 % between seeds. The seed decides which requests
// are hot (per dataset the 5-iteration pagerank, two bfs roots and one sssp
// root) and the order of each round.
func (in *serveInputs) buildCatalog(sz sizes, seed int64) {
	fixed := rand.New(rand.NewSource(datasetSeed))
	in.rng = rand.New(rand.NewSource(seed))
	add := func(isHot bool, ds, algo string, p algorithms.Params, verify func(map[string]any) error) {
		if isHot {
			in.hot = append(in.hot, len(in.catalog))
		} else {
			in.cold = append(in.cold, len(in.catalog))
		}
		in.catalog = append(in.catalog, catalogEntry{jobs.Request{Dataset: ds, Algo: algo, Params: p}, verify})
	}
	// hotOf marks n of count positions, chosen by the seed.
	hotOf := func(count, n int) map[int]bool {
		marks := map[int]bool{}
		for _, i := range in.rng.Perm(count)[:min(n, count)] {
			marks[i] = true
		}
		return marks
	}
	for _, d := range []struct {
		name string
		g    *graph
	}{{"web", in.web}, {"social", in.social}} {
		g := d.g
		for _, iters := range []int{3, 5, 8} {
			ref := refalgo.PageRank(g.n, g.edges, iters)
			add(iters == 5, d.name, "pagerank", algorithms.Params{Iters: iters}, func(p map[string]any) error {
				return verifyRanks(p["ranks"].([]float32), ref)
			})
		}
		roots := pickRoots(g, fixed, sz.bfsRoots+sz.ssspRoots)
		hotBFS, hotSSSP := hotOf(sz.bfsRoots, 2), hotOf(sz.ssspRoots, 1)
		for i, root := range roots {
			if i < sz.bfsRoots {
				ref := refalgo.BFSLevels(g.n, g.edges, root)
				add(hotBFS[i], d.name, "bfs", algorithms.Params{Root: root}, func(p map[string]any) error {
					return verifyLevels(p["levels"].([]int32), ref)
				})
				continue
			}
			ref := refalgo.Dijkstra(g.n, g.edges, root)
			add(hotSSSP[i-sz.bfsRoots], d.name, "sssp", algorithms.Params{Root: root}, func(p map[string]any) error {
				return verifyDistances(p["distances"].([]float32), ref)
			})
		}
	}
	ref := refalgo.Components(in.social.n, in.social.edges)
	add(false, "social", "wcc", algorithms.Params{}, func(p map[string]any) error {
		return verifyLabels(p["labels"].([]core.VertexID), ref)
	})
}

// layout draws the next round: its requests in a fresh order, dealt to the
// clients burst by burst.
func (in *serveInputs) layout() (schedule [serveClients][][]int) {
	round := append(append([]int(nil), in.cold...), in.hot...)
	for r := 1; r < hotRepeats; r++ {
		round = append(round, in.hot...)
	}
	in.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	for b := 0; len(round) > 0; b++ {
		n := min(serveBurst, len(round))
		schedule[b%serveClients] = append(schedule[b%serveClients], round[:n])
		round = round[n:]
	}
	return schedule
}

// jobSample is one job as its client saw it.
type jobSample struct {
	latency  float64 // submit start to result page fetched, seconds
	submit   float64 // POST /jobs, seconds
	fetch    float64 // GET /jobs/{id}/result, seconds
	cached   bool
	info     jobs.Info
	shuffle  time.Duration
	gather   time.Duration
	failed   bool
	rejected bool
}

// server is the stack under test plus what the load generator needs.
type server struct {
	in      *serveInputs
	sched   *jobs.Scheduler
	handler http.Handler
}

func newServer(in *serveInputs) *server {
	// Room for about half the catalog's results: a hot request's repeat
	// finds it cached, a cold request's next round does not.
	cacheBytes := int64(len(in.catalog)/2) * in.web.n * 4
	sched := jobs.New(in.reg, jobs.Config{
		// One batch runner: a pass already uses both threads, and with a
		// single runner the other client's burst queues behind it and
		// batches into a shared pass, which is what this workload is for.
		Workers:          1,
		ResultCacheBytes: cacheBytes,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	return &server{in: in, sched: sched, handler: jobs.NewHandler(sched)}
}

// close stops the scheduler, then the registry it serves.
func (s *server) close() {
	s.sched.Close()
	s.in.reg.Close()
}

// do serves one request in process and returns the status and body.
func (s *server) do(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// playRound runs one round of the closed loop: each client works through
// its bursts, posting the next only when the previous is collected. Client
// c's spans go on track 1+c.
func (s *server) playRound(tr *tracer) []jobSample {
	schedule := s.in.layout()
	var mu sync.Mutex
	var all []jobSample
	var wg sync.WaitGroup
	for c := range schedule {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []jobSample
			for _, burst := range schedule[c] {
				tr.span(0, 1+c, "burst", func(id int) { mine = append(mine, s.burst(tr, id, 1+c, burst)...) })
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// burst posts the given requests, waits for each, fetches each result
// page, and only then — outside every job's latency — verifies the results.
func (s *server) burst(tr *tracer, parent, track int, requests []int) []jobSample {
	type inflight struct {
		entry catalogEntry
		id    string
		start time.Time
		jobSample
	}
	fl := make([]inflight, len(requests))
	for i := range fl {
		f := &fl[i]
		f.entry = s.in.catalog[requests[i]]
		body, _ := json.Marshal(f.entry.req) // a struct of strings and ints: cannot fail
		f.start = time.Now()
		tr.span(parent, track, "jobs.http_submit", func(int) {
			code, resp := s.do(http.MethodPost, "/jobs", body)
			var accepted struct{ ID string }
			if code != http.StatusAccepted || json.Unmarshal(resp, &accepted) != nil {
				f.failed, f.rejected = true, true
				return
			}
			f.id = accepted.ID
		})
		f.submit = time.Since(f.start).Seconds()
	}
	for i := range fl {
		f := &fl[i]
		if f.rejected {
			continue
		}
		tr.span(parent, track, "jobs.wait", func(int) {
			info, err := s.sched.Wait(context.Background(), f.id)
			f.info, f.cached = info, info.Cached
			f.failed = err != nil || info.Status != jobs.StatusDone
		})
		if f.failed {
			continue
		}
		t := time.Now()
		tr.span(parent, track, "jobs.http_result", func(int) {
			code, _ := s.do(http.MethodGet, fmt.Sprintf("/jobs/%s/result?limit=%d", f.id, resultPage), nil)
			f.failed = code != http.StatusOK
		})
		f.fetch = time.Since(t).Seconds()
		f.latency = time.Since(f.start).Seconds()
	}
	out := make([]jobSample, len(fl))
	for i := range fl {
		f := &fl[i]
		if !f.failed {
			tr.span(parent, track, "perf.verify", func(int) {
				payload, _, stats, err := s.sched.Result(f.id)
				if err == nil {
					err = f.entry.verify(payload.(map[string]any))
				}
				if err != nil {
					f.failed = true
					fmt.Printf("# WRONG RESULT: job %s (%s on %s): %v\n", f.id, f.entry.req.Algo, f.entry.req.Dataset, err)
					return
				}
				f.shuffle, f.gather = stats.ShuffleTime, stats.GatherTime
			})
		}
		out[i] = f.jobSample
	}
	return out
}

// serveRun is a stretch of the closed loop — one round, or several merged
// — and what the scheduler counted in it.
type serveRun struct {
	samples []jobSample
	seconds float64
	cpu     cpuTimes
	before  jobs.Metrics
	after   jobs.Metrics
}

// round plays one round and measures it, after a collection and (in the
// end-to-end run) a host probe outside the measured interval.
func (s *server) round(tr *tracer, probe *hostProbe) serveRun {
	runtime.GC()
	if probe != nil {
		probe.run()
	}
	r := serveRun{before: s.sched.Metrics()}
	cpu0, t := cpuNow(), time.Now()
	r.samples = s.playRound(tr)
	r.seconds, r.cpu = time.Since(t).Seconds(), cpuNow().sub(cpu0)
	r.after = s.sched.Metrics()
	return r
}

// rounds plays rounds for d, at least minRounds of them.
func (s *server) rounds(tr *tracer, probe *hostProbe, d time.Duration, minRounds int) []serveRun {
	var out []serveRun
	for start := time.Now(); len(out) < minRounds || time.Since(start) < d; {
		out = append(out, s.round(tr, probe))
	}
	return out
}

// merge joins consecutive rounds into one stretch.
func merge(rounds []serveRun) serveRun {
	all := serveRun{before: rounds[0].before, after: rounds[len(rounds)-1].after}
	for _, r := range rounds {
		all.samples = append(all.samples, r.samples...)
		all.seconds += r.seconds
		all.cpu.user += r.cpu.user
		all.cpu.sys += r.cpu.sys
	}
	return all
}

// pick collects f over the samples that pass keep.
func pick(samples []jobSample, keep func(jobSample) bool, f func(jobSample) float64) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, f(s))
		}
	}
	return out
}

// count is how many samples pass keep.
func count(samples []jobSample, keep func(jobSample) bool) int {
	n := 0
	for _, s := range samples {
		if keep(s) {
			n++
		}
	}
	return n
}

func computed(s jobSample) bool { return !s.failed && !s.cached }
func hit(s jobSample) bool      { return !s.failed && s.cached }
func done(s jobSample) bool     { return !s.failed }

func (r serveRun) failed() int {
	return len(r.samples) - count(r.samples, done)
}

// endToEnd returns the user-visible timings of one round: latency, queue
// wait and run time as means over the round's computed jobs (cache hits
// finish at submit), CPU per completed job. Means, because a round is a
// fixed set of jobs: their sum is what the round cost, whereas a median
// jumps with which kind of job happens to sit in the middle.
func (r serveRun) endToEnd() (job, prep, iterate, cpu float64) {
	job = mean(pick(r.samples, computed, func(s jobSample) float64 { return s.latency }))
	prep = mean(pick(r.samples, computed, func(s jobSample) float64 { return s.info.QueueWaitSeconds }))
	iterate = mean(pick(r.samples, computed, func(s jobSample) float64 { return s.info.RunSeconds }))
	cpu = ratio(r.cpu.total().Seconds(), float64(len(r.samples)-r.failed()))
	return
}

// roundMedians fills the end-to-end timings with the median over the
// rounds — each round one repetition of the same work — scaled by the host
// factor.
func roundMedians(m *measured, rounds []serveRun, factor float64) {
	var job, prep, iterate, cpu []float64
	for _, r := range rounds {
		j, p, i, c := r.endToEnd()
		job, prep, iterate, cpu = append(job, j), append(prep, p), append(iterate, i), append(cpu, c)
	}
	setScaledMedian(m, "job_s", job, factor)
	setScaledMedian(m, "prep_s", prep, factor)
	setScaledMedian(m, "iterate_s", iterate, factor)
	setScaledMedian(m, "job_cpu_s", cpu, factor)
}

// layers fills the serving stack's per-layer metrics of a stretch.
func (r serveRun) layers(m *measured) {
	ms := func(keep func(jobSample) bool, f func(jobSample) float64) []float64 {
		xs := pick(r.samples, keep, f)
		for i := range xs {
			xs[i] *= 1e3
		}
		return xs
	}
	completed := float64(len(r.samples) - r.failed())
	m.set("jobs.throughput_per_s", ratio(completed, r.seconds))
	m.setMedian("jobs.queue_wait_p50_ms", ms(computed, func(s jobSample) float64 { return s.info.QueueWaitSeconds }))
	m.setMedian("jobs.run_p50_ms", ms(computed, func(s jobSample) float64 { return s.info.RunSeconds }))
	m.set("jobs.latency_p95_s", percentile(pick(r.samples, done, func(s jobSample) float64 { return s.latency }), 95))
	m.set("jobs.cache_hit_share", ratio(float64(count(r.samples, hit)), completed))
	m.setMedian("jobs.cache_hit_latency_ms", ms(hit, func(s jobSample) float64 { return s.latency }))
	m.setMedian("jobs.http_submit_ms", ms(done, func(s jobSample) float64 { return s.submit }))
	m.setMedian("jobs.http_result_ms", ms(done, func(s jobSample) float64 { return s.fetch }))
	m.set("jobs.rejected", float64(count(r.samples, func(s jobSample) bool { return s.rejected })))

	a, b := r.after, r.before
	m.set("jobs.batch_size_mean", ratio(float64(a.BatchedJobs-b.BatchedJobs), float64(a.Batches-b.Batches)))
	streamed, shared := float64(a.EdgesStreamed-b.EdgesStreamed), float64(a.EdgesShared-b.EdgesShared)
	m.set("jobs.edges_shared_share", ratio(shared, shared+streamed))
	m.set("jobs.retried", float64(a.RetriedJobs-b.RetriedJobs))
	m.set("dataset.resident_mb", float64(a.Datasets.ResidentBytes)/1e6)

	// The in-memory engine as the scheduler's jobs saw it: mean seconds per
	// computed job of the phases a job owns (scatter belongs to the shared
	// pass), and edge records streamed per second of the stretch (each
	// shared pass counts its stream once).
	perJob := func(f func(jobSample) time.Duration) float64 {
		return mean(pick(r.samples, computed, func(s jobSample) float64 { return f(s).Seconds() }))
	}
	m.set("memengine.shuffle_s", perJob(func(s jobSample) time.Duration { return s.shuffle }))
	m.set("memengine.gather_s", perJob(func(s jobSample) time.Duration { return s.gather }))
	m.set("memengine.iterate_medges_per_s", ratio(streamed/1e6, r.seconds))
}

func serveFacts(m *measured, in *serveInputs, r serveRun) {
	m.facts["web_vertices"], m.facts["web_edge_records"] = in.web.n, len(in.web.edges)
	m.facts["social_vertices"], m.facts["social_edge_records"] = in.social.n, len(in.social.edges)
	m.facts["graph_checksum"] = fmt.Sprintf("%016x", in.web.checksum^in.social.checksum)
	m.facts["catalog"], m.facts["hot_set"] = len(in.catalog), len(in.hot)
	m.facts["clients"], m.facts["burst"] = serveClients, serveBurst
	m.facts["jobs"], m.facts["measured_s"] = len(r.samples), r.seconds
}

// runServe is the untraced, end-to-end run of serve_mix.
func runServe(o runOpts) (*measured, int, int, error) {
	probe := newHostProbe()
	var prev *serveInputs
	in, setupTimes, err := setupRepeated(o.sz, probe, func() (*serveInputs, error) {
		if prev != nil {
			prev.reg.Close()
		}
		in, err := setupServe(nil, o.sz, o.seed)
		prev = in
		return in, err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	m := newMeasured()
	setupFactor := probe.factor()
	setScaledMedian(m, "setup_s", setupTimes, setupFactor)
	srv := newServer(in)
	defer srv.close()
	warm := srv.round(nil, nil) // fills the cache to its steady state, builds lazy state
	rounds := srv.rounds(nil, probe, time.Duration(o.seconds*float64(time.Second)), o.sz.minReps)
	factor := probe.factor()
	roundMedians(m, rounds, factor)
	m.set("peak_rss_mb", peakRSSMB())
	m.facts["host_factor_setup"], m.facts["host_factor"] = setupFactor, factor
	all := merge(rounds)
	m.facts["rounds"] = len(rounds)
	serveFacts(m, in, all)
	return m, len(warm.samples) + len(all.samples), warm.failed() + all.failed(), nil
}

// traceServe is the traced run of serve_mix: after the warm-up round, half
// the time untraced and half with a span around every submit, wait, fetch
// and verify of every job; the difference is the tracing overhead.
func traceServe(o runOpts) (*measured, int, int, error) {
	m := newMeasured()
	setupTr := newTracer(0)
	in, err := setupServe(setupTr, o.sz, o.seed)
	if err != nil {
		return nil, 0, 0, err
	}
	self := selfTimes(setupTr.spans)
	m.set("graphgen.gen_s", self["graphgen.gen"].Seconds())
	m.set("dataset.build_s", self["dataset.build"].Seconds())
	m.set("memengine.prepare_s", self["dataset.build"].Seconds())
	m.set("refalgo.reference_s", self["refalgo.reference"].Seconds())

	srv := newServer(in)
	defer srv.close()
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	warm := srv.round(nil, nil)
	untraced := merge(srv.rounds(nil, nil, half, 1))
	tr := newTracer(1)
	mark := markProc()
	traced := merge(srv.rounds(tr, nil, half, 1))
	mark.since(m)
	// proc.* are per job everywhere; the stretch's growth is over its jobs.
	for _, name := range []string{"proc.alloc_mb_per_job", "proc.gc_cycles_per_job", "proc.gc_pause_ms_per_job"} {
		m.set(name, ratio(m.values[name], float64(len(traced.samples))))
	}
	traced.layers(m)
	plainJob, _, _, _ := untraced.endToEnd()
	tracedJob, _, _, _ := traced.endToEnd()
	m.set("perf.traced_job_s", tracedJob)
	m.set("obs.trace_overhead_share", ratio(tracedJob, plainJob)-1)
	m.set("obs.spans", float64(len(tr.spans)))
	measureStream(m, o.sz)
	if err := measureLayers(m, in.web, o.sz); err != nil {
		return nil, 0, 0, err
	}
	path, err := writeTrace(o.outDir, "serve_mix", append(setupTr.spans, tr.spans...))
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("# trace: %s (%d spans; open in ui.perfetto.dev)\n", path, len(tr.spans))
	serveFacts(m, in, traced)
	attempted := len(warm.samples) + len(untraced.samples) + len(traced.samples)
	return m, attempted, warm.failed() + untraced.failed() + traced.failed(), nil
}
