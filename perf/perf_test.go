package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// benchmarkJSON mirrors the keys the driver's contract fixes for
// ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTablesAgreeWithBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has a key the contract does not allow: %q", k)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"perf"}) {
		t.Errorf("paths = %v, want [perf]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, outside 1..60", b.RunSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads = %v, the program runs %v", names, workloads)
	}

	seen := map[string]bool{}
	check := func(name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better = %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		check(d.Name, d.Unit, d.Better)
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(b.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		check(d.Name, d.Unit, d.Better)
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(ten, 95); math.Abs(got-9.55) > 1e-12 {
		t.Errorf("p95 of 1..10 = %g, want 9.55", got)
	}
	if got := percentile(ten, 100); got != 10 {
		t.Errorf("p100 of 1..10 = %g, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles(range(1, 6), n=4) == [1.5, 3.0, 4.5].
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{5, 4, 3, 2, 1}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %g, %g, want 1.5, 4.5", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsDurationMinusSameTrackChildren(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := newTracer(7)
	tr.spans = []span{
		{ID: 1, Parent: 0, Job: 7, Name: "job", Start: at(0), Dur: ms(100)},
		{ID: 2, Parent: 1, Job: 7, Name: "engine", Start: at(10), Dur: ms(80)},
	}
	// The engine reports its spans flat; adopt must nest them by time
	// under the benchmark's own "engine" span.
	tr.adopt(2, []obs.Event{
		{Track: 0, Name: "scatter", Start: at(30), Dur: ms(20)},
		{Track: 0, Name: "run", Start: at(12), Dur: ms(70)},
		{Track: 1, Name: "partition", Start: at(31), Dur: ms(18)},
		{Track: 0, Name: "iteration", Start: at(25), Dur: ms(50)},
		{Track: 0, Name: "gather", Start: at(55), Dur: ms(15)},
	})
	parent := map[string]string{}
	byID := map[int]string{0: "root"}
	for _, s := range tr.spans {
		byID[s.ID] = s.Name
	}
	for _, s := range tr.spans {
		parent[s.Name] = byID[s.Parent]
		if s.Job != 7 {
			t.Errorf("span %s carries job %d, want 7", s.Name, s.Job)
		}
	}
	want := map[string]string{"job": "root", "engine": "job", "run": "engine",
		"iteration": "run", "scatter": "iteration", "gather": "iteration", "partition": "scatter"}
	if !reflect.DeepEqual(parent, want) {
		t.Errorf("parents = %v, want %v", parent, want)
	}
	self := selfTimes(tr.spans)
	wantSelf := map[string]time.Duration{
		"job": ms(20), "engine": ms(10), "run": ms(20), "iteration": ms(15),
		"scatter": ms(20), // the partition span runs on a worker track
		"gather":  ms(15),
	}
	if !reflect.DeepEqual(self, wantSelf) {
		t.Errorf("self times = %v, want %v", self, wantSelf)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, want the job's 100ms", sum)
	}
}

func TestNilTracerRunsTheFunction(t *testing.T) {
	var tr *tracer
	ran := false
	tr.span(0, 0, "x", func(id int) { ran = id == 0 })
	if !ran {
		t.Error("a nil tracer must still run the function, with span ID 0")
	}
}

func TestCountingDevice(t *testing.T) {
	dev := newCountingDevice(storage.NewSim(storage.SSDParams("t", 2, 0)))
	f, err := dev.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 1000), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 500), 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 200), 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	g, err := dev.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(make([]byte, 300), 0); err != nil {
		t.Fatal(err)
	}
	c := dev.counts()
	if c.writeCalls != 3 || c.writeBytes != 1800 || c.readCalls != 1 || c.readBytes != 200 {
		t.Errorf("counts = %+v, want 3 writes of 1800 bytes and 1 read of 200", c)
	}
	if c.peakBytes != 1500 {
		t.Errorf("peak file bytes = %d, want 1500 (before the truncate)", c.peakBytes)
	}
	if err := dev.Remove("a"); err != nil {
		t.Fatal(err)
	}
	dev.reset()
	if c := dev.counts(); c.writeCalls != 0 || c.peakBytes != 300 {
		t.Errorf("after reset: %+v, want no calls and the peak restarted at the 300 bytes held", c)
	}
}

// deterministic are the facts of a batch run that must repeat exactly for
// a seed; combining — and with it update volume — depends on scheduling.
var deterministic = []string{"graph_checksum", "vertices", "edge_records", "iterations", "edges_streamed", "updates_sent", "partitions"}

func TestSameSeedSameGraphAndCounts(t *testing.T) {
	sz, err := sizesFor("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range batchWorkloads {
		facts := func(seed int64) map[string]any {
			in, err := w.setup(nil, sz, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			out, err := w.exec(&jobCtx{in: in, sz: sz, dev: in.dev})
			if err != nil || out.wrong != nil {
				t.Fatalf("%s seed %d: err %v, wrong %v", name, seed, err, out.wrong)
			}
			m := newMeasured()
			batchFacts(m, in, out.stats)
			return m.facts
		}
		a, again, other := facts(1), facts(1), facts(2)
		for _, k := range deterministic {
			if a[k] != again[k] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v and %v", name, k, a[k], again[k])
			}
		}
		if a["graph_checksum"] == other["graph_checksum"] {
			t.Errorf("%s: seeds 1 and 2 made the same graph", name)
		}
	}
}

func TestHostFactorScalesToTheNominalProbeTime(t *testing.T) {
	p := &hostProbe{}
	if f := p.factor(); f != 1 {
		t.Errorf("factor with no probe run = %g, want 1", f)
	}
	p.samples = []float64{2 * probeNominal, 4 * probeNominal, 2 * probeNominal}
	if f := p.factor(); f != 0.5 {
		t.Errorf("factor of a host twice as slow as nominal = %g, want 0.5", f)
	}
	if len(p.samples) != 0 {
		t.Error("factor must forget the samples it used")
	}
	m := newMeasured()
	setScaledMedian(m, "job_s", []float64{3, 1, 2}, 0.5)
	if m.values["job_s"] != 1 || m.facts["raw_job_s"] != 2.0 || m.samples["job_s"] != 3 {
		t.Errorf("scaled median = %v (raw %v, n=%d), want 1 (raw 2, n=3)", m.values["job_s"], m.facts["raw_job_s"], m.samples["job_s"])
	}
}

func TestSmokeRunOfEveryWorkload(t *testing.T) {
	start := time.Now()
	sz, err := sizesFor("smoke")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloads {
		o := runOpts{workload: w, seed: 3, seconds: 0.3, sz: sz, outDir: out}
		rep, err := run(o, false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics in the untraced run, want the %d end-to-end ones", w, len(rep.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := rep.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w, d.Name, v, d.Unit)
			}
		}

		rep, err = run(o, true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", w, rep.Correct, rep.Failed)
		}
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics in the traced run, want the %d per-layer ones", w, len(rep.Metrics), len(perLayer))
		}
		if cover := rep.Metrics["perf.self_time_cover"].Value; w != "serve_mix" && (cover < 0.9 || cover > 1.0001) {
			t.Errorf("%s: layer self times cover %.3f of the traced job, want within a tenth of it", w, cover)
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		raw, err := os.ReadFile(filepath.Join(out, w+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not load as Chrome trace JSON: %v (%d events)", w, err, len(trace.TraceEvents))
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke pass took %v, want under 10s", d)
	}
}

func TestWrongResultCountsAsFailed(t *testing.T) {
	sz, err := sizesFor("smoke")
	if err != nil {
		t.Fatal(err)
	}
	w := batchWorkloads["mem_pagerank"]
	in, err := w.setup(nil, sz, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.refRanks[5] *= 1.01
	out, err := w.exec(&jobCtx{in: in, sz: sz, dev: in.dev})
	if err != nil {
		t.Fatal(err)
	}
	if out.wrong == nil {
		t.Error("a rank 1% off its reference passed the correctness gate")
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(w string, jobS ...float64) map[string][]report {
		var rs []report
		for _, v := range jobS {
			m := map[string]value{}
			for _, d := range endToEnd {
				m[d.Name] = value{1, d.Unit}
			}
			m["job_s"] = value{v, "s"}
			rs = append(rs, report{Workload: w, result: result{Correct: true, Attempted: 1, Metrics: m}})
		}
		return map[string][]report{w: rs}
	}
	verdict := func(a, b map[string][]report) string {
		for _, c := range compareSets(a, b) {
			if c.metric == "job_s" {
				return c.verdict
			}
		}
		return "missing"
	}
	steady := set("mem_pagerank", 1.00, 1.01, 0.99, 1.00, 1.02)
	if v := verdict(steady, set("mem_pagerank", 1.03, 1.02, 1.04, 1.03, 1.05)); v != "PASS" {
		t.Errorf("3%% worse with 2%% spread: %s, want PASS", v)
	}
	if v := verdict(steady, set("mem_pagerank", 1.30, 1.31, 1.29, 1.30, 1.32)); v != "FAIL" {
		t.Errorf("30%% worse: %s, want FAIL", v)
	}
	if v := verdict(steady, set("mem_pagerank", 0.80, 1.25, 1.00, 0.70, 1.30)); v != "UNRESOLVED" {
		t.Errorf("equal medians with a 50%% spread: %s, want UNRESOLVED", v)
	}
	failed := set("mem_pagerank", 1.00, 1.00, 1.00)
	failed["mem_pagerank"][0].Failed = 1
	if v := verdict(steady, failed); v != "FAIL" {
		t.Errorf("a set with a failed job: %s, want FAIL", v)
	}
}
