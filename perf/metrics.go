package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef names one metric the benchmark reports. The tables below are
// the source of truth; BENCHMARK.json repeats them for the driver and
// perf_test.go pins that the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd are the metrics a user of the system sees. Every workload
// emits every one of them from the untraced run. There are deliberately
// no reciprocal pairs: a throughput that is 1/job_s would double the
// exposure to the same noise. The timing bounds are the widest the driver
// allows because the sandbox leaves no room for less: with every measure
// in the README taken, ten-seed spreads of 6-18 % remain on a busy host.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_s", "s", "lower", 0.25},
	{"prep_s", "s", "lower", 0.25},
	{"iterate_s", "s", "lower", 0.25},
	{"job_cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run; layer = module
// name. A metric whose layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"graphgen.gen_s", "s", "lower", 0},
	{"graphio.write_edges_s", "s", "lower", 0},
	{"graphio.open_s", "s", "lower", 0},
	{"graphio.stream_edges_medges_per_s", "Medges/s", "higher", 0},
	{"graphio.parse_text_medges_per_s", "Medges/s", "higher", 0},
	{"refalgo.reference_s", "s", "lower", 0},
	{"partition2ps.assign_s", "s", "lower", 0},
	{"partition2ps.cross_edge_share", "share", "lower", 0},
	{"streambuf.shuffle_mrec_per_s", "Mrec/s", "higher", 0},
	{"core.transport_mrec_per_s", "Mrec/s", "higher", 0},
	{"core.transport_bytes", "bytes", "lower", 0},
	{"core.transport_batches", "count", "lower", 0},
	{"core.updates_sent", "count", "lower", 0},
	{"core.combined_share", "share", "higher", 0},
	{"core.cross_share", "share", "lower", 0},
	{"tilecodec.encode_mb_per_s", "MB/s", "higher", 0},
	{"tilecodec.decode_mb_per_s", "MB/s", "higher", 0},
	{"tilecodec.ratio", "share", "lower", 0},
	{"storage.read_mb", "MB", "lower", 0},
	{"storage.write_mb", "MB", "lower", 0},
	{"storage.read_calls", "count", "lower", 0},
	{"storage.write_calls", "count", "lower", 0},
	{"storage.read_busy_s", "s", "lower", 0},
	{"storage.write_busy_s", "s", "lower", 0},
	{"storage.seq_read_share", "share", "higher", 0},
	{"storage.model_busy_s", "s", "lower", 0},
	{"storage.resident_mb", "MB", "lower", 0},
	{"memengine.prepare_s", "s", "lower", 0},
	{"memengine.scatter_s", "s", "lower", 0},
	{"memengine.shuffle_s", "s", "lower", 0},
	{"memengine.gather_s", "s", "lower", 0},
	{"memengine.other_s", "s", "lower", 0},
	{"memengine.iterate_medges_per_s", "Medges/s", "higher", 0},
	{"memengine.stream_bw_share", "share", "higher", 0},
	{"memengine.erased_over_typed", "ratio", "lower", 0},
	{"diskengine.prepare_s", "s", "lower", 0},
	{"diskengine.scatter_s", "s", "lower", 0},
	{"diskengine.gather_s", "s", "lower", 0},
	{"diskengine.other_s", "s", "lower", 0},
	{"diskengine.iterate_medges_per_s", "Medges/s", "higher", 0},
	{"diskengine.iter_overhead_ms", "ms", "lower", 0},
	{"diskengine.partitions", "count", "lower", 0},
	{"diskengine.edges_streamed", "count", "lower", 0},
	{"diskengine.skipped_share", "share", "higher", 0},
	{"diskengine.checksummed_mb", "MB", "lower", 0},
	{"algorithms.result_render_s", "s", "lower", 0},
	{"dataset.build_s", "s", "lower", 0},
	{"dataset.resident_mb", "MB", "lower", 0},
	{"jobs.throughput_per_s", "1/s", "higher", 0},
	{"jobs.queue_wait_p50_ms", "ms", "lower", 0},
	{"jobs.run_p50_ms", "ms", "lower", 0},
	{"jobs.latency_p95_s", "s", "lower", 0},
	{"jobs.batch_size_mean", "count", "higher", 0},
	{"jobs.edges_shared_share", "share", "higher", 0},
	{"jobs.cache_hit_share", "share", "higher", 0},
	{"jobs.cache_hit_latency_ms", "ms", "lower", 0},
	{"jobs.http_submit_ms", "ms", "lower", 0},
	{"jobs.http_result_ms", "ms", "lower", 0},
	{"jobs.rejected", "count", "lower", 0},
	{"jobs.retried", "count", "lower", 0},
	{"obs.trace_overhead_share", "share", "lower", 0},
	{"obs.spans", "count", "lower", 0},
	{"membench.stream_read_gb_per_s", "GB/s", "higher", 0},
	{"perf.verify_s", "s", "lower", 0},
	{"perf.traced_job_s", "s", "lower", 0},
	{"perf.self_time_cover", "share", "higher", 0},
	{"proc.alloc_mb_per_job", "MB", "lower", 0},
	{"proc.gc_cycles_per_job", "count", "lower", 0},
	{"proc.gc_pause_ms_per_job", "ms", "lower", 0},
	{"proc.sys_cpu_share", "share", "lower", 0},
	{"proc.threads", "count", "lower", 0},
}

// value is one reported number with its unit, as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is one run as appended to the -report file: the result plus what
// is needed to read it later — which workload and seed, how many samples
// stand behind each median, and the host the numbers were taken on.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Size     string         `json:"size"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Samples  map[string]int `json:"samples"`
	Facts    map[string]any `json:"facts"`
	Host     hostFacts      `json:"host"`
	result
}

// measured collects a run's numbers before they are checked against the
// metric tables and printed.
type measured struct {
	values  map[string]float64
	samples map[string]int // observations behind a median
	facts   map[string]any // sizes, deterministic counts and unscaled timings, for the report
}

func newMeasured() *measured {
	return &measured{values: map[string]float64{}, samples: map[string]int{}, facts: map[string]any{}}
}

func (m *measured) set(name string, v float64) { m.values[name] = v }

// setMedian records the median of xs under name with its sample count.
func (m *measured) setMedian(name string, xs []float64) {
	m.values[name], m.samples[name] = median(xs), len(xs)
}

// metricsFor builds the metrics object for the given table: every metric
// of the table is present (an unmeasured layer reads 0) and nothing else
// is. A measured value whose name is in no table is a programming error.
func (m *measured) metricsFor(defs []metricDef) (map[string]value, error) {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for name := range m.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is in neither metric table", name)
		}
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out, nil
}

// printMetrics writes every metric as "name value unit", with the sample
// count behind a summarised value, in table order.
func printMetrics(w io.Writer, defs []metricDef, metrics map[string]value, samples map[string]int) {
	for _, d := range defs {
		v := metrics[d.Name]
		line := fmt.Sprintf("%-36s %14.6g %s", d.Name, v.Value, v.Unit)
		if n := samples[d.Name]; n > 0 {
			line += fmt.Sprintf("  (median of n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
}

// appendReport appends r as one JSON line to path.
func appendReport(path string, r report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver's spread check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
