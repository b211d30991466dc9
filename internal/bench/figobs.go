package bench

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
	"repro/internal/memengine"
	"repro/internal/obs"
)

// figobs prices the observability layer in work metrics: per-iteration
// profiling (Stats.Iters) is always on, and span tracing (core.Tracer) is
// an optional hook. Both must be free where it matters — the engines'
// deterministic work metrics. The workloads are dense PageRank on the
// in-memory engine and selective BFS on the out-of-core engine, each run
// untraced and traced.
//
// Three claims, each gated:
//   - tracing is work-free: the untraced and traced runs agree on every
//     deterministic work metric (asserted field-by-field via reflection —
//     a new Stats counter is covered automatically), and the untraced
//     numbers are pinned so the per-iteration bookkeeping itself cannot
//     drift the engines;
//   - the per-iteration profile is exact: each run's Iters work counters
//     sum to the cumulative Stats fields (asserted);
//   - the span stream is deterministic: a fixed workload emits a fixed
//     number of spans, pinned as a metric so tracer coverage cannot
//     silently shrink (or explode) with engine changes.
func init() {
	register("figobs", "Observability overhead: tracing changes no work metric, per-iteration profiles sum exactly", runFigObs)
}

// workMetrics flattens every deterministic numeric counter of a Stats via
// reflection — int/int64/float64 fields, excluding durations (wall time is
// never gated) and the Iters profile itself.
func workMetrics(s core.Stats) map[string]float64 {
	out := map[string]float64{}
	v := reflect.ValueOf(s)
	t := v.Type()
	durType := reflect.TypeOf(time.Duration(0))
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type == durType {
			continue
		}
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out[f.Name] = float64(fv.Int())
		case reflect.Float32, reflect.Float64:
			out[f.Name] = fv.Float()
		}
	}
	return out
}

// diffWorkMetrics returns the names of counters on which a and b disagree.
func diffWorkMetrics(a, b core.Stats) []string {
	am, bm := workMetrics(a), workMetrics(b)
	var diff []string
	for name, av := range am {
		if bv := bm[name]; av != bv {
			diff = append(diff, fmt.Sprintf("%s (%v vs %v)", name, av, bv))
		}
	}
	return diff
}

// checkIterSums asserts the exact-sum invariant of the per-iteration
// profile for the counters figobs gates.
func checkIterSums(name string, s core.Stats) error {
	if len(s.Iters) != s.Iterations-s.ResumedIterations {
		return fmt.Errorf("%s: %d Iters entries for %d executed iterations",
			name, len(s.Iters), s.Iterations-s.ResumedIterations)
	}
	var edges, skipped, sent int64
	for i := range s.Iters {
		edges += s.Iters[i].EdgesStreamed
		skipped += s.Iters[i].EdgesSkipped
		sent += s.Iters[i].UpdatesSent
	}
	if edges != s.EdgesStreamed || skipped != s.EdgesSkipped || sent != s.UpdatesSent {
		return fmt.Errorf("%s: per-iteration sums (edges %d, skipped %d, updates %d) disagree with cumulative (%d, %d, %d)",
			name, edges, skipped, sent, s.EdgesStreamed, s.EdgesSkipped, s.UpdatesSent)
	}
	return nil
}

func runFigObs(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(14, 10)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 97})

	t := &Table{
		ID: "figobs",
		Title: fmt.Sprintf("Observability overhead in work metrics, RMAT scale %d",
			scale),
		Columns: []string{"workload", "tracing", "iters", "edges-streamed",
			"updates-sent", "bytes-read", "spans", "total"},
	}
	addRow := func(workload, tracing string, s core.Stats, spans int) {
		t.Rows = append(t.Rows, []string{
			workload, tracing,
			fmt.Sprintf("%d", s.Iterations),
			fmt.Sprintf("%d", s.EdgesStreamed),
			fmt.Sprintf("%d", s.UpdatesSent),
			fmt.Sprintf("%d", s.BytesRead),
			fmt.Sprintf("%d", spans),
			fmtDur(s.TotalTime),
		})
	}

	// Dense PageRank, in-memory: untraced vs traced — at one thread, the
	// only count at which two identical runs agree on the combining
	// metrics (with more, the order partition tasks reach the update
	// stream depends on scheduling, so UpdatesCombined wobbles by tens of
	// records with or without a tracer; ROADMAP "Fix first", step 2).
	one := cfg
	one.Threads = 1
	prOff, err := runMem(src, algorithms.NewPageRank(5), one,
		func(mc *memengine.Config) { mc.Partitions = 16 })
	if err != nil {
		return nil, fmt.Errorf("pagerank untraced: %w", err)
	}
	addRow("pagerank/mem", "off", prOff, 0)
	rec := obs.NewRecorder()
	prOn, err := runMem(src, algorithms.NewPageRank(5), one,
		func(mc *memengine.Config) { mc.Partitions = 16; mc.Tracer = rec })
	if err != nil {
		return nil, fmt.Errorf("pagerank traced: %w", err)
	}
	addRow("pagerank/mem", "on", prOn, rec.Len())
	if diff := diffWorkMetrics(prOff, prOn); len(diff) > 0 {
		return nil, fmt.Errorf("pagerank: tracing changed work metrics: %v", diff)
	}
	if err := checkIterSums("pagerank untraced", prOff); err != nil {
		return nil, err
	}
	if err := checkIterSums("pagerank traced", prOn); err != nil {
		return nil, err
	}
	if rec.Len() == 0 {
		return nil, fmt.Errorf("pagerank: traced run recorded no spans")
	}
	t.SetMetric("pagerank_mem_edges_streamed_untraced", float64(prOff.EdgesStreamed))
	t.SetMetric("pagerank_mem_updates_sent_untraced", float64(prOff.UpdatesSent))
	t.SetMetric("pagerank_mem_trace_spans", float64(rec.Len()))

	// Selective BFS, out of core: the frontier varies work per iteration,
	// so the per-iteration slices are non-trivial, and skipped partitions
	// must not emit phantom spans.
	mkDisk := func(tr core.Tracer) func(*diskengine.Config) {
		return func(dc *diskengine.Config) {
			dc.IOUnit = 32 << 10
			dc.Partitions = 16
			dc.Selective = true
			dc.Tracer = tr
		}
	}
	bfsOff, err := runDisk(src, algorithms.NewBFS(0), ssdDev("obs-off", 0), cfg, mkDisk(nil))
	if err != nil {
		return nil, fmt.Errorf("bfs untraced: %w", err)
	}
	addRow("bfs/disk", "off", bfsOff, 0)
	drec := obs.NewRecorder()
	bfsOn, err := runDisk(src, algorithms.NewBFS(0), ssdDev("obs-on", 0), cfg, mkDisk(drec))
	if err != nil {
		return nil, fmt.Errorf("bfs traced: %w", err)
	}
	addRow("bfs/disk", "on", bfsOn, drec.Len())
	if diff := diffWorkMetrics(bfsOff, bfsOn); len(diff) > 0 {
		return nil, fmt.Errorf("bfs: tracing changed work metrics: %v", diff)
	}
	if err := checkIterSums("bfs untraced", bfsOff); err != nil {
		return nil, err
	}
	if err := checkIterSums("bfs traced", bfsOn); err != nil {
		return nil, err
	}
	t.SetMetric("bfs_disk_bytes_read_untraced", float64(bfsOff.BytesRead))
	t.SetMetric("bfs_disk_edges_skipped_untraced", float64(bfsOff.EdgesSkipped))
	t.SetMetric("bfs_disk_trace_spans", float64(drec.Len()))

	t.Notes = append(t.Notes, fmt.Sprintf(
		"tracing recorded %d spans (pagerank/mem) and %d spans (bfs/disk) while every deterministic work metric stayed bit-identical to the untraced runs",
		rec.Len(), drec.Len()))
	return t, nil
}
