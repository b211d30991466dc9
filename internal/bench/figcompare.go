package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/algorithms"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graphgen"
)

func init() {
	register("fig18", "Sorting vs streaming, one thread (paper Figure 18)", runFig18)
	register("fig19", "In-memory BFS vs optimized baselines (paper Figure 19)", runFig19)
	register("fig20", "Ligra comparison incl. pre-processing (paper Figure 20)", runFig20)
	register("fig21", "Memory reference profile for BFS (paper Figure 21)", runFig21)
}

func runFig18(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	lo, hi := cfg.pick(14, 10), cfg.pick(17, 12)
	t := &Table{
		ID:      "fig18",
		Title:   "single-threaded: sorting the edge list vs computing on it unsorted",
		Columns: []string{"scale", "quicksort", "counting sort", "WCC", "Pagerank", "BFS", "SpMV"},
	}
	one := cfg
	one.Threads = 1
	for scale := lo; scale <= hi; scale++ {
		src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 5, Undirected: true})
		edges, err := core.Materialize(src)
		if err != nil {
			return nil, err
		}
		n := src.NumVertices()

		t0 := time.Now()
		tmp := make([]core.Edge, len(edges))
		copy(tmp, edges)
		sort.Slice(tmp, func(i, j int) bool { return tmp[i].Src < tmp[j].Src })
		qs := time.Since(t0)

		t1 := time.Now()
		baseline.BuildCountingSort(n, edges)
		cs := time.Since(t1)

		row := []string{fmt.Sprintf("%d", scale), fmtDur(qs), fmtDur(cs)}
		for _, a := range scalingAlgos() {
			s, err := a.run(src, one)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(s.TotalTime))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper Figure 18: sorting scales worse than streaming; at the largest scale X-Stream finishes every benchmark before either sort completes",
	)
	return t, nil
}

func runFig19(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(17, 12)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: 6, Undirected: true})
	edges, err := core.Materialize(src)
	if err != nil {
		return nil, err
	}
	n := src.NumVertices()
	g := baseline.BuildCountingSort(n, edges)
	gt := baseline.Transpose(n, edges)

	t := &Table{
		ID:      "fig19",
		Title:   fmt.Sprintf("BFS on a scale-free graph (%d vertices / %d edges)", n, len(edges)),
		Columns: []string{"threads", "local queue", "hybrid", "X-Stream"},
	}
	for th := 1; th <= runtime.GOMAXPROCS(0); th *= 2 {
		t0 := time.Now()
		baseline.LocalQueueBFS(g, 0, th)
		lq := time.Since(t0)

		t1 := time.Now()
		baseline.HybridBFS(g, gt, 0, th)
		hy := time.Since(t1)

		c := cfg
		c.Threads = th
		s, err := runOn(src, algorithms.NewBFS(0), nil, c)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", th), fmtDur(lq), fmtDur(hy), fmtDur(s.TotalTime),
		})
	}
	t.Notes = append(t.Notes,
		"paper Figure 19: X-Stream beats both optimized random-access BFS variants at every thread count, with the gap narrowing as threads close the sequential/random bandwidth gap (baselines here exclude their index build; X-Stream includes its full setup)",
	)
	return t, nil
}

func runFig20(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(17, 12)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 7})
	edges, err := core.Materialize(src)
	if err != nil {
		return nil, err
	}
	n := src.NumVertices()

	t := &Table{
		ID:      "fig20",
		Title:   "Ligra-like engine vs X-Stream on a twitter-like graph",
		Columns: []string{"algorithm", "threads", "Ligra (s)", "X-Stream (s)", "Ligra-pre (s)"},
	}
	for th := 1; th <= runtime.GOMAXPROCS(0); th *= 2 {
		l := baseline.NewLigra(n, edges, th)

		t0 := time.Now()
		l.BFS(0)
		lb := time.Since(t0)
		c := cfg
		c.Threads = th
		sb, err := runOn(src, algorithms.NewBFS(0), nil, c)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			"BFS", fmt.Sprintf("%d", th),
			fmt.Sprintf("%.2f", lb.Seconds()),
			fmt.Sprintf("%.2f", sb.TotalTime.Seconds()),
			fmt.Sprintf("%.2f", l.PreprocessTime.Seconds()),
		})

		t1 := time.Now()
		l.PageRank(5)
		lp := time.Since(t1)
		sp, err := runOn(src, algorithms.NewPageRank(5), nil, c)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			"Pagerank", fmt.Sprintf("%d", th),
			fmt.Sprintf("%.2f", lp.Seconds()),
			fmt.Sprintf("%.2f", sp.TotalTime.Seconds()),
			fmt.Sprintf("%.2f", l.PreprocessTime.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"paper Figure 20: Ligra's BFS proper is 10-20x faster but its pre-processing (sort + transpose for direction reversal) dominates end-to-end time; for Pagerank X-Stream wins outright",
	)
	return t, nil
}

func runFig21(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(16, 12)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 8, Undirected: true})
	edges, err := core.Materialize(src)
	if err != nil {
		return nil, err
	}
	n := src.NumVertices()
	g := baseline.BuildCountingSort(n, edges)
	gt := baseline.Transpose(n, edges)

	t := &Table{
		ID:    "fig21",
		Title: "memory reference profile, BFS (substitute for the paper's PMU IPC numbers)",
		Columns: []string{"system", "runtime", "random refs", "sequential refs",
			"ns/edge-touch"},
	}

	s, err := runOn(src, algorithms.NewBFS(0), nil, cfg)
	if err != nil {
		return nil, err
	}
	touchesX := s.RandomRefs + s.SequentialRefs
	t.Rows = append(t.Rows, []string{
		"X-Stream",
		fmtDur(s.TotalTime),
		fmt.Sprintf("%d", s.RandomRefs),
		fmt.Sprintf("%d", s.SequentialRefs),
		fmt.Sprintf("%.1f", float64(s.TotalTime.Nanoseconds())/float64(touchesX)),
	})

	t0 := time.Now()
	baseline.LocalQueueBFS(g, 0, cfg.Threads)
	lq := time.Since(t0)
	// The index-based traversal touches each edge once, randomly.
	t.Rows = append(t.Rows, []string{
		"local queue [33-style]",
		fmtDur(lq),
		fmt.Sprintf("%d", len(edges)),
		"0",
		fmt.Sprintf("%.1f", float64(lq.Nanoseconds())/float64(len(edges))),
	})

	t1 := time.Now()
	baseline.HybridBFS(g, gt, 0, cfg.Threads)
	hy := time.Since(t1)
	t.Rows = append(t.Rows, []string{
		"hybrid [Ligra-style]",
		fmtDur(hy),
		fmt.Sprintf("~%d", len(edges)),
		"0",
		fmt.Sprintf("%.1f", float64(hy.Nanoseconds())/float64(len(edges))),
	})

	t.Notes = append(t.Notes,
		"substitution: Go cannot read PMU counters (paper reports IPC 1.3-1.39 for X-Stream vs 0.47-0.75); instead we report the measurable halves of the same claim — X-Stream touches more data overall but mostly sequentially, so each touch is cheaper (lower ns/edge-touch)",
	)
	return t, nil
}
