package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
)

func init() {
	register("fig24", "Effect of the number of partitions (paper Figure 24)", runFig24)
	register("fig25", "Effect of multi-stage shuffling (paper Figure 25)", runFig25)
	register("ablations", "Ablations of X-Stream design decisions (DESIGN.md §4)", runAblations)
}

func runFig24(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	// Scale 19 puts the vertex footprint (~15 MB) well beyond the 2 MB
	// cache at K=1, so the left side of the paper's U-shape is visible.
	scale := cfg.pick(19, 12)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 10, Undirected: true})
	t := &Table{
		ID:      "fig24",
		Title:   fmt.Sprintf("processing time vs partition count (RMAT scale %d)", scale),
		Columns: []string{"partitions", "WCC", "Pagerank", "BFS", "SpMV"},
	}
	maxK := cfg.pick(1<<14, 1<<10)
	for k := 1; k <= maxK; k *= 8 {
		row := []string{fmt.Sprintf("%d", k)}
		for _, a := range scalingAlgos() {
			s, err := a.run(src, cfg, func(c *core.Config) { c.Partitions = k })
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(s.TotalTime))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper Figure 24: flat across a broad middle range, rising when partitions are too few (vertex sets spill out of cache) or too many (shuffle overhead, random access)",
	)
	return t, nil
}

func runFig25(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(17, 12)
	k := cfg.pick(4096, 256)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 11, Undirected: true})
	t := &Table{
		ID:      "fig25",
		Title:   fmt.Sprintf("shuffle stages at %d partitions, normalized to one stage", k),
		Columns: []string{"stages", "fanout", "WCC", "Pagerank", "BFS", "SpMV"},
	}
	// fanout = k^(1/stages), rounded to powers of two by construction.
	fanouts := map[int]int{1: k, 2: 0, 3: 0, 4: 0}
	f2 := 1
	for f2*f2 < k {
		f2 *= 2
	}
	fanouts[2] = f2
	f3 := 1
	for f3*f3*f3 < k {
		f3 *= 2
	}
	fanouts[3] = f3
	f4 := 1
	for f4*f4*f4*f4 < k {
		f4 *= 2
	}
	if f4 < 2 {
		f4 = 2
	}
	fanouts[4] = f4

	var base []float64
	for stages := 1; stages <= 4; stages++ {
		fanout := fanouts[stages]
		row := []string{fmt.Sprintf("%d", stages), fmt.Sprintf("%d", fanout)}
		var times []float64
		for _, a := range scalingAlgos() {
			s, err := a.run(src, cfg, func(c *core.Config) {
				c.Partitions = k
				c.Fanout = fanout
			})
			if err != nil {
				return nil, err
			}
			times = append(times, s.TotalTime.Seconds())
		}
		if stages == 1 {
			base = times
		}
		for i, v := range times {
			row = append(row, fmt.Sprintf("%.2f", v/base[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper Figure 25: one stage is sub-optimal at high partition counts (cache-line thrash); too many stages add copying; the sweet spot is 2-3 stages",
	)
	return t, nil
}

func runAblations(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablations",
		Title:   "design-decision ablations",
		Columns: []string{"ablation", "with", "without", "effect"},
	}
	ts := cfg.timeScale(1.0)
	scale := cfg.pick(15, 11)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 12, Undirected: true})

	// 1. Prefetching (double-buffered async I/O, §3.3). Update traffic
	// stays on the device, as with a graph bigger than memory: one stream
	// buffer is smaller than an iteration's updates at any Threads (256 KiB
	// is not with one thread, whose combining leaves the fewest).
	smallWindow := func(c *core.Config) {
		c.Partitions = 1
		c.IOUnit = cfg.pick(128<<10, 8<<10)
	}
	on, err := runOn(src, algorithms.NewWCC(), hddDev("pf-on", ts), cfg, smallWindow)
	if err != nil {
		return nil, err
	}
	off, err := runOn(src, algorithms.NewWCC(), hddDev("pf-off", ts), cfg, smallWindow, func(c *core.Config) {
		c.NoPrefetch = true
	})
	if err != nil {
		return nil, err
	}
	if !spilledUpdates(on) || !spilledUpdates(off) {
		return nil, fmt.Errorf("ablations: the prefetch rows wrote no update files")
	}
	t.Rows = append(t.Rows, []string{
		"prefetch distance 1 (§3.3)",
		fmtDur(on.TotalTime), fmtDur(off.TotalTime),
		fmt.Sprintf("%.2fx", off.TotalTime.Seconds()/on.TotalTime.Seconds()),
	})

	// 2. Update-buffer bypass (§3.2): measured by device write volume. The
	// update files are bypassed when one stream buffer holds a scatter's
	// updates (a generous I/O unit) and written when it does not.
	byp, err := runOn(src, algorithms.NewSpMV(), ssdDev("byp-on", 0), cfg, func(c *core.Config) {
		c.Partitions = 1
		c.IOUnit = 16 << 20
	})
	if err != nil {
		return nil, err
	}
	nobyp, err := runOn(src, algorithms.NewSpMV(), ssdDev("byp-off", 0), cfg, smallWindow)
	if err != nil {
		return nil, err
	}
	if spilledUpdates(byp) || !spilledUpdates(nobyp) {
		return nil, fmt.Errorf("ablations: update bypass rows: spilled %v with a 16 MiB window, %v with a small one",
			spilledUpdates(byp), spilledUpdates(nobyp))
	}
	t.Rows = append(t.Rows, []string{
		"window holds one scatter (§3.2 bypass), bytes written",
		fmt.Sprintf("%dMB", byp.BytesWritten>>20),
		fmt.Sprintf("%dMB", nobyp.BytesWritten>>20),
		fmt.Sprintf("%.2fx traffic", float64(nobyp.BytesWritten)/float64(byp.BytesWritten)),
	})

	// 3. Work stealing (§4.1) under partition skew.
	steal, err := runOn(src, algorithms.NewPageRank(5), nil, cfg, func(c *core.Config) {
		c.Partitions = 64
	})
	if err != nil {
		return nil, err
	}
	static, err := runOn(src, algorithms.NewPageRank(5), nil, cfg, func(c *core.Config) {
		c.Partitions = 64
		c.NoWorkStealing = true
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"work stealing (§4.1), skewed partitions",
		fmtDur(steal.TotalTime), fmtDur(static.TotalTime),
		fmt.Sprintf("%.2fx", static.TotalTime.Seconds()/steal.TotalTime.Seconds()),
	})
	t.Notes = append(t.Notes,
		"'with' is the paper's design; 'without' disables it; effect > 1.0x means the design decision pays off on this machine/workload",
	)
	return t, nil
}
