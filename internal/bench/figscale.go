package bench

import (
	"fmt"
	"runtime"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/storage"
)

func init() {
	register("fig14", "Strong scaling with thread count (paper Figure 14)", runFig14)
	register("fig15", "I/O device parallelism (paper Figure 15)", runFig15)
	register("fig16", "Runtime vs graph scale across media (paper Figure 16)", runFig16)
	register("fig17", "WCC recomputation while ingesting edges (paper Figure 17)", runFig17)
}

// scalingAlgos are the four workloads the scaling figures share.
func scalingAlgos() []struct {
	name string
	run  func(src core.EdgeSource, cfg Config, mods ...func(*core.Config)) (core.Stats, error)
} {
	return []struct {
		name string
		run  func(src core.EdgeSource, cfg Config, mods ...func(*core.Config)) (core.Stats, error)
	}{
		{"WCC", func(src core.EdgeSource, cfg Config, mods ...func(*core.Config)) (core.Stats, error) {
			return runOn(src, algorithms.NewWCC(), nil, cfg, mods...)
		}},
		{"Pagerank", func(src core.EdgeSource, cfg Config, mods ...func(*core.Config)) (core.Stats, error) {
			return runOn(src, algorithms.NewPageRank(5), nil, cfg, mods...)
		}},
		{"BFS", func(src core.EdgeSource, cfg Config, mods ...func(*core.Config)) (core.Stats, error) {
			return runOn(src, algorithms.NewBFS(0), nil, cfg, mods...)
		}},
		{"SpMV", func(src core.EdgeSource, cfg Config, mods ...func(*core.Config)) (core.Stats, error) {
			return runOn(src, algorithms.NewSpMV(), nil, cfg, mods...)
		}},
	}
}

func runFig14(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(17, 12)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 1, Undirected: true})
	t := &Table{
		ID:      "fig14",
		Title:   fmt.Sprintf("strong scaling, RMAT scale %d (%d edges)", scale, src.NumEdges()),
		Columns: []string{"threads", "WCC", "Pagerank", "BFS", "SpMV"},
	}
	maxThreads := runtime.GOMAXPROCS(0)
	for th := 1; th <= maxThreads; th *= 2 {
		row := []string{fmt.Sprintf("%d", th)}
		c := cfg
		c.Threads = th
		for _, a := range scalingAlgos() {
			s, err := a.run(src, c)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(s.TotalTime))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: near-linear improvement 1..16 threads on a 32-core machine; this machine exposes "+
			fmt.Sprintf("%d", maxThreads)+" hardware threads",
	)
	return t, nil
}

func runFig15(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ts := cfg.timeScale(1.0)
	scale := cfg.pick(16, 11)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 2, Undirected: true})

	t := &Table{
		ID:      "fig15",
		Title:   fmt.Sprintf("runtime normalized to one disk (RMAT scale %d)", scale),
		Columns: []string{"medium:algorithm", "one disk", "indep. disks", "RAID-0"},
	}

	type devParams struct {
		name string
		mk   func(n string, disks int) storage.Device
	}
	media := []devParams{
		{"HDD", func(n string, d int) storage.Device { return storage.NewSim(storage.HDDParams(n, d, ts)) }},
		{"SSD", func(n string, d int) storage.Device { return storage.NewSim(storage.SSDParams(n, d, ts)) }},
	}
	// Requests must exceed the 512K RAID stripe to engage both members —
	// the same reason the paper uses 16 MB I/O units (§5.1). Updates must
	// reach the devices, so an iteration's updates have to outgrow one
	// stream buffer: combining is off, and the smoke scale shrinks the
	// I/O unit with the graph.
	mods := func(upd storage.Device) func(*core.Config) {
		return func(c *core.Config) {
			c.UpdateDevice = upd
			c.Partitions = 1
			c.NoCombine = true
			c.IOUnit = cfg.pick(4<<20, 64<<10)
		}
	}
	algos := []struct {
		name string
		run  func(dev, upd storage.Device) (core.Stats, error)
	}{
		{"SpMV", func(dev, upd storage.Device) (core.Stats, error) {
			return runOn(src, algorithms.NewSpMV(), dev, cfg, mods(upd))
		}},
		{"WCC", func(dev, upd storage.Device) (core.Stats, error) {
			return runOn(src, algorithms.NewWCC(), dev, cfg, mods(upd))
		}},
		{"Pagerank", func(dev, upd storage.Device) (core.Stats, error) {
			return runOn(src, algorithms.NewPageRank(5), dev, cfg, mods(upd))
		}},
		{"BFS", func(dev, upd storage.Device) (core.Stats, error) {
			return runOn(src, algorithms.NewBFS(0), dev, cfg, mods(upd))
		}},
	}

	for _, m := range media {
		for _, a := range algos {
			// one disk: single member, edges+updates together
			one := m.mk("one", 1)
			sOne, err := a.run(one, one)
			if err != nil {
				return nil, err
			}
			// independent disks: single members, updates on the second
			ed := m.mk("edges", 1)
			ud := m.mk("updates", 1)
			sInd, err := a.run(ed, ud)
			if err != nil {
				return nil, err
			}
			if ud.Stats().BytesWritten == 0 {
				return nil, fmt.Errorf("fig15 %s:%s: no update reached the update device", m.name, a.name)
			}
			// RAID-0 pair
			raid := m.mk("raid", 2)
			sRaid, err := a.run(raid, raid)
			if err != nil {
				return nil, err
			}
			base := sOne.TotalTime.Seconds()
			t.Rows = append(t.Rows, []string{
				m.name + ":" + a.name,
				"1.00",
				fmt.Sprintf("%.2f", sInd.TotalTime.Seconds()/base),
				fmt.Sprintf("%.2f", sRaid.TotalTime.Seconds()/base),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: independent disks cut runtime up to 30%, RAID-0 to 50-60% of one disk",
		fmt.Sprintf("device pacing TimeScale=%.2f; combining off and one stream buffer smaller than an iteration's updates, so updates actually hit the devices", ts),
	)
	return t, nil
}

func runFig16(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ts := cfg.timeScale(0.5)
	lo, hi := 12, 18
	memLimit, ssdLimit := 14, 16
	if cfg.Quick {
		lo, hi = 10, 13
		memLimit, ssdLimit = 11, 12
	}
	t := &Table{
		ID:      "fig16",
		Title:   "runtime vs scale as the graph moves across media",
		Columns: []string{"scale", "edges", "medium", "WCC", "SpMV"},
	}
	for scale := lo; scale <= hi; scale++ {
		src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 3, Undirected: true})
		medium := "mem"
		if scale > ssdLimit {
			medium = "disk"
		} else if scale > memLimit {
			medium = "ssd"
		}
		var wcc, spmv core.Stats
		var err error
		switch medium {
		case "mem":
			if wcc, err = runOn(src, algorithms.NewWCC(), nil, cfg); err != nil {
				return nil, err
			}
			if spmv, err = runOn(src, algorithms.NewSpMV(), nil, cfg); err != nil {
				return nil, err
			}
		case "ssd":
			if wcc, err = runOn(src, algorithms.NewWCC(), ssdDev("f16w", ts), cfg); err != nil {
				return nil, err
			}
			if spmv, err = runOn(src, algorithms.NewSpMV(), ssdDev("f16s", ts), cfg); err != nil {
				return nil, err
			}
		case "disk":
			if wcc, err = runOn(src, algorithms.NewWCC(), hddDev("f16w", ts), cfg); err != nil {
				return nil, err
			}
			if spmv, err = runOn(src, algorithms.NewSpMV(), hddDev("f16s", ts), cfg); err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", scale),
			fmt.Sprintf("%d", src.NumEdges()),
			medium,
			fmtDur(wcc.TotalTime),
			fmtDur(spmv.TotalTime),
		})
	}
	t.Notes = append(t.Notes,
		"paper Figure 16: runtime doubles with each scale within a medium, with 'bumps' at the mem→ssd and ssd→disk transitions",
	)
	return t, nil
}

func runFig17(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ts := cfg.timeScale(0.5)
	scale := cfg.pick(17, 12)
	full := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 4, Undirected: true})
	edges, err := core.Materialize(full)
	if err != nil {
		return nil, err
	}
	const batches = 8
	t := &Table{
		ID:      "fig17",
		Title:   fmt.Sprintf("WCC recomputation time while ingesting %d batches (twitter-like stream)", batches),
		Columns: []string{"batch", "accumulated edges", "recompute time"},
	}
	dev := ssdDev("f17", ts)
	per := (len(edges) + batches - 1) / batches
	for b := 1; b <= batches; b++ {
		n := b * per
		if n > len(edges) {
			n = len(edges)
		}
		src := core.NewSliceSource(edges[:n], full.NumVertices())
		s, err := runOn(src, algorithms.NewWCC(), dev, cfg, func(c *core.Config) {
			c.Prefix = fmt.Sprintf("b%02d-", b)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%d", n),
			fmtDur(s.TotalTime - s.PreprocessTime),
		})
	}
	t.Notes = append(t.Notes,
		"paper Figure 17: recomputation grows with the accumulated graph but stays far below a cold full run, because X-Stream ingests unordered edges with no pre-processing",
		"deviation: the paper appends each batch to existing partition files; this harness re-partitions per batch and reports the recompute (non-preprocessing) time",
	)
	return t, nil
}
