package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/membench"
	"repro/internal/storage"
	"time"
)

func init() {
	register("fig12a", "Algorithm runtimes across datasets and media (paper Figure 12a)", runFig12a)
	register("fig12b", "WCC iterations, streaming ratio, wasted edges (paper Figure 12b)", runFig12b)
	register("fig13", "HyperANF steps to cover the graph (paper Figure 13)", runFig13)
}

// algoColumn is one column of Figure 12a: a name and a runner, out of core
// on dev or in memory when dev is nil. Algorithms needing symmetric inputs
// get them via Symmetrize.
type algoColumn struct {
	name string
	run  func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error)
}

// sym returns an undirected view of directed datasets.
func sym(d graphgen.Dataset) core.EdgeSource {
	if d.Kind == "directed" {
		return core.Symmetrize(d.Source)
	}
	return d.Source
}

func algoColumns() []algoColumn {
	return []algoColumn{
		{"WCC", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(sym(d), algorithms.NewWCC(), dev, cfg)
		}},
		{"SCC", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(d.Source, algorithms.NewSCC(), dev, cfg)
		}},
		{"SSSP", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(sym(d), algorithms.NewSSSP(0), dev, cfg)
		}},
		{"MCST", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(sym(d), algorithms.NewMCST(), dev, cfg)
		}},
		{"MIS", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(sym(d), algorithms.NewMIS(), dev, cfg)
		}},
		{"Cond.", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(d.Source, algorithms.NewConductance(nil), dev, cfg)
		}},
		{"SpMV", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(d.Source, algorithms.NewSpMV(), dev, cfg)
		}},
		{"Pagerank", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(d.Source, algorithms.NewPageRank(5), dev, cfg)
		}},
		{"BP", func(d graphgen.Dataset, dev storage.Device, cfg Config) (core.Stats, error) {
			return runOn(d.Source, algorithms.NewBP(5), dev, cfg)
		}},
	}
}

func runFig12a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cols := algoColumns()
	t := &Table{
		ID:      "fig12a",
		Title:   "runtimes per algorithm, dataset and medium",
		Columns: append([]string{"medium/dataset"}, colNames(cols)...),
	}

	for _, d := range memDatasets(cfg) {
		row := []string{"mem/" + d.Name}
		for _, c := range cols {
			s, err := c.run(d, nil, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", c.name, d.Name, err)
			}
			row = append(row, fmtDur(s.TotalTime))
		}
		t.Rows = append(t.Rows, row)
	}

	ts := cfg.timeScale(0.2)
	for _, mediumDev := range []struct {
		medium string
		mk     func(string) storage.Device
	}{
		{"ssd", func(n string) storage.Device { return ssdDev(n, ts) }},
		{"disk", func(n string) storage.Device { return hddDev(n, ts) }},
	} {
		for _, d := range oocDatasets(cfg) {
			row := []string{mediumDev.medium + "/" + d.Name}
			for _, c := range cols {
				dev := mediumDev.mk(mediumDev.medium + d.Name + c.name)
				s, err := c.run(d, dev, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s on %s/%s: %w", c.name, mediumDev.medium, d.Name, err)
				}
				row = append(row, fmtDur(s.TotalTime))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"shape to match the paper: traversals on the high-diameter dimacs-like grid are 1-3 orders slower than on same-size scale-free graphs; ssd rows ≈ half of disk rows; Cond/SpMV cheapest, SCC/MIS/SSSP dearest",
		fmt.Sprintf("device pacing: TimeScale=%.2f of real time", ts),
	)
	return t, nil
}

func colNames(cols []algoColumn) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.name
	}
	return out
}

func runFig12b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig12b",
		Title:   "WCC: iterations, runtime/streaming-time ratio, wasted edges",
		Columns: []string{"dataset", "medium", "# iters", "ratio", "wasted %"},
	}
	memBW := membench.SequentialRead(cfg.Threads, 32<<20, 150*time.Millisecond).BPS
	for _, d := range memDatasets(cfg) {
		s, err := runOn(sym(d), algorithms.NewWCC(), nil, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			d.Name, "mem",
			fmt.Sprintf("%d", s.Iterations),
			fmt.Sprintf("%.2f", s.Ratio(memBW)),
			fmt.Sprintf("%.0f", 100*s.WastedFraction()),
		})
	}
	ts := cfg.timeScale(1.0)
	for _, d := range oocDatasets(cfg) {
		dev := ssdDev("f12b"+d.Name, ts)
		s, err := runOn(sym(d), algorithms.NewWCC(), dev, cfg)
		if err != nil {
			return nil, err
		}
		// Out of core the relevant streaming floor is the device: bytes
		// moved at the device's sequential bandwidth (scaled like the
		// device itself is).
		devBW := 667e6 * ts
		ratio := float64(s.TotalTime) / (float64(s.BytesRead+s.BytesWritten) / devBW * float64(time.Second))
		t.Rows = append(t.Rows, []string{
			d.Name, "ssd",
			fmt.Sprintf("%d", s.Iterations),
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%.0f", 100*s.WastedFraction()),
		})
	}
	t.Notes = append(t.Notes,
		"paper: dimacs needs thousands of iterations (6263); in-memory ratios 1.9-2.6; out-of-core ratios ~1.0; wasted edges 50-98%",
	)
	return t, nil
}

func runFig13(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig13",
		Title:   "HyperANF steps to cover the graph (≈ diameter)",
		Columns: []string{"graph", "# steps", "paper analogue"},
	}
	grid := cfg.pick(96, 32)
	sets := []struct {
		name     string
		src      core.EdgeSource
		analogue string
	}{
		{"amazon-like", core.Symmetrize(graphgen.RMAT(graphgen.RMATConfig{Scale: cfg.pick(14, 10), EdgeFactor: 8, Seed: 42})), "amazon0601: 19"},
		{"patents-like", core.Symmetrize(graphgen.RMAT(graphgen.RMATConfig{Scale: cfg.pick(15, 10), EdgeFactor: 4, Seed: 43})), "cit-Patents: 20"},
		{"livejournal-like", core.Symmetrize(graphgen.RMAT(graphgen.RMATConfig{Scale: cfg.pick(15, 10), EdgeFactor: 16, Seed: 44})), "soc-livejournal: 15"},
		{fmt.Sprintf("dimacs-like (%dx%d grid)", grid, grid), graphgen.Grid(grid, grid, 45), "dimacs-usa: 8122"},
	}
	for _, s := range sets {
		prog := algorithms.NewHyperANF()
		if _, err := runOn(s.src, prog, nil, cfg); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{s.name, fmt.Sprintf("%d", prog.Steps()), s.analogue})
	}
	t.Notes = append(t.Notes,
		"shape: scale-free stand-ins finish in a handful of steps; the grid needs hundreds — the structural diagnosis behind the Figure 12 traversal pathology",
	)
	return t, nil
}
