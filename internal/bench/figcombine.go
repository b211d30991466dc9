package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
)

// figcombine quantifies what the update-combining layer buys: the update
// stream is X-Stream's dominant cost (§3.2 — generated per edge, shuffled,
// gathered; written to and re-read from storage out of core), and a
// program whose updates form a semigroup (core.Combiner) lets the engines
// pre-aggregate it in two places — thread-private combining buffers at
// scatter time and a per-partition fold after the shuffle, the latter also
// shrinking the update files the out-of-core engine writes.
//
// PageRank (sum) and SSSP (min) cover the two canonical semigroups; both
// engines run each with the combiner on and off, and the table reports the
// post-combining update-stream volume next to the uncombined one. The
// equivalence suite at the repo root proves results are unchanged.
func init() {
	register("figcombine", "Update-stream pre-aggregation: combiner on vs off", runFigCombine)
}

func runFigCombine(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(16, 10)
	parts := cfg.pick(64, 8)
	prIters := 5

	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 7})
	t := &Table{
		ID:    "figcombine",
		Title: fmt.Sprintf("Update combining, RMAT scale %d, K=%d", scale, parts),
		Columns: []string{"algorithm", "engine", "combine", "updates", "combined",
			"update-bytes", "cross-updates", "total"},
	}

	type run struct {
		algo   string
		engine string
		prog   func() any // new program per run: state is per-run
	}
	runs := []run{
		{"pagerank", "mem", func() any { return algorithms.NewPageRank(prIters) }},
		{"pagerank", "disk", func() any { return algorithms.NewPageRank(prIters) }},
		{"sssp", "mem", func() any { return algorithms.NewSSSP(0) }},
		{"sssp", "disk", func() any { return algorithms.NewSSSP(0) }},
	}

	volumes := map[string]float64{}
	for _, r := range runs {
		for _, combineOn := range []bool{false, true} {
			var s core.Stats
			var err error
			switch prog := r.prog().(type) {
			case *algorithms.PageRank:
				s, err = runCombineCase(src, prog, r.engine, parts, combineOn, cfg)
			case *algorithms.SSSP:
				s, err = runCombineCase(src, prog, r.engine, parts, combineOn, cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s combine=%v: %w", r.algo, r.engine, combineOn, err)
			}
			mode := "off"
			if combineOn {
				mode = "on"
			}
			key := fmt.Sprintf("%s_%s_update_bytes_%s", r.algo, r.engine, mode)
			t.SetMetric(key, float64(s.UpdateBytes))
			t.SetMetric(fmt.Sprintf("%s_%s_updates_sent", r.algo, r.engine), float64(s.UpdatesSent))
			if combineOn {
				t.SetMetric(fmt.Sprintf("%s_%s_cross_fraction", r.algo, r.engine), s.CrossFraction())
			}
			volumes[key] = float64(s.UpdateBytes)
			t.Rows = append(t.Rows, []string{
				r.algo, r.engine, mode,
				fmt.Sprintf("%d", s.UpdatesSent),
				fmt.Sprintf("%d", s.UpdatesCombined),
				fmt.Sprintf("%d", s.UpdateBytes),
				fmt.Sprintf("%.1f%%", 100*s.CrossFraction()),
				fmtDur(s.TotalTime),
			})
		}
		on := volumes[fmt.Sprintf("%s_%s_update_bytes_on", r.algo, r.engine)]
		off := volumes[fmt.Sprintf("%s_%s_update_bytes_off", r.algo, r.engine)]
		if off > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s/%s: combiner shrinks the update stream to %.2fx (%.1f%% saved)",
				r.algo, r.engine, on/off, 100*(1-on/off)))
		}
	}
	return t, nil
}

// runCombineCase executes prog on the requested engine with combining
// toggled.
func runCombineCase[V, M any](src core.EdgeSource, prog core.Program[V, M],
	engine string, parts int, combineOn bool, cfg Config) (core.Stats, error) {
	if engine == "mem" {
		return runOn(src, prog, nil, cfg, func(mc *core.Config) {
			mc.Partitions = parts
			mc.NoCombine = !combineOn
		})
	}
	return runOn(src, prog, ssdDev("combine", 0), cfg, func(dc *core.Config) {
		dc.Partitions = pickDiskParts(parts)
		dc.NoCombine = !combineOn
		dc.IOUnit = 128 << 10
	})
}

// pickDiskParts keeps the out-of-core partition count modest: the disk
// engine's single-stage shuffle targets small K (§3.4).
func pickDiskParts(memParts int) int {
	if memParts > 16 {
		return 16
	}
	return memParts
}
