// Command benchgate is the perf-regression gate of the CI pipeline: it
// diffs a fresh cmd/xbench -json report against a checked-in baseline and
// fails (exit 1) when any shared metric moved beyond the threshold — in
// either direction.
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_ci.json -threshold 0
//	benchgate -baseline BENCH_baseline.json -current BENCH_ci.json -update
//
// Metrics are, by convention, deterministic work measures where lower is
// better — update-stream bytes, record counts, cross-partition fractions.
// Wall-clock seconds appear in the reports for trend tracking but are
// never gated: CI runner noise would make a time gate flap. The work
// metrics are exact: every count is a pure function of the workload and
// the -threads the report was made at, whatever the host's core count or
// the workers' interleaving, so CI gates at -threshold 0 and any move is
// either a regression or a stale baseline. A threshold above 0 is for
// comparing reports made at different -threads or on purpose-built
// variants.
//
// The gate is direction-aware. A metric above baseline by more than the
// threshold is a regression. A metric *below* baseline by more than the
// threshold also fails: the baseline is stale, and leaving it in place
// would hand the slack to the next real regression (a metric improved 40%
// then regressed 35% would still read "GOOD"). Either failure names the
// fix — rerun with -update, which rewrites the baseline file from the
// current report and exits clean.
//
// Exit status: 0 clean (small improvements are reported, not failed), 1
// on regression or stale baseline, 2 on usage or I/O errors. A metric
// present only in the current report is fine (new experiments start
// gating on the next baseline refresh); a metric that disappeared is a
// warning, since a silently dropped metric would otherwise disable its
// gate forever.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// runList is every experiment the CI bench-smoke job runs; the regen hint
// printed on failure must stay in lockstep with .github/workflows/ci.yml.
const runList = "figchecksum,figcombine,figcompress,figfrontier,figlocality,figobs,figshare,figtransport"

type report struct {
	Results []struct {
		ID      string             `json:"id"`
		Seconds float64            `json:"seconds"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"results"`
}

func load(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	flat := map[string]float64{}
	for _, res := range r.Results {
		for k, v := range res.Metrics {
			flat[res.ID+"."+k] = v
		}
	}
	return flat, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline report")
		currentPath  = flag.String("current", "BENCH_ci.json", "freshly generated report")
		threshold    = flag.Float64("threshold", 0, "allowed relative change before a metric counts as regressed (above) or stale (below)")
		update       = flag.Bool("update", false, "rewrite the baseline from the current report and exit clean")
	)
	flag.Parse()

	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if *update {
		if len(current) == 0 {
			fmt.Fprintf(os.Stderr, "benchgate: refusing to install %s as baseline: it has no metrics\n", *currentPath)
			os.Exit(2)
		}
		raw, err := os.ReadFile(*currentPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: baseline %s refreshed from %s (%d metrics)\n", *baselinePath, *currentPath, len(current))
		return
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: baseline %s has no metrics\n", *baselinePath)
		os.Exit(2)
	}

	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	regressed, stale, improved, missing, compared := 0, 0, 0, 0, 0
	for _, k := range keys {
		base := baseline[k]
		cur, ok := current[k]
		if !ok {
			fmt.Printf("WARN  %-55s missing from current report\n", k)
			missing++
			continue
		}
		compared++
		switch {
		case base == 0:
			// A zero baseline cannot express a relative threshold; any
			// nonzero growth on a zero-cost metric is a regression.
			if cur > 0 {
				fmt.Printf("FAIL  %-55s %0.4g -> %0.4g (baseline was zero)\n", k, base, cur)
				regressed++
			}
		case cur > base*(1+*threshold):
			fmt.Printf("FAIL  %-55s %0.4g -> %0.4g (+%.1f%% > +%.0f%% allowed)\n",
				k, base, cur, 100*(cur/base-1), 100**threshold)
			regressed++
		case cur < base*(1-*threshold):
			fmt.Printf("STALE %-55s %0.4g -> %0.4g (%.1f%% — improvement exceeds threshold)\n",
				k, base, cur, 100*(cur/base-1))
			stale++
		case cur < base:
			fmt.Printf("GOOD  %-55s %0.4g -> %0.4g (%.1f%%)\n", k, base, cur, 100*(cur/base-1))
			improved++
		}
	}

	fmt.Printf("benchgate: %d metrics compared, %d regressed, %d stale, %d improved, %d missing (threshold ±%.0f%%)\n",
		compared, regressed, stale, improved, missing, 100**threshold)
	if compared == 0 {
		// Nothing overlapped: a renamed experiment or metric key would
		// otherwise turn the gate off silently and leave CI green forever.
		fmt.Fprintln(os.Stderr, "benchgate: no baseline metric appears in the current report — refresh BENCH_baseline.json after renaming experiments or metrics")
		os.Exit(2)
	}
	if regressed > 0 {
		fmt.Println("benchgate: perf regression detected — if intentional, refresh the baseline with:")
		fmt.Println("  go run ./cmd/xbench -run " + runList + " -quick -threads 2 -json BENCH_ci.json")
		fmt.Println("  go run ./cmd/benchgate -baseline BENCH_baseline.json -current BENCH_ci.json -update")
		os.Exit(1)
	}
	if stale > 0 {
		fmt.Println("benchgate: metrics improved past the threshold — the baseline is stale and would mask an equal-sized future regression; refresh it with:")
		fmt.Println("  go run ./cmd/xbench -run " + runList + " -quick -threads 2 -json BENCH_ci.json")
		fmt.Println("  go run ./cmd/benchgate -baseline BENCH_baseline.json -current BENCH_ci.json -update")
		os.Exit(1)
	}
}
