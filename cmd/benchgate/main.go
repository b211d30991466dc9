// Command benchgate is the perf-regression gate of the CI pipeline: it
// diffs a fresh cmd/xbench -json report against a checked-in baseline and
// fails (exit 1) when any shared metric moved beyond the threshold — in
// either direction.
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_ci.json -threshold 0
//	benchgate -baseline BENCH_baseline.json -current BENCH_ci.json -update
//
// Metrics are deterministic work measures — update-stream bytes, record
// counts, cross-partition fractions — and lower is better, except for the
// counts of work avoided: skip counts (names containing "_skipped") and
// result-cache hits (names ending "_cache_hits") are higher-is-better (see
// higherIsBetter). Wall-clock seconds appear in the reports for trend
// tracking but are never gated: CI runner noise would make a time gate
// flap. The work metrics are exact: every count is a pure function of the
// workload and the -threads the report was made at, whatever the host's
// core count or the workers' interleaving, so CI gates at -threshold 0 and
// any move is either a regression or a stale baseline. A threshold above 0
// is for comparing reports made at different -threads or on purpose-built
// variants.
//
// The gate is direction-aware. A metric worse than baseline by more than
// the threshold — above it, or below it for a higher-is-better metric — is
// a regression. A metric *better* than baseline by more than the threshold
// also fails: the baseline is stale, and leaving it in place would hand the
// slack to the next real regression (a metric improved 40% then regressed
// 35% would still read "GOOD"). Either failure names the fix — rerun with
// -update, which rewrites the baseline file from the current report and
// exits clean.
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
	"strings"
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

// higherIsBetter reports whether metric k counts work avoided, so that a
// rise is an improvement: skipped edges and tiles, result-cache hits.
func higherIsBetter(k string) bool {
	return strings.Contains(k, "_skipped") || strings.HasSuffix(k, "_cache_hits")
}

// verdict is how a metric moved against its baseline.
type verdict int

const (
	unchanged verdict = iota // equal, or worse within the threshold
	improved                 // better within the threshold
	stale                    // better past the threshold
	regressed                // worse past the threshold
)

// judge compares metric k's current value with its baseline under the
// relative threshold, in k's direction. A zero baseline cannot express a
// relative threshold: any move off it is past the threshold.
func judge(k string, base, cur, threshold float64) verdict {
	worse := cur - base
	if higherIsBetter(k) {
		worse = -worse
	}
	switch {
	case worse > base*threshold:
		return regressed
	case -worse > base*threshold:
		return stale
	case worse < 0:
		return improved
	}
	return unchanged
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

	counts := map[verdict]int{}
	missing, compared := 0, 0
	for _, k := range keys {
		base := baseline[k]
		cur, ok := current[k]
		if !ok {
			fmt.Printf("WARN  %-55s missing from current report\n", k)
			missing++
			continue
		}
		compared++
		v := judge(k, base, cur, *threshold)
		counts[v]++
		dir := "lower"
		if higherIsBetter(k) {
			dir = "higher"
		}
		change := "baseline was zero"
		if base != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(cur/base-1))
		}
		switch v {
		case regressed:
			fmt.Printf("FAIL  %-55s %0.4g -> %0.4g (%s, %s is better, ±%.0f%% allowed)\n", k, base, cur, change, dir, 100**threshold)
		case stale:
			fmt.Printf("STALE %-55s %0.4g -> %0.4g (%s, %s is better — improvement exceeds threshold)\n", k, base, cur, change, dir)
		case improved:
			fmt.Printf("GOOD  %-55s %0.4g -> %0.4g (%s)\n", k, base, cur, change)
		}
	}
	fmt.Printf("benchgate: %d metrics compared, %d regressed, %d stale, %d improved, %d missing (threshold ±%.0f%%)\n",
		compared, counts[regressed], counts[stale], counts[improved], missing, 100**threshold)
	if compared == 0 {
		// Nothing overlapped: a renamed experiment or metric key would
		// otherwise turn the gate off silently and leave CI green forever.
		fmt.Fprintln(os.Stderr, "benchgate: no baseline metric appears in the current report — refresh BENCH_baseline.json after renaming experiments or metrics")
		os.Exit(2)
	}
	if counts[regressed] > 0 {
		fmt.Println("benchgate: perf regression detected — if intentional, refresh the baseline with:")
		fmt.Println("  go run ./cmd/xbench -run " + runList + " -quick -threads 2 -json BENCH_ci.json")
		fmt.Println("  go run ./cmd/benchgate -baseline BENCH_baseline.json -current BENCH_ci.json -update")
		os.Exit(1)
	}
	if counts[stale] > 0 {
		fmt.Println("benchgate: metrics improved past the threshold — the baseline is stale and would mask an equal-sized future regression; refresh it with:")
		fmt.Println("  go run ./cmd/xbench -run " + runList + " -quick -threads 2 -json BENCH_ci.json")
		fmt.Println("  go run ./cmd/benchgate -baseline BENCH_baseline.json -current BENCH_ci.json -update")
		os.Exit(1)
	}
}
