package main

import (
	"sort"
	"testing"
)

// TestBaselineMetricDirections classifies every metric of the checked-in
// baseline and pins the higher-is-better ones: a new skip or cache-hit
// metric must be named so higherIsBetter finds it, and any other metric is
// gated lower-is-better.
func TestBaselineMetricDirections(t *testing.T) {
	higher := map[string]bool{
		"figfrontier.bfs_path_disk_tiles_skipped":      true,
		"figfrontier.bfs_path_mem_tiles_skipped":       true,
		"figfrontier.bfs_two_roots_disk_edges_skipped": true,
		"figfrontier.bfs_two_roots_disk_tiles_skipped": true,
		"figfrontier.bfs_two_roots_mem_edges_skipped":  true,
		"figfrontier.bfs_two_roots_mem_tiles_skipped":  true,
		"figobs.bfs_disk_edges_skipped_untraced":       true,
		"figshare.pagerank_mem_result_cache_hits":      true,
	}
	baseline, err := load("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got := higherIsBetter(k); got != higher[k] {
			t.Errorf("%s: higher is better %v, want %v", k, got, higher[k])
		}
	}
	for k := range higher {
		if _, ok := baseline[k]; !ok {
			t.Errorf("%s is not in the baseline", k)
		}
	}
}

// TestJudge holds the verdicts to the metric's direction: the same move is a
// regression of a lower-is-better metric and an improvement of a
// higher-is-better one, at threshold 0 (CI's) and within a threshold.
func TestJudge(t *testing.T) {
	const lower, higher = "figcombine.pagerank_disk_updates_sent", "figobs.bfs_disk_edges_skipped_untraced"
	for _, c := range []struct {
		base, cur, threshold float64
		lower, higher        verdict
	}{
		{100, 100, 0, unchanged, unchanged},
		{100, 101, 0, regressed, stale},
		{100, 99, 0, stale, regressed},
		{100, 103, 0.05, unchanged, improved},
		{100, 97, 0.05, improved, unchanged},
		{100, 106, 0.05, regressed, stale},
		{100, 94, 0.05, stale, regressed},
		{0, 0, 0, unchanged, unchanged},
		{0, 1, 0.05, regressed, stale},
	} {
		if got := judge(lower, c.base, c.cur, c.threshold); got != c.lower {
			t.Errorf("lower is better, %v -> %v at ±%v: verdict %d, want %d", c.base, c.cur, c.threshold, got, c.lower)
		}
		if got := judge(higher, c.base, c.cur, c.threshold); got != c.higher {
			t.Errorf("higher is better, %v -> %v at ±%v: verdict %d, want %d", c.base, c.cur, c.threshold, got, c.higher)
		}
	}
}
