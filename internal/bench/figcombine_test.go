package bench

import (
	"fmt"
	"testing"
)

// TestFigCombineReduction pins the experiment's headline claim (and the
// PR's acceptance criterion): with the combiner enabled, the update-stream
// volume shrinks by at least 25% for PageRank on an RMAT graph, on both
// engines. Quick scale keeps the test fast; the merge rate only improves
// at full scale, where a scatter task's edges hold more duplicate
// destinations.
func TestFigCombineReduction(t *testing.T) {
	tab, err := runFigCombine(Config{Quick: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"mem", "disk"} {
		on := tab.Metrics[fmt.Sprintf("pagerank_%s_update_bytes_on", engine)]
		off := tab.Metrics[fmt.Sprintf("pagerank_%s_update_bytes_off", engine)]
		if off <= 0 {
			t.Fatalf("%s: missing baseline volume", engine)
		}
		if on > 0.75*off {
			t.Fatalf("%s: combined update stream %.0f bytes, want <= 75%% of %.0f", engine, on, off)
		}
	}
	// Combining must never change how many updates scatter produces.
	for _, r := range tab.Rows {
		if len(r) < 4 || r[3] == "0" {
			t.Fatalf("row %v: no updates recorded", r)
		}
	}
}
