package bench

import (
	"fmt"
	"testing"
)

// TestFigLocality2PSBeatsRange pins what the partitioner layer buys: the
// 2PS row must carry strictly less cross-partition update traffic than the
// range baseline on both input orderings. Quick scale keeps the test fast.
func TestFigLocality2PSBeatsRange(t *testing.T) {
	tab, err := runFigLocality(Config{Quick: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{"rmat", "rmat-shuffled"} {
		get := func(variant string) float64 {
			v, ok := tab.Metrics[fmt.Sprintf("pagerank_%s_%s_cross_fraction", input, variant)]
			if !ok {
				t.Fatalf("%s: missing %s cross-fraction metric", input, variant)
			}
			return v
		}
		rng, twops := get("range"), get("2ps")
		if twops >= rng {
			t.Fatalf("%s: 2ps cross fraction %.4f not below range (%.4f)", input, twops, rng)
		}
		t.Logf("%s: range %.3f, 2ps %.3f (2ps at %.2fx of range)", input, rng, twops, twops/rng)
	}
}
