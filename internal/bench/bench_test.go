package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
)

// TestAllRunnersQuick executes every registered experiment at smoke-test
// scale: the full integration test of engines, algorithms, baselines and
// devices working together.
func TestAllRunnersQuick(t *testing.T) {
	cfg := Config{Quick: true, Threads: 2}
	for _, r := range Runners() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			start := time.Now()
			tab, err := r.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", r.ID)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s row %d: %d cells, %d columns", r.ID, i, len(row), len(tab.Columns))
				}
			}
			var buf bytes.Buffer
			tab.Fprint(&buf)
			if !strings.Contains(buf.String(), tab.ID) {
				t.Fatalf("%s: render missing ID", r.ID)
			}
			t.Logf("%s ok in %v (%d rows)", r.ID, time.Since(start).Round(time.Millisecond), len(tab.Rows))
		})
	}
}

func TestRegistryShape(t *testing.T) {
	want := []string{
		"ablations", "fig08", "fig09", "fig10", "fig11", "fig12a", "fig12b",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26",
		"figchecksum", "figcombine", "figcompress", "figfrontier",
		"figlocality", "figobs", "figshare", "figtransport",
	}
	got := Runners()
	if len(got) != len(want) {
		t.Fatalf("registry has %d runners, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.ID != want[i] {
			t.Fatalf("runner %d = %s, want %s", i, r.ID, want[i])
		}
	}
	if _, ok := Get("fig12a"); !ok {
		t.Fatal("Get(fig12a) failed")
	}
	if _, ok := Get("nonsense"); ok {
		t.Fatal("Get(nonsense) succeeded")
	}
}

func TestFig12aShape(t *testing.T) {
	// The central applicability claim behind Figures 12 and 13: traversal
	// algorithms on the high-diameter grid need 1-2 orders of magnitude
	// more scatter-gather iterations than on a same-size scale-free
	// graph, because each iteration advances the frontier a single hop.
	// Iteration counts are deterministic, so assert on those.
	cfg := Config{Quick: true, Threads: 2}
	var gridIters, ljIters int
	for _, d := range memDatasets(cfg) {
		if !strings.Contains(d.Name, "dimacs") && !strings.Contains(d.Name, "livejournal") {
			continue
		}
		s, err := runOn(sym(d), algorithms.NewWCC(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(d.Name, "dimacs") {
			gridIters = s.Iterations
		} else {
			ljIters = s.Iterations
		}
	}
	if gridIters == 0 || ljIters == 0 {
		t.Fatal("missing datasets")
	}
	if gridIters < 5*ljIters {
		t.Fatalf("traversal pathology not reproduced: grid %d iters vs lj %d iters", gridIters, ljIters)
	}
}
