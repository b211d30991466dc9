// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a registered Runner producing a
// Table; cmd/xbench prints them and EXPERIMENTS.md records the outcomes
// next to the paper's numbers.
//
// Absolute numbers differ from the paper's (different CPU, simulated
// devices, scaled-down graphs); what each runner is built to reproduce is
// the *shape*: who wins, by roughly what factor, and where behaviour
// changes.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
	"repro/internal/memengine"
	"repro/internal/storage"
)

// Config tunes experiment scale.
type Config struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Quick shrinks workloads to smoke-test size.
	Quick bool
	// TimeScale paces simulated devices for the I/O-bound figures
	// (0 = per-figure default). 1.0 is real time.
	TimeScale float64
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c Config) timeScale(def float64) float64 {
	if c.TimeScale > 0 {
		return c.TimeScale
	}
	if c.Quick {
		return def / 4
	}
	return def
}

// pick returns full unless Quick.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Table is one regenerated figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics are machine-readable outcomes for the perf-regression CI
	// gate (cmd/xbench -json / cmd/benchgate). By convention every metric
	// is a deterministic work measure where lower is better — record
	// counts, stream bytes, cross fractions — never wall-clock time,
	// which CI runners make too noisy to gate on.
	Metrics map[string]float64
}

// SetMetric records one gateable metric, allocating the map on first use.
func (t *Table) SetMetric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = map[string]float64{}
	}
	t.Metrics[name] = v
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner regenerates one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

var registry []Runner

func register(id, title string, run func(cfg Config) (*Table, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// Runners returns all registered experiments in figure order.
func Runners() []Runner {
	out := make([]Runner, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the runner with the given ID.
func Get(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// ---- shared run helpers ----

// runOn executes a program out of core over dev (256 KiB I/O unit unless a
// mod says otherwise), or in memory when dev is nil.
func runOn[V, M any](src core.EdgeSource, p core.Program[V, M], dev storage.Device, cfg Config, mods ...func(*core.Config)) (core.Stats, error) {
	c := core.Config{Threads: cfg.Threads, Device: dev}
	run := memengine.Run[V, M]
	if dev != nil {
		c.IOUnit = 256 << 10
		run = diskengine.Run[V, M]
	}
	for _, m := range mods {
		m(&c)
	}
	res, err := run(src, p, c)
	if err != nil {
		return core.Stats{}, err
	}
	return res.Stats, nil
}

// spilledUpdates reports whether a disk run wrote update files. Without
// checkpoints or spilled vertex state, the device writes its iterations are
// charged with are update-file appends: some iteration's updates outgrew the
// transport's window, one stream buffer of IOUnit·Partitions bytes.
func spilledUpdates(s core.Stats) bool {
	for _, it := range s.Iters {
		if it.BytesWritten > 0 {
			return true
		}
	}
	return false
}

// fmtDur formats a duration the way the paper's tables do.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh %dm %ds", int(d.Hours()), int(d.Minutes())%60, int(d.Seconds())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm %ds", int(d.Minutes()), int(d.Seconds())%60)
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
}

func fmtMBps(bps float64) string { return fmt.Sprintf("%.0f", bps/1e6) }

// ---- shared workloads ----

// memDatasets returns the in-memory stand-ins at benchmark scale.
func memDatasets(cfg Config) []graphgen.Dataset {
	s := cfg.pick(16, 11)
	grid := cfg.pick(320, 48)
	return []graphgen.Dataset{
		{Name: "amazon-like", StandInFor: "amazon0601", Kind: "directed",
			Source: graphgen.RMAT(graphgen.RMATConfig{Scale: s - 2, EdgeFactor: 8, Seed: 42})},
		{Name: "patents-like", StandInFor: "cit-Patents", Kind: "directed",
			Source: graphgen.RMAT(graphgen.RMATConfig{Scale: s, EdgeFactor: 4, Seed: 43})},
		{Name: "livejournal-like", StandInFor: "soc-livejournal", Kind: "directed",
			Source: graphgen.RMAT(graphgen.RMATConfig{Scale: s, EdgeFactor: 16, Seed: 44})},
		{Name: "dimacs-like", StandInFor: "dimacs-usa", Kind: "undirected",
			Source: graphgen.Grid(grid, grid, 45)},
	}
}

// oocDatasets returns the out-of-core stand-ins at benchmark scale.
func oocDatasets(cfg Config) []graphgen.Dataset {
	s := cfg.pick(18, 12)
	return []graphgen.Dataset{
		{Name: "twitter-like", StandInFor: "Twitter", Kind: "directed",
			Source: graphgen.RMAT(graphgen.RMATConfig{Scale: s, EdgeFactor: 16, Seed: 46})},
		{Name: "friendster-like", StandInFor: "Friendster", Kind: "undirected",
			Source: graphgen.RMAT(graphgen.RMATConfig{Scale: s - 1, EdgeFactor: 16, Seed: 47, Undirected: true})},
	}
}

// netflixLike returns the bipartite stand-in at benchmark scale.
func netflixLike(cfg Config) graphgen.Dataset {
	users := cfg.pick(60000, 2000)
	items := cfg.pick(4000, 200)
	ratings := int64(cfg.pick(1_000_000, 20_000))
	return graphgen.Dataset{Name: "netflix-like", StandInFor: "Netflix", Kind: "bipartite",
		Source: graphgen.Bipartite(users, items, ratings, 49)}
}

// ssdDev and hddDev build fresh calibrated simulated devices.
func ssdDev(name string, scale float64) storage.Device {
	return storage.NewSim(storage.SSDParams(name, 2, scale))
}

func hddDev(name string, scale float64) storage.Device {
	return storage.NewSim(storage.HDDParams(name, 2, scale))
}
