package diskengine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/memengine"
	"repro/internal/storage"
)

// The test programs mirror the memengine test suite so the two engines can
// be checked for parity.

type wccState struct {
	Label   core.VertexID
	Updated int32
}

type wccProg struct{ iter int32 }

func (w *wccProg) Name() string { return "wcc-test" }

func (w *wccProg) Init(id core.VertexID, v *wccState) {
	v.Label = id
	v.Updated = 0
}

func (w *wccProg) StartIteration(iter int) { w.iter = int32(iter) }

func (w *wccProg) Scatter(e core.Edge, src *wccState) (core.VertexID, bool) {
	if src.Updated == w.iter {
		return src.Label, true
	}
	return 0, false
}

func (w *wccProg) Gather(dst core.VertexID, v *wccState, m core.VertexID) {
	if m < v.Label {
		v.Label = m
		v.Updated = w.iter + 1
	}
}

func ssd(scale float64) storage.Device {
	return storage.NewSim(storage.SSDParams("ssd", 2, scale))
}

// spilled returns cfg with the memory budget set to the five stream buffers
// alone, so any vertex state at all breaks N + 5·S·K ≤ M and spills to the
// device. cfg must force Partitions and IOUnit.
func spilled(cfg Config) Config {
	cfg.MemoryBudget = 5 * int64(cfg.IOUnit) * int64(cfg.Partitions)
	return cfg
}

func smallGraph(seed int64) (core.EdgeSource, []core.Edge) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: seed, Undirected: true})
	edges, _ := core.Materialize(src)
	return src, edges
}

// runBoth executes the same program on both engines and requires identical
// vertex state.
func runBothWCC(t *testing.T, cfg Config) {
	t.Helper()
	src, _ := smallGraph(21)
	memRes, err := memengine.Run(src, &wccProg{}, memengine.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	diskRes, err := Run(src, &wccProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diskRes.Vertices) != len(memRes.Vertices) {
		t.Fatalf("vertex count %d vs %d", len(diskRes.Vertices), len(memRes.Vertices))
	}
	for i := range memRes.Vertices {
		if diskRes.Vertices[i].Label != memRes.Vertices[i].Label {
			t.Fatalf("vertex %d: disk label %d, mem label %d (cfg %+v)",
				i, diskRes.Vertices[i].Label, memRes.Vertices[i].Label, cfg)
		}
	}
	if diskRes.Stats.Iterations != memRes.Stats.Iterations {
		t.Fatalf("iterations: disk %d, mem %d", diskRes.Stats.Iterations, memRes.Stats.Iterations)
	}
}

func TestEngineParityDefault(t *testing.T) {
	runBothWCC(t, Config{Device: ssd(0), Threads: 2, IOUnit: 64 << 10})
}

func TestEngineParityManyPartitions(t *testing.T) {
	runBothWCC(t, Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 8})
}

func TestEngineParityVertexSpill(t *testing.T) {
	runBothWCC(t, spilled(Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 4}))
}

func TestEngineParityNoBypass(t *testing.T) {
	runBothWCC(t, Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 4, NoUpdateBypass: true})
}

func TestEngineParityNoPrefetch(t *testing.T) {
	runBothWCC(t, Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 4, NoPrefetch: true})
}

func TestEngineParitySeparateUpdateDevice(t *testing.T) {
	upd := storage.NewSim(storage.SSDParams("upd", 1, 0))
	runBothWCC(t, Config{Device: ssd(0), UpdateDevice: upd, Threads: 2, IOUnit: 8 << 10, Partitions: 4, NoUpdateBypass: true})
}

func TestEngineParitySingleThread(t *testing.T) {
	runBothWCC(t, Config{Device: ssd(0), Threads: 1, IOUnit: 16 << 10, Partitions: 2})
}

func TestEngineParityOSDevice(t *testing.T) {
	dev, err := storage.NewOS("os", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runBothWCC(t, spilled(Config{Device: dev, Threads: 2, IOUnit: 32 << 10, Partitions: 4, NoUpdateBypass: true}))
}

// Degree program exercising phased termination and backward direction.
type degProg struct{ backward bool }

func (d *degProg) Name() string                                  { return "degree-test" }
func (d *degProg) Init(id core.VertexID, v *int32)               { *v = 0 }
func (d *degProg) Scatter(e core.Edge, src *int32) (int32, bool) { return 1, true }
func (d *degProg) Gather(dst core.VertexID, v *int32, m int32)   { *v += m }

func (d *degProg) EndIteration(iter int, sent int64, view core.VertexView[int32]) bool {
	return true
}

func (d *degProg) Direction(iter int) core.Direction {
	if d.backward {
		return core.Backward
	}
	return core.Forward
}

func TestBackwardDirection(t *testing.T) {
	edges := []core.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
	}
	src := core.NewSliceSource(edges, 3)
	res, err := Run(src, &degProg{backward: true}, Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Vertices; got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("out-degrees = %v", got)
	}
}

// sumProg mutates vertex state through the phase hook's view to verify
// spill-mode write-back.
type sumProg struct{ rounds int }

func (s *sumProg) Name() string                                  { return "sum-test" }
func (s *sumProg) Init(id core.VertexID, v *int32)               { *v = 0 }
func (s *sumProg) Scatter(e core.Edge, src *int32) (int32, bool) { return 1, true }
func (s *sumProg) Gather(dst core.VertexID, v *int32, m int32)   { *v += m }

func (s *sumProg) EndIteration(iter int, sent int64, view core.VertexView[int32]) bool {
	view.ForEach(func(id core.VertexID, v *int32) { *v += 100 })
	s.rounds++
	return s.rounds >= 2
}

func TestSpillViewWriteBack(t *testing.T) {
	edges := []core.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}}
	src := core.NewSliceSource(edges, 2)
	res, err := Run(src, &sumProg{}, spilled(Config{
		Device: ssd(0), Threads: 1, IOUnit: 8 << 10, Partitions: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Two iterations: each gathers +1 per vertex, each EndIteration adds
	// +100 -> final state 202.
	for i, v := range res.Vertices {
		if v != 202 {
			t.Fatalf("vertex %d = %d, want 202", i, v)
		}
	}
}

func TestFilesCleanedUp(t *testing.T) {
	dev := ssd(0)
	src, _ := smallGraph(3)
	if _, err := Run(src, &wccProg{}, Config{Device: dev, Threads: 2, IOUnit: 16 << 10, Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Open("ds-p0000.edges"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("edge file survived cleanup: %v", err)
	}
}

func TestUpdateFilesTrimmed(t *testing.T) {
	dev := ssd(0)
	src, _ := smallGraph(4)
	_, err := Run(src, &wccProg{}, Config{Device: dev, Threads: 2, IOUnit: 8 << 10, Partitions: 4, NoUpdateBypass: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := dev.Stats(); s.Trims == 0 {
		t.Fatal("update files were never truncated (TRIM, §3.3)")
	}
}

func TestInjectedFaultSurfaces(t *testing.T) {
	inner := ssd(0)
	dev := storage.NewFaulty(inner, storage.FaultyOptions{FailAfterOps: 30})
	src, _ := smallGraph(5)
	_, err := Run(src, &wccProg{}, Config{Device: dev, Threads: 2, IOUnit: 8 << 10, Partitions: 4, NoUpdateBypass: true})
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
}

func TestPartitionPlanning(t *testing.T) {
	// A graph whose vertices cannot fit with tiny memory must error.
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 14, EdgeFactor: 4, Seed: 1})
	_, err := Run(src, &wccProg{}, Config{Device: ssd(0), MemoryBudget: 4 << 10, IOUnit: 4 << 10})
	if err == nil || !strings.Contains(err.Error(), "N/K") {
		t.Fatalf("want §3.4 infeasibility error, got %v", err)
	}
	// Solo and shared runs size partitions at one site, so both get the hint
	// of what budget would do: 2·sqrt(5·N·S) with N = 16384 × 8 bytes.
	_, perr := Prepare(src, Config{Device: ssd(0), MemoryBudget: 4 << 10, IOUnit: 4 << 10})
	for _, e := range []error{err, perr} {
		if e == nil || !strings.Contains(e.Error(), "need ≥ ") {
			t.Fatalf("budget error without the minimum-budget hint: %v", e)
		}
	}
	if !strings.Contains(err.Error(), "need ≥ 103621 bytes") {
		t.Fatalf("minimum budget for N=131072 S=4096 should read 103621: %v", err)
	}
	// Forced non-power-of-two partitions error.
	if _, err := Run(src, &wccProg{}, Config{Device: ssd(0), Partitions: 3}); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	// Missing device errors.
	if _, err := Run(src, &wccProg{}, Config{}); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestAutoPartitionsRespectBudget(t *testing.T) {
	// With a small budget the engine must pick K > 1 and still be right.
	src, _ := smallGraph(6)
	res, err := Run(src, &wccProg{}, Config{
		Device:       ssd(0),
		MemoryBudget: 512 << 10,
		IOUnit:       8 << 10,
		Threads:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions < 1 {
		t.Fatalf("partitions = %d", res.Stats.Partitions)
	}
	if res.Stats.BytesRead == 0 || res.Stats.BytesWritten == 0 {
		t.Fatalf("device bytes not accounted: %+v", res.Stats)
	}
}

func TestStatsAccounting(t *testing.T) {
	src, _ := smallGraph(7)
	res, err := Run(src, &wccProg{}, Config{Device: ssd(0), Threads: 2, IOUnit: 16 << 10, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.EdgesStreamed != src.NumEdges()*int64(s.Iterations) {
		t.Fatalf("edges streamed %d, want %d × %d", s.EdgesStreamed, src.NumEdges(), s.Iterations)
	}
	if s.EdgesStreamed != s.UpdatesSent+s.WastedEdges {
		t.Fatalf("accounting: %d != %d + %d", s.EdgesStreamed, s.UpdatesSent, s.WastedEdges)
	}
	if s.PreprocessTime <= 0 {
		t.Fatal("missing preprocess time")
	}
}

// ---- selective (frontier-aware) streaming ----

type bfsState struct {
	Dist    int32
	Updated int32
}

type bfsProg struct {
	root core.VertexID
	iter int32
}

func (b *bfsProg) Name() string { return "bfs-test" }

func (b *bfsProg) Init(id core.VertexID, v *bfsState) {
	if id == b.root {
		*v = bfsState{Dist: 0, Updated: 0}
	} else {
		*v = bfsState{Dist: -1, Updated: -1}
	}
}

func (b *bfsProg) StartIteration(iter int) { b.iter = int32(iter) }

func (b *bfsProg) Scatter(e core.Edge, src *bfsState) (int32, bool) {
	if src.Updated == b.iter {
		return src.Dist + 1, true
	}
	return 0, false
}

func (b *bfsProg) Gather(dst core.VertexID, v *bfsState, m int32) {
	if v.Dist < 0 {
		v.Dist = m
		v.Updated = b.iter + 1
	}
}

func (b *bfsProg) InitiallyActive(id core.VertexID, v *bfsState) bool { return id == b.root }

// TestSelectiveBFSDisk: a path graph keeps the BFS frontier one vertex
// wide, so the selective disk engine must skip whole edge files, skip
// tiles inside the frontier's own partition, read far fewer bytes — and
// still produce bit-identical state, across the bypass, no-bypass and
// vertex-spill configurations.
func TestSelectiveBFSDisk(t *testing.T) {
	src := graphgen.Chain(2048, 13)
	for _, variant := range []struct {
		name string
		mod  func(*Config)
	}{
		{"bypass", func(c *Config) {}},
		{"nobypass", func(c *Config) { c.NoUpdateBypass = true }},
		{"spill", func(c *Config) { *c = spilled(*c) }},
		{"noprefetch", func(c *Config) { c.NoPrefetch = true }},
	} {
		t.Run(variant.name, func(t *testing.T) {
			base := Config{Threads: 2, IOUnit: 16 << 10, Partitions: 8, TileEdges: 64}
			variant.mod(&base)
			offCfg := base
			offCfg.Device = ssd(0)
			off, err := Run(src, &bfsProg{root: 0}, offCfg)
			if err != nil {
				t.Fatal(err)
			}
			onCfg := base
			onCfg.Device = ssd(0)
			onCfg.Selective = true
			on, err := Run(src, &bfsProg{root: 0}, onCfg)
			if err != nil {
				t.Fatal(err)
			}

			for v := range off.Vertices {
				if on.Vertices[v] != off.Vertices[v] {
					t.Fatalf("vertex %d: selective %+v, dense %+v", v, on.Vertices[v], off.Vertices[v])
				}
			}
			s := on.Stats
			if s.EdgesStreamed+s.EdgesSkipped != off.Stats.EdgesStreamed {
				t.Fatalf("streamed %d + skipped %d != dense streamed %d",
					s.EdgesStreamed, s.EdgesSkipped, off.Stats.EdgesStreamed)
			}
			if s.PartitionsSkipped == 0 || s.TilesSkipped == 0 {
				t.Fatalf("expected partition and tile skips: %+v", s)
			}
			if s.EdgesStreamed*4 > off.Stats.EdgesStreamed {
				t.Fatalf("weak reduction: %d of %d edges streamed", s.EdgesStreamed, off.Stats.EdgesStreamed)
			}
			// Skipped edges are bytes never read from the device.
			if s.BytesRead*2 > off.Stats.BytesRead {
				t.Fatalf("expected <=half the device reads, got %d vs dense %d", s.BytesRead, off.Stats.BytesRead)
			}
			if off.Stats.EdgesSkipped != 0 || off.Stats.PartitionsSkipped != 0 {
				t.Fatalf("dense run reported skips: %+v", off.Stats)
			}
		})
	}
}

// TestSelectiveDiskMemParity: both engines under selective scheduling must
// agree with each other and with their dense selves on a scale-free graph.
func TestSelectiveDiskMemParity(t *testing.T) {
	src, _ := smallGraph(31)
	memRes, err := memengine.Run(src, &bfsProg{root: 3}, memengine.Config{Threads: 2, Selective: true})
	if err != nil {
		t.Fatal(err)
	}
	diskRes, err := Run(src, &bfsProg{root: 3}, Config{
		Device: ssd(0), Threads: 2, IOUnit: 32 << 10, Partitions: 8, Selective: true, TileEdges: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Run(src, &bfsProg{root: 3}, Config{
		Device: ssd(0), Threads: 2, IOUnit: 32 << 10, Partitions: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range memRes.Vertices {
		if diskRes.Vertices[v] != memRes.Vertices[v] {
			t.Fatalf("vertex %d: disk %+v, mem %+v", v, diskRes.Vertices[v], memRes.Vertices[v])
		}
		if diskRes.Vertices[v] != dense.Vertices[v] {
			t.Fatalf("vertex %d: selective %+v, dense %+v", v, diskRes.Vertices[v], dense.Vertices[v])
		}
	}
	if diskRes.Stats.EdgesStreamed+diskRes.Stats.EdgesSkipped != dense.Stats.EdgesStreamed {
		t.Fatalf("disk workload does not reconcile: %+v vs %d", diskRes.Stats, dense.Stats.EdgesStreamed)
	}
	if memRes.Stats.UpdatesSent != diskRes.Stats.UpdatesSent {
		t.Fatalf("updates sent: mem %d, disk %d", memRes.Stats.UpdatesSent, diskRes.Stats.UpdatesSent)
	}
}

// TestSelectiveIgnoredWithoutContractDisk mirrors the mem-engine test: no
// FrontierProgram, no skips.
func TestSelectiveIgnoredWithoutContractDisk(t *testing.T) {
	src, _ := smallGraph(32)
	res, err := Run(src, &wccProg{}, Config{
		Device: ssd(0), Threads: 2, IOUnit: 32 << 10, Partitions: 8, Selective: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.EdgesSkipped != 0 || s.PartitionsSkipped != 0 || s.TilesSkipped != 0 {
		t.Fatalf("selective fired without contract: %+v", s)
	}
	if s.EdgesStreamed != src.NumEdges()*int64(s.Iterations) {
		t.Fatalf("streamed %d, want dense %d", s.EdgesStreamed, src.NumEdges()*int64(s.Iterations))
	}
}

// TestDiskTilesSegments exercises the tile index directly: coverage
// mismatch falls back to a full scan, active tiles coalesce into maximal
// segments, and skipped record counts reconcile.
func TestDiskTilesSegments(t *testing.T) {
	dt := newDiskTiles(1, 4)
	edges := make([]core.Edge, 10)
	for i := range edges {
		edges[i].Src = core.VertexID(i * 10) // tiles span [0,30],[40,70],[80,90]
	}
	dt.observe(0, edges)
	dt.finish()
	if got := len(dt.parts[0]); got != 3 {
		t.Fatalf("tile count %d, want 3", got)
	}

	front := core.NewFrontier(100)
	front.Mark(45) // activates only the middle tile
	segs, skipRecs, skipTiles := dt.activeSegments(0, front, 10)
	if len(segs) != 1 || segs[0] != (recRange{4, 8}) {
		t.Fatalf("segments %+v, want [{4 8}]", segs)
	}
	if skipRecs != 6 || skipTiles != 2 {
		t.Fatalf("skipped %d recs / %d tiles, want 6 / 2", skipRecs, skipTiles)
	}

	// Adjacent active tiles coalesce.
	front.Mark(0)
	segs, skipRecs, skipTiles = dt.activeSegments(0, front, 10)
	if len(segs) != 1 || segs[0] != (recRange{0, 8}) {
		t.Fatalf("segments %+v, want [{0 8}]", segs)
	}
	if skipRecs != 2 || skipTiles != 1 {
		t.Fatalf("skipped %d recs / %d tiles, want 2 / 1", skipRecs, skipTiles)
	}

	// Coverage mismatch (index says 10 records, file has 12): full scan.
	segs, skipRecs, skipTiles = dt.activeSegments(0, front, 12)
	if len(segs) != 1 || segs[0] != (recRange{0, 12}) || skipRecs != 0 || skipTiles != 0 {
		t.Fatalf("fallback segments %+v (skip %d/%d), want full scan", segs, skipRecs, skipTiles)
	}
}
