package diskengine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/memengine"
	"repro/internal/partition2ps"
	"repro/internal/storage"
	"repro/internal/tilecodec"
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

// TestEngineParityNoBypass: a window smaller than an iteration's updates
// takes them through the update files instead of the §3.2 bypass.
func TestEngineParityNoBypass(t *testing.T) {
	runBothWCC(t, spillsUpdates(t, Config{Device: ssd(0), Threads: 2, IOUnit: 4 << 10, Partitions: 4}))
}

func TestEngineParityNoPrefetch(t *testing.T) {
	runBothWCC(t, Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 4, NoPrefetch: true})
}

func TestEngineParitySeparateUpdateDevice(t *testing.T) {
	upd := storage.NewSim(storage.SSDParams("upd", 1, 0))
	runBothWCC(t, spillsUpdates(t, Config{Device: ssd(0), UpdateDevice: upd, Threads: 2, IOUnit: 4 << 10, Partitions: 4}))
}

func TestEngineParitySingleThread(t *testing.T) {
	runBothWCC(t, Config{Device: ssd(0), Threads: 1, IOUnit: 16 << 10, Partitions: 2})
}

func TestEngineParityOSDevice(t *testing.T) {
	dev, err := storage.NewOS("os", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	upd, err := storage.NewOS("upd", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runBothWCC(t, spillsUpdates(t, spilled(Config{Device: dev, UpdateDevice: upd, Threads: 2, IOUnit: 4 << 10, Partitions: 4})))
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

// spillsUpdates returns cfg with its update files on a device of their own
// (cfg's UpdateDevice, or a fresh simulated SSD) and fails t at the end of
// the test unless a run under cfg appended to them: cfg must force
// Partitions and an IOUnit whose window, IOUnit·Partitions bytes, is smaller
// than an iteration's updates.
func spillsUpdates(t *testing.T, cfg Config) Config {
	t.Helper()
	if cfg.UpdateDevice == nil {
		cfg.UpdateDevice = storage.NewSim(storage.SSDParams("upd", 1, 0))
	}
	upd := cfg.UpdateDevice
	t.Cleanup(func() {
		if upd.Stats().BytesWritten == 0 {
			t.Errorf("no update was spilled: a %d-byte window held every iteration", cfg.IOUnit*cfg.Partitions)
		}
	})
	return cfg
}

func TestUpdateFilesTrimmed(t *testing.T) {
	src, _ := smallGraph(4)
	cfg := spillsUpdates(t, Config{Device: ssd(0), Threads: 2, IOUnit: 4 << 10, Partitions: 4})
	if _, err := Run(src, &wccProg{}, cfg); err != nil {
		t.Fatal(err)
	}
	// Removing the four update files at the end of the run trims each of
	// them once; every other trim is a drained file truncated.
	if s := cfg.UpdateDevice.Stats(); s.Trims <= 4 {
		t.Fatalf("update files were never truncated (TRIM, §3.3): %d trims", s.Trims)
	}
}

func TestInjectedFaultSurfaces(t *testing.T) {
	inner := ssd(0)
	dev := storage.NewFaulty(inner, storage.FaultyOptions{FailAfterOps: 30})
	src, _ := smallGraph(5)
	_, err := Run(src, &wccProg{}, Config{Device: dev, Threads: 2, IOUnit: 4 << 10, Partitions: 4})
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
// still produce bit-identical state, across the in-memory, vertex-spill and
// no-prefetch configurations. (A one-vertex frontier sends two updates an
// iteration, fewer than any window holds, so updates never spill here;
// TestSelectiveDiskMemParity covers selective runs whose updates do.)
func TestSelectiveBFSDisk(t *testing.T) {
	src := graphgen.Chain(2048, 13)
	for _, variant := range []struct {
		name string
		mod  func(*Config)
	}{
		{"bypass", func(c *Config) {}},
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

// TestSelectiveCliqueChainReadsItsEdgesTwice: a selective BFS over the
// benchmark's layout (clique chain, 2PS, compressed tiles, the default tile
// size) streams at most twice the graph's edge records in a whole run. Each
// clique is reached through one entry vertex and then its other members, so
// a tight frontier streams every edge about once; the tile granularity and
// receivers that changed nothing are what push a run past that.
func TestSelectiveCliqueChainReadsItsEdgesTwice(t *testing.T) {
	src := graphgen.CliqueChain(128, 48, 7)
	res, err := RunJob(context.Background(), src, core.NewJob[bfsState, int32](&bfsProg{root: 0}), Config{
		Device: ssd(0), Threads: 2, Partitions: 8, IOUnit: 16 << 10,
		Partitioner: partition2ps.New(), Selective: true, CompressTiles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, edges := res.Stats, src.NumEdges()
	t.Logf("%d iterations stream %d records of %d (%.2fx), %d tiles skipped",
		st.Iterations, st.EdgesStreamed, edges, float64(st.EdgesStreamed)/float64(edges), st.TilesSkipped)
	if st.Iterations < 256 || st.TilesSkipped == 0 {
		t.Fatalf("workload lost its shape: %d iterations, %d tiles skipped", st.Iterations, st.TilesSkipped)
	}
	if st.EdgesStreamed > 2*edges {
		t.Errorf("a selective BFS streams %d edge records, more than twice the graph's %d", st.EdgesStreamed, edges)
	}
}

// TestBlockSkipsMatchBlockSizedTiles: a tile read delivers exactly the
// blocks whose span meets a needing run's frontier, and a block of a
// tile of TileEdges records is the same run of records as a tile of
// tilecodec.BlockRecs records, whose span it shares. So a shared pass of
// two selective BFS jobs over 1024-record tiles streams and skips exactly
// the records the same pass over 64-record tiles does — pass and jobs,
// raw and compressed, each reconciling with the dense stream — and reaches
// the same vertices. Without block skipping the 1024-record pass would
// stream whole tiles.
func TestBlockSkipsMatchBlockSizedTiles(t *testing.T) {
	src := graphgen.CliqueChain(64, 24, 5)
	roots := []core.VertexID{0, core.VertexID(src.NumVertices() - 1)}
	run := func(tileEdges int, compressed, selective bool) ([]core.JobResult, core.Stats) {
		t.Helper()
		set := core.ProgramSet{}
		for _, root := range roots {
			set = append(set, core.NewJob[bfsState, int32](&bfsProg{root: root}))
		}
		res, pass, err := RunMany(context.Background(), src, set, Config{
			Device: ssd(0), Threads: 2, Partitions: 4, IOUnit: 16 << 10, TileEdges: tileEdges,
			Partitioner: partition2ps.New(), Selective: selective, CompressTiles: compressed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, pass
	}
	for _, compressed := range []bool{false, true} {
		_, dense := run(1024, compressed, false)
		blockRes, block := run(tilecodec.BlockRecs, compressed, true)
		tileRes, tiled := run(1024, compressed, true)
		if tiled.EdgesStreamed != block.EdgesStreamed || tiled.EdgesSkipped != block.EdgesSkipped || tiled.UpdatesSent != block.UpdatesSent {
			t.Fatalf("compressed %v: 1024-record tiles stream %d and skip %d records (%d updates), %d-record tiles %d and %d (%d)",
				compressed, tiled.EdgesStreamed, tiled.EdgesSkipped, tiled.UpdatesSent,
				tilecodec.BlockRecs, block.EdgesStreamed, block.EdgesSkipped, block.UpdatesSent)
		}
		if tiled.EdgesStreamed+tiled.EdgesSkipped != dense.EdgesStreamed || tiled.TilesSkipped == 0 {
			t.Fatalf("compressed %v: pass streams %d and skips %d records (%d tiles), the dense pass %d",
				compressed, tiled.EdgesStreamed, tiled.EdgesSkipped, tiled.TilesSkipped, dense.EdgesStreamed)
		}
		for j := range tileRes {
			st := tileRes[j].Stats
			if st.EdgesStreamed+st.EdgesSkipped != dense.EdgesStreamed {
				t.Fatalf("compressed %v job %d: streams %d and skips %d records, the dense pass %d",
					compressed, j, st.EdgesStreamed, st.EdgesSkipped, dense.EdgesStreamed)
			}
			if !reflect.DeepEqual(tileRes[j].Vertices, blockRes[j].Vertices) {
				t.Fatalf("compressed %v job %d: vertices differ between tile sizes", compressed, j)
			}
		}
	}
}

// TestSelectiveDiskMemParity: both engines under selective scheduling must
// agree with each other and with their dense selves on a scale-free graph,
// out of core also when the updates spill.
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
	spill, err := Run(src, &bfsProg{root: 3}, spillsUpdates(t, Config{
		Device: ssd(0), Threads: 2, IOUnit: 1 << 10, Partitions: 8, Selective: true, TileEdges: 512,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for v := range memRes.Vertices {
		if spill.Vertices[v] != memRes.Vertices[v] {
			t.Fatalf("vertex %d: spilled selective disk %+v, mem %+v", v, spill.Vertices[v], memRes.Vertices[v])
		}
	}
	if spill.Stats.UpdatesSent != diskRes.Stats.UpdatesSent || spill.Stats.EdgesStreamed != diskRes.Stats.EdgesStreamed {
		t.Fatalf("spilled selective run: %d updates, %d edges; in memory %d, %d",
			spill.Stats.UpdatesSent, spill.Stats.EdgesStreamed, diskRes.Stats.UpdatesSent, diskRes.Stats.EdgesStreamed)
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

// TestDiskTilesSegments exercises the tile index through the partition
// plan: needed tiles become segments, adjacent ones coalesce and skipped
// record counts reconcile.
func TestDiskTilesSegments(t *testing.T) {
	dt := newDiskTiles(1, Config{TileEdges: 4, Selective: true})
	edges := make([]core.Edge, 10)
	for i := range edges {
		edges[i].Src = core.VertexID(i * 10) // tiles span [0,30],[40,70],[80,90]
	}
	w := newTileWriter([]*partFile{mustPart(t, ssd(0), "segs")}, dt)
	if err := w.append(0, edges); err != nil {
		t.Fatal(err)
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	if got := len(dt.parts[0]); got != 3 {
		t.Fatalf("tile count %d, want 3", got)
	}

	const nv = 100
	for _, c := range []struct {
		what              string
		active            []core.VertexID
		lo, hi            int64
		skipRecs, skipTls int64
	}{
		{"only the middle tile is needed", []core.VertexID{50}, 4, 8, 6, 2},
		{"adjacent needed tiles coalesce", []core.VertexID{10, 50}, 0, 8, 2, 1},
	} {
		s := new(core.Schedule)
		s.InitSchedule(core.NewSplit(nv, 1), nv, true)
		for _, v := range c.active {
			s.Seed(v)
		}
		s.Recount()
		var plan core.PartitionPlan
		plan.Plan([]core.JobRun{scheduleRun{s: s}}, 0, dt.totalRecs(0), int(dt.tileRecs), dt.tileIndex())
		var segs []edgeSegment
		for _, run := range plan.Runs {
			segs = append(segs, dt.segment(0, run.First, run.End))
		}
		if len(segs) != 1 || segs[0].lo != c.lo || segs[0].hi != c.hi {
			t.Fatalf("%s: segments %+v, want [{%d %d}]", c.what, segs, c.lo, c.hi)
		}
		var pass, job core.Stats
		plan.Book(&pass)
		s.TakeSkips(&job)
		for _, st := range []core.Stats{pass, job} {
			if st.EdgesSkipped != c.skipRecs || st.TilesSkipped != c.skipTls {
				t.Fatalf("%s: skipped %d recs / %d tiles, want %d / %d", c.what, st.EdgesSkipped, st.TilesSkipped, c.skipRecs, c.skipTls)
			}
		}
	}
}

// satisfies reports whether K partitions fit the §3.4 inequality
// N/K + B·S·K ≤ M.
func satisfies(n, b int64, s int, m int64, k int64) bool { return n/k+b*int64(s)*k <= m }

// TestDiskPartitionsInequality: §3.4's worked example — N = 1 TB of vertex
// data, S = 16 MB and one run's five stream buffers need about 17 GB —
// sizes K as the smallest power of two that satisfies the inequality, and
// a budget under the minimum is an error naming it.
func TestDiskPartitionsInequality(t *testing.T) {
	n, s := int64(1)<<40, 16<<20
	k, err := partitionCount(n, 5, s, 18<<30)
	if err != nil {
		t.Fatal(err)
	}
	if k&(k-1) != 0 || !satisfies(n, 5, s, 18<<30, int64(k)) || k > 1 && satisfies(n, 5, s, 18<<30, int64(k/2)) {
		t.Fatalf("K = %d is not the smallest power of two satisfying the inequality", k)
	}
	// The minimum, 2·sqrt(5NS), is 19 207 677 669 bytes (≈ 17.9 GiB).
	if _, err := partitionCount(n, 5, s, 1<<30); err == nil || !strings.Contains(err.Error(), "need ≥ 19207677669 bytes") {
		t.Fatalf("a 1 GiB budget: %v, want an error naming the minimum", err)
	}
}

// TestDiskPartitionsProperty: for any vertex volume, run count and budget,
// partitionCount returns the smallest power of two satisfying the
// inequality, or an error naming the minimum when no power of two does.
func TestDiskPartitionsProperty(t *testing.T) {
	const s = 1 << 20
	f := func(nRaw uint32, runsRaw uint8, budgetRaw uint32) bool {
		n := int64(nRaw) + 1
		b := 2 + 3*(int64(runsRaw)%4+1)
		m := int64(budgetRaw)%(1<<30) + 16<<20
		k, err := partitionCount(n, b, s, m)
		if err != nil {
			for k := int64(1); k <= 1<<20; k <<= 1 {
				if satisfies(n, b, s, m, k) {
					return false
				}
			}
			return strings.Contains(err.Error(), "need ≥")
		}
		return k&(k-1) == 0 && satisfies(n, b, s, m, int64(k)) && (k == 1 || !satisfies(n, b, s, m, int64(k/2)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
