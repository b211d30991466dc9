package bench

import (
	"context"
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
	"repro/internal/graphio"
	"repro/internal/memengine"
	"repro/internal/partition2ps"
)

// figfrontier quantifies what frontier-aware selective streaming buys on
// X-Stream's worst case: a traversal over a high-diameter graph, where the
// paper's stream-everything design re-reads the whole edge list once per
// frontier hop (§5.3) and almost all of it is wasted. The workload is BFS
// over a clique-chain — hundreds of iterations, frontier never wider than
// a couple of cliques — run with selective scheduling off and on, on both
// engines. The headline metrics are EdgesStreamed (and, out of core,
// BytesRead: a skipped partition's edge file is never read), which must
// drop multi-x; EdgesSkipped/PartitionsSkipped/TilesSkipped decompose the
// elision. A second input shuffles the vertex IDs and re-runs the
// in-memory engine under range vs 2PS partitioning: the locality
// partitioner re-packs cliques into contiguous ranges, concentrating the
// frontier into fewer partitions and making skips more likely — the
// composition of PR 1's partitioner layer with this PR's scheduler. All
// metrics are deterministic work measures, gated by cmd/benchgate.
//
// Two BFS jobs from opposite ends of the chain then share one pass on both
// engines, so their skips gate the union of two frontiers' tile plans. A
// last input, a path, runs ≥ 10⁴ iterations of a one-vertex frontier on
// both engines at their default tile sizes.
func init() {
	register("figfrontier", "Frontier-aware selective streaming: BFS skips on a high-diameter graph", runFigFrontier)
}

func runFigFrontier(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cliques := cfg.pick(384, 48)
	cliqueSize := cfg.pick(16, 8)
	memParts := cfg.pick(64, 16)
	diskParts := 16
	tile := cfg.pick(2048, 64)

	chain := graphgen.CliqueChain(cliques, cliqueSize, 11)
	shuffled := graphio.Relabeled(chain, randomPerm(chain.NumVertices(), 11))

	t := &Table{
		ID: "figfrontier",
		Title: fmt.Sprintf("Selective streaming, clique-chain %d x %d (diameter ~%d), K=%d",
			cliques, cliqueSize, 2*cliques, memParts),
		Columns: []string{"graph", "engine", "partitioner", "selective", "iters",
			"streamed", "skipped", "parts-skipped", "tiles-skipped", "bytes-read", "total"},
	}

	addRow := func(graph string, s core.Stats, selective bool) {
		mode := "off"
		if selective {
			mode = "on"
		}
		t.Rows = append(t.Rows, []string{
			graph, s.Engine, s.Partitioner, mode,
			fmt.Sprintf("%d", s.Iterations),
			fmt.Sprintf("%d", s.EdgesStreamed),
			fmt.Sprintf("%d", s.EdgesSkipped),
			fmt.Sprintf("%d", s.PartitionsSkipped),
			fmt.Sprintf("%d", s.TilesSkipped),
			fmt.Sprintf("%d", s.BytesRead),
			fmtDur(s.TotalTime),
		})
	}

	// In-memory and out-of-core engines, selective off vs on.
	streamedBy := map[string]float64{}
	for _, selective := range []bool{false, true} {
		sel := selective
		mode := "off"
		if sel {
			mode = "on"
		}
		ms, err := runOn(chain, algorithms.NewBFS(0), nil, cfg, func(mc *core.Config) {
			mc.Partitions = memParts
			mc.Selective = sel
			mc.TileEdges = tile
		})
		if err != nil {
			return nil, fmt.Errorf("mem selective=%v: %w", sel, err)
		}
		addRow("chain", ms, sel)
		t.SetMetric("bfs_mem_edges_streamed_"+mode, float64(ms.EdgesStreamed))
		streamedBy["mem_"+mode] = float64(ms.EdgesStreamed)

		ds, err := runOn(chain, algorithms.NewBFS(0), ssdDev("frontier", 0), cfg, func(dc *core.Config) {
			dc.Partitions = diskParts
			dc.Selective = sel
			dc.TileEdges = tile
			dc.IOUnit = 32 << 10
		})
		if err != nil {
			return nil, fmt.Errorf("disk selective=%v: %w", sel, err)
		}
		addRow("chain", ds, sel)
		t.SetMetric("bfs_disk_edges_streamed_"+mode, float64(ds.EdgesStreamed))
		t.SetMetric("bfs_disk_bytes_read_"+mode, float64(ds.BytesRead))
		streamedBy["disk_"+mode] = float64(ds.EdgesStreamed)
		streamedBy["diskbytes_"+mode] = float64(ds.BytesRead)
	}
	for _, eng := range []string{"mem", "disk"} {
		if off := streamedBy[eng+"_off"]; off > 0 {
			on := streamedBy[eng+"_on"]
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: selective streams %.2fx fewer edges (%.0f -> %.0f)", eng, off/on, off, on))
		}
	}
	if off := streamedBy["diskbytes_off"]; off > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"disk: selective reads %.2fx fewer bytes (%.0f -> %.0f)",
			off/streamedBy["diskbytes_on"], off, streamedBy["diskbytes_on"]))
	}

	// Composition with the locality partitioner: on a shuffled input the
	// range split scatters every clique across partitions (frontiers touch
	// many), while 2PS re-clusters them so selective skips recover.
	shufBy := map[string]float64{}
	for _, v := range []struct {
		name string
		part core.Partitioner
	}{
		{"range", core.RangePartitioner{}},
		{"2ps", partition2ps.New()},
	} {
		s, err := runOn(shuffled, algorithms.NewBFS(0), nil, cfg, func(mc *core.Config) {
			mc.Partitions = memParts
			mc.Partitioner = v.part
			mc.Selective = true
			mc.TileEdges = tile
		})
		if err != nil {
			return nil, fmt.Errorf("shuffled/%s: %w", v.name, err)
		}
		addRow("chain-shuffled", s, true)
		t.SetMetric("bfs_shuffled_mem_edges_streamed_"+v.name, float64(s.EdgesStreamed))
		shufBy[v.name] = float64(s.EdgesStreamed)
	}
	if r := shufBy["range"]; r > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"shuffled input: 2PS-packed frontiers stream %.2fx the edges of range (%.0f vs %.0f)",
			shufBy["2ps"]/r, shufBy["2ps"], r))
	}

	// Two BFS roots, one at each end of the chain, in one shared pass: a
	// partition either frontier reaches is planned for the union of both,
	// so the pass's skips gate the union tile plan on both engines.
	twoRoots := func() core.ProgramSet {
		return core.ProgramSet{
			core.NewJob(algorithms.NewBFS(0)),
			core.NewJob(algorithms.NewBFS(core.VertexID(chain.NumVertices() - 1))),
		}
	}
	_, mp, err := memengine.RunMany(context.Background(), chain, twoRoots(), memengine.Config{
		Threads: cfg.Threads, Partitions: memParts, Selective: true, TileEdges: tile,
	})
	if err != nil {
		return nil, fmt.Errorf("two roots/mem: %w", err)
	}
	_, dp, err := diskengine.RunMany(context.Background(), chain, twoRoots(), diskengine.Config{
		Device: ssdDev("frontier-two", 0), Threads: cfg.Threads, IOUnit: 32 << 10,
		Partitions: diskParts, Selective: true, TileEdges: tile,
	})
	if err != nil {
		return nil, fmt.Errorf("two roots/disk: %w", err)
	}
	for _, r := range []struct {
		eng string
		s   core.Stats
	}{{"mem", mp}, {"disk", dp}} {
		addRow("chain, 2 roots", r.s, true)
		t.SetMetric("bfs_two_roots_"+r.eng+"_edges_skipped", float64(r.s.EdgesSkipped))
		t.SetMetric("bfs_two_roots_"+r.eng+"_tiles_skipped", float64(r.s.TilesSkipped))
	}

	// A path keeps the frontier one vertex wide for ≥ 10⁴ iterations at the
	// engines' default tile sizes: an iteration streams the tile or two
	// holding its one source, so EdgesStreamed and TilesSkipped gate what
	// one iteration costs on the longest traversal there is.
	path := graphgen.Chain(int64(cfg.pick(20_001, 10_001)), 11)
	ms, err := runOn(path, algorithms.NewBFS(0), nil, cfg, func(mc *core.Config) {
		mc.Partitions = memParts
		mc.Selective = true
	})
	if err != nil {
		return nil, fmt.Errorf("path/mem: %w", err)
	}
	ds, err := runOn(path, algorithms.NewBFS(0), ssdDev("frontier-path", 0), cfg, func(dc *core.Config) {
		dc.Partitions = diskParts
		dc.Selective = true
		dc.IOUnit = 32 << 10
	})
	if err != nil {
		return nil, fmt.Errorf("path/disk: %w", err)
	}
	for _, r := range []struct {
		eng string
		s   core.Stats
	}{{"mem", ms}, {"disk", ds}} {
		addRow("path", r.s, true)
		t.SetMetric("bfs_path_"+r.eng+"_edges_streamed", float64(r.s.EdgesStreamed))
		t.SetMetric("bfs_path_"+r.eng+"_tiles_skipped", float64(r.s.TilesSkipped))
		t.Notes = append(t.Notes, fmt.Sprintf("path, %s: %d iterations stream %.1f edge records each",
			r.eng, r.s.Iterations, float64(r.s.EdgesStreamed)/float64(r.s.Iterations)))
	}
	return t, nil
}
