package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
	"repro/internal/partition2ps"
)

// figcompress quantifies what the compressed tile codec buys the
// out-of-core engine: the edge stream dominates X-Stream's I/O volume
// (§5.2 — every scatter re-reads the full edge list), so shrinking edge
// files at rest cuts physical reads on every iteration. The workload is
// PageRank (dense, every tile read every pass) and selective BFS
// (compression composing with tile skipping) over an RMAT graph under the
// 2PS layout, whose source-contiguous tiles are what the codec
// exploits; each algorithm runs once on raw tiles and once compressed.
// The headline metrics are the physical BytesRead pair — the compressed
// run must land well under the raw one while BytesReadLogical stays
// identical (the byte-level witness that both runs streamed the same
// records; the BFS rows additionally compare vertex states bit-for-bit).
// All metrics are deterministic work measures, gated by cmd/benchgate.
func init() {
	register("figcompress", "Compressed edge tiles: physical vs logical bytes out of core", runFigCompress)
}

// figCompressRun is one out-of-core run at figcompress's fixed layout.
func figCompressRun[V, M any](cfg Config, src core.EdgeSource, prog core.Program[V, M], selective, compress bool) (*diskengine.Result[V], error) {
	return diskengine.Run(src, prog, diskengine.Config{
		Device:        ssdDev("compress", 0),
		Threads:       cfg.Threads,
		IOUnit:        32 << 10,
		Partitions:    16,
		Partitioner:   partition2ps.New(),
		Selective:     selective,
		CompressTiles: compress,
	})
}

func runFigCompress(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(16, 12)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 81})

	t := &Table{
		ID: "figcompress",
		Title: fmt.Sprintf("Block-compressed edge tiles, RMAT scale %d (2PS layout), K=16",
			scale),
		Columns: []string{"algorithm", "selective", "tiles", "iters",
			"bytes-read", "bytes-logical", "tiles-coded", "layout-ratio", "total"},
	}

	addRow := func(algo string, selective bool, s core.Stats, compress bool) {
		sel, tilesCol, ratio := "off", "raw", "-"
		if selective {
			sel = "on"
		}
		if compress {
			tilesCol = "compressed"
			ratio = fmt.Sprintf("%.2f", s.CompressedRatio)
		}
		t.Rows = append(t.Rows, []string{
			algo, sel, tilesCol,
			fmt.Sprintf("%d", s.Iterations),
			fmt.Sprintf("%d", s.BytesRead),
			fmt.Sprintf("%d", s.BytesReadLogical),
			fmt.Sprintf("%d", s.TilesCompressed),
			ratio,
			fmtDur(s.TotalTime),
		})
	}

	// PageRank: dense scatter, every tile read on every iteration — the
	// pure storage-layer comparison.
	var prStats [2]core.Stats
	for i, compress := range []bool{false, true} {
		res, err := figCompressRun(cfg, src, algorithms.NewPageRank(5), false, compress)
		if err != nil {
			return nil, fmt.Errorf("pagerank compress=%v: %w", compress, err)
		}
		prStats[i] = res.Stats
		addRow("pagerank", false, res.Stats, compress)
	}
	if prStats[1].BytesReadLogical != prStats[0].BytesReadLogical {
		return nil, fmt.Errorf("pagerank: compressed logical volume %d != raw %d — streams diverged",
			prStats[1].BytesReadLogical, prStats[0].BytesReadLogical)
	}
	t.SetMetric("pagerank_disk_bytes_read_uncompressed", float64(prStats[0].BytesRead))
	t.SetMetric("pagerank_disk_bytes_read_compressed", float64(prStats[1].BytesRead))
	t.SetMetric("pagerank_disk_compressed_ratio", prStats[1].CompressedRatio)

	// Selective BFS: compression beneath the tile-skipping planner, with
	// the decoded vertex states compared bit-for-bit (integer min lattice,
	// so thread count cannot excuse a mismatch).
	var bfsStats [2]core.Stats
	var bfsVerts [2][]algorithms.BFSState
	for i, compress := range []bool{false, true} {
		res, err := figCompressRun(cfg, src, algorithms.NewBFS(0), true, compress)
		if err != nil {
			return nil, fmt.Errorf("bfs compress=%v: %w", compress, err)
		}
		bfsStats[i] = res.Stats
		bfsVerts[i] = res.Vertices
		addRow("bfs", true, res.Stats, compress)
	}
	for v := range bfsVerts[0] {
		if bfsVerts[0][v] != bfsVerts[1][v] {
			return nil, fmt.Errorf("bfs vertex %d: raw %+v, compressed %+v — not bit-identical",
				v, bfsVerts[0][v], bfsVerts[1][v])
		}
	}
	t.SetMetric("bfs_selective_disk_bytes_read_uncompressed", float64(bfsStats[0].BytesRead))
	t.SetMetric("bfs_selective_disk_bytes_read_compressed", float64(bfsStats[1].BytesRead))
	t.SetMetric("bfs_selective_disk_compressed_ratio", bfsStats[1].CompressedRatio)

	for _, a := range []struct {
		name string
		s    [2]core.Stats
	}{{"pagerank", prStats}, {"bfs+selective", bfsStats}} {
		if raw := float64(a.s[0].BytesRead); raw > 0 {
			cmp := float64(a.s[1].BytesRead)
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: compressed tiles read %.1f%% fewer physical bytes (%.0f -> %.0f), layout at %.2f of raw",
				a.name, 100*(1-cmp/raw), raw, cmp, a.s[1].CompressedRatio))
		}
	}
	return t, nil
}
