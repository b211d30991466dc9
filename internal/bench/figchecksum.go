package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
)

// figchecksum prices the fault-tolerance layer in work metrics: read-path
// CRC32C verification of every on-disk artifact, and per-iteration
// checkpointing of vertex state. The workload is dense PageRank (every
// byte of every edge file re-read each iteration — the worst case for
// verification coverage) plus selective BFS over compressed tiles (the
// per-tile CRC path) over an RMAT graph on the simulated SSD.
//
// Three claims, each one a gated metric:
//   - verification is I/O-free: the checksums ride inside frames already
//     written, so the verified and NoVerify runs must read *identical*
//     physical bytes (asserted, and the verified coverage is pinned as
//     bytes-checksummed — a drop means part of the read path silently
//     stopped being verified);
//   - verification is result-free: verified and unverified vertex states
//     compare bit-for-bit;
//   - checkpointing costs only its snapshots: the write overhead is
//     pinned so checkpoint volume can't grow unnoticed.
//
// All metrics are deterministic work measures, gated by cmd/benchgate;
// wall time appears only for trend tracking.
func init() {
	register("figchecksum", "Checksummed artifacts and checkpoints: verification coverage and write overhead", runFigChecksum)
}

// figChecksumRun is one out-of-core run at figchecksum's fixed layout.
func figChecksumRun[V, M any](cfg Config, src core.EdgeSource, prog core.Program[V, M], mod func(*diskengine.Config)) (*diskengine.Result[V], error) {
	dc := diskengine.Config{
		Device:     ssdDev("checksum", 0),
		Threads:    cfg.Threads,
		IOUnit:     32 << 10,
		Partitions: 16,
	}
	mod(&dc)
	return diskengine.Run(src, prog, dc)
}

func runFigChecksum(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(16, 12)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 83})

	t := &Table{
		ID: "figchecksum",
		Title: fmt.Sprintf("Checksummed artifacts and checkpoints, RMAT scale %d, K=16",
			scale),
		Columns: []string{"algorithm", "verify", "checkpoint", "iters",
			"bytes-read", "bytes-checksummed", "bytes-written", "total"},
	}

	addRow := func(algo string, s core.Stats, verify, ckpt bool) {
		onOff := func(b bool) string {
			if b {
				return "on"
			}
			return "off"
		}
		t.Rows = append(t.Rows, []string{
			algo, onOff(verify), onOff(ckpt),
			fmt.Sprintf("%d", s.Iterations),
			fmt.Sprintf("%d", s.BytesRead),
			fmt.Sprintf("%d", s.BytesChecksummed),
			fmt.Sprintf("%d", s.BytesWritten),
			fmtDur(s.TotalTime),
		})
	}

	// PageRank, verified (default) vs NoVerify: same physical reads, same
	// bits out, and the verified run's coverage is the headline metric.
	// A solo run compares bit for bit and byte for byte at any thread count
	// (it scatters a partition through one kernel), so the runs take the
	// figure's thread count.
	var prStats [2]core.Stats
	var prVerts [2][]algorithms.PRState
	for i, noVerify := range []bool{false, true} {
		res, err := figChecksumRun(cfg, src, algorithms.NewPageRank(5),
			func(dc *diskengine.Config) { dc.NoVerify = noVerify })
		if err != nil {
			return nil, fmt.Errorf("pagerank noverify=%v: %w", noVerify, err)
		}
		prStats[i] = res.Stats
		prVerts[i] = res.Vertices
		addRow("pagerank", res.Stats, !noVerify, false)
	}
	if prStats[0].ChecksumFailures != 0 {
		return nil, fmt.Errorf("pagerank: %d checksum failures on a healthy device", prStats[0].ChecksumFailures)
	}
	if prStats[0].BytesChecksummed == 0 {
		return nil, fmt.Errorf("pagerank: verified run checksummed nothing — read-path verification inactive")
	}
	if prStats[1].BytesChecksummed != 0 {
		return nil, fmt.Errorf("pagerank: NoVerify run still checksummed %d bytes", prStats[1].BytesChecksummed)
	}
	if prStats[0].BytesRead != prStats[1].BytesRead {
		return nil, fmt.Errorf("pagerank: verification changed physical reads (%d verified vs %d unverified) — checksums must ride inline",
			prStats[0].BytesRead, prStats[1].BytesRead)
	}
	for v := range prVerts[0] {
		if prVerts[0][v] != prVerts[1][v] {
			return nil, fmt.Errorf("pagerank vertex %d: verified %+v, unverified %+v — not bit-identical",
				v, prVerts[0][v], prVerts[1][v])
		}
	}
	t.SetMetric("pagerank_disk_bytes_read", float64(prStats[0].BytesRead))
	t.SetMetric("pagerank_disk_bytes_checksummed", float64(prStats[0].BytesChecksummed))

	// PageRank with checkpoints: the write overhead is exactly the
	// snapshot volume, pinned so it can't silently grow.
	ckptRes, err := figChecksumRun(cfg, src, algorithms.NewPageRank(5),
		func(dc *diskengine.Config) { dc.Checkpoint = true })
	if err != nil {
		return nil, fmt.Errorf("pagerank checkpoint: %w", err)
	}
	addRow("pagerank", ckptRes.Stats, true, true)
	overhead := ckptRes.Stats.BytesWritten - prStats[0].BytesWritten
	if overhead <= 0 {
		return nil, fmt.Errorf("pagerank: checkpointed run wrote %d bytes vs %d without — no snapshot volume recorded",
			ckptRes.Stats.BytesWritten, prStats[0].BytesWritten)
	}
	t.SetMetric("pagerank_checkpoint_bytes_written_overhead", float64(overhead))

	// Selective BFS over compressed tiles: the per-tile CRC path, where
	// verification covers the *encoded* bytes the planner actually reads.
	bfsRes, err := figChecksumRun(cfg, src, algorithms.NewBFS(0),
		func(dc *diskengine.Config) { dc.Selective = true; dc.CompressTiles = true })
	if err != nil {
		return nil, fmt.Errorf("bfs selective compressed: %w", err)
	}
	addRow("bfs", bfsRes.Stats, true, false)
	if bfsRes.Stats.BytesChecksummed == 0 {
		return nil, fmt.Errorf("bfs: compressed-tile run checksummed nothing")
	}
	t.SetMetric("bfs_selective_disk_bytes_checksummed", float64(bfsRes.Stats.BytesChecksummed))

	if r := float64(prStats[0].BytesRead); r > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"pagerank: verification covered %.0f%% of physical reads at zero extra I/O; checkpoints added %d written bytes (%.1f%% of the run's writes)",
			100*float64(prStats[0].BytesChecksummed)/r, overhead,
			100*float64(overhead)/float64(ckptRes.Stats.BytesWritten)))
	}
	return t, nil
}
