package bench

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
	"repro/internal/memengine"
)

// figtransport pins the traffic of the two update transports
// (core.UpdateTransport): all-active WCC through the in-memory engine's
// builtin shuffle and selective BFS through the out-of-core engine's
// update-file writeback. Each run's update count and the transport's own
// counters — batches sent and bytes moved — are gated metrics, so a change
// to the scatter kernel, the combining cache or either transport that
// shifts what crosses the seam shows in the baseline (every other
// experiment's pinned update/stream metrics gate the same seam across its
// own workloads).
func init() {
	register("figtransport", "Update-transport traffic: the builtin shuffle and the update-file writeback", runFigTransport)
}

func runFigTransport(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(14, 10)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 98, Undirected: true})

	wcc, err := memengine.Run(src, algorithms.NewWCC(), memengine.Config{Threads: cfg.Threads, Partitions: 16})
	if err != nil {
		return nil, fmt.Errorf("wcc/mem: %w", err)
	}
	// The frontier varies the per-iteration update volume, so the transport
	// counters track a non-trivial shape.
	bfs, err := diskengine.Run(src, algorithms.NewBFS(0), diskengine.Config{
		Device: ssdDev("transport", 0), Threads: cfg.Threads,
		IOUnit: 32 << 10, Partitions: 16, Selective: true,
	})
	if err != nil {
		return nil, fmt.Errorf("bfs/disk: %w", err)
	}

	t := &Table{
		ID:      "figtransport",
		Title:   fmt.Sprintf("Update-transport traffic in work metrics, RMAT scale %d", scale),
		Columns: []string{"workload", "transport", "iters", "updates-sent", "batches", "bytes", "total"},
	}
	for _, r := range []struct {
		workload, transport, metric string
		s                           core.Stats
	}{
		{"wcc/mem", "shuffle", "wcc_mem", wcc.Stats},
		{"bfs/disk", "update-files", "bfs_disk", bfs.Stats},
	} {
		if r.s.TransportBatches == 0 {
			return nil, fmt.Errorf("%s: the transport reported no batches", r.workload)
		}
		t.Rows = append(t.Rows, []string{
			r.workload, r.transport,
			fmt.Sprintf("%d", r.s.Iterations),
			fmt.Sprintf("%d", r.s.UpdatesSent),
			fmt.Sprintf("%d", r.s.TransportBatches),
			fmt.Sprintf("%d", r.s.TransportBytes),
			fmtDur(r.s.TotalTime),
		})
		t.SetMetric(r.metric+"_updates_sent_builtin", float64(r.s.UpdatesSent))
		t.SetMetric(r.metric+"_transport_batches_builtin", float64(r.s.TransportBatches))
		t.SetMetric(r.metric+"_transport_bytes_builtin", float64(r.s.TransportBytes))
	}
	return t, nil
}
