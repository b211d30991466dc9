// Benchmarks: one per paper table/figure (delegating to the harness in
// internal/bench at smoke-test scale — run cmd/xbench for full-scale
// reproductions), plus component micro-benchmarks and the design-decision
// ablations called out in DESIGN.md §4.
package xstream_test

import (
	"testing"

	xstream "repro"
	"repro/internal/algorithms"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
	"repro/internal/memengine"
	"repro/internal/storage"
	"repro/internal/streambuf"
)

// figBench runs one registered figure experiment per benchmark iteration.
func figBench(b *testing.B, id string) {
	r, ok := bench.Get(id)
	if !ok {
		b.Fatalf("no runner %s", id)
	}
	cfg := bench.Config{Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08MemoryBandwidth(b *testing.B)   { figBench(b, "fig08") }
func BenchmarkFig09DiskBandwidth(b *testing.B)     { figBench(b, "fig09") }
func BenchmarkFig10Datasets(b *testing.B)          { figBench(b, "fig10") }
func BenchmarkFig11SeqVsRandom(b *testing.B)       { figBench(b, "fig11") }
func BenchmarkFig12aAlgorithms(b *testing.B)       { figBench(b, "fig12a") }
func BenchmarkFig12bWCCProfile(b *testing.B)       { figBench(b, "fig12b") }
func BenchmarkFig13HyperANF(b *testing.B)          { figBench(b, "fig13") }
func BenchmarkFig14Scaling(b *testing.B)           { figBench(b, "fig14") }
func BenchmarkFig15IOParallelism(b *testing.B)     { figBench(b, "fig15") }
func BenchmarkFig16AcrossDevices(b *testing.B)     { figBench(b, "fig16") }
func BenchmarkFig17Ingest(b *testing.B)            { figBench(b, "fig17") }
func BenchmarkFig18SortVsStream(b *testing.B)      { figBench(b, "fig18") }
func BenchmarkFig19BFS(b *testing.B)               { figBench(b, "fig19") }
func BenchmarkFig20Ligra(b *testing.B)             { figBench(b, "fig20") }
func BenchmarkFig21MemoryRefs(b *testing.B)        { figBench(b, "fig21") }
func BenchmarkFig22GraphChi(b *testing.B)          { figBench(b, "fig22") }
func BenchmarkFig23BandwidthTimeline(b *testing.B) { figBench(b, "fig23") }
func BenchmarkFig24Partitions(b *testing.B)        { figBench(b, "fig24") }
func BenchmarkFig25Shuffler(b *testing.B)          { figBench(b, "fig25") }
func BenchmarkFig26IOModel(b *testing.B)           { figBench(b, "fig26") }

// ---- component micro-benchmarks ----

// benchGraph is a shared mid-size workload: 2^14 vertices, 512K records.
func benchGraph() xstream.EdgeSource {
	return xstream.RMAT(xstream.RMATConfig{Scale: 14, EdgeFactor: 16, Seed: 1, Undirected: true})
}

func BenchmarkMemEngineWCC(b *testing.B) {
	src := benchGraph()
	b.SetBytes(src.NumEdges() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xstream.RunMemory(src, xstream.NewWCC(), xstream.MemConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemEnginePageRank(b *testing.B) {
	src := benchGraph()
	b.SetBytes(src.NumEdges() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xstream.RunMemory(src, xstream.NewPageRank(5), xstream.MemConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskEngineWCC(b *testing.B) {
	src := benchGraph()
	b.SetBytes(src.NumEdges() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := storage.NewSim(storage.SSDParams("b", 2, 0))
		if _, err := xstream.RunDisk(src, xstream.NewWCC(), xstream.DiskConfig{
			Device: dev, IOUnit: 256 << 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShuffle(b *testing.B) {
	type rec struct{ Key, Val uint32 }
	const n = 1 << 20
	const k = 1024
	recs := make([]rec, n)
	for i := range recs {
		recs[i] = rec{Key: uint32(i*2654435761) % k, Val: uint32(i)}
	}
	in, out := streambuf.New[rec](n), streambuf.New[rec](n)
	plan, _ := streambuf.NewPlan(k, 32)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Fill(recs)
		streambuf.Shuffle(in, out, plan, 2, func(r rec) uint32 { return r.Key })
	}
}

func BenchmarkRMATGeneration(b *testing.B) {
	cfg := graphgen.RMATConfig{Scale: 16, EdgeFactor: 16, Seed: 1}
	b.SetBytes(cfg.NumEdges() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		graphgen.RMAT(cfg).Edges(func(batch []core.Edge) error {
			n += len(batch)
			return nil
		})
		if int64(n) != cfg.NumEdges() {
			b.Fatal("short generation")
		}
	}
}

func BenchmarkCSRBuildCountingSort(b *testing.B) {
	src := benchGraph()
	edges, _ := core.Materialize(src)
	b.SetBytes(int64(len(edges)) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.BuildCountingSort(src.NumVertices(), edges)
	}
}

// ---- design-decision ablations (DESIGN.md §4) ----

func BenchmarkAblationPrefetch(b *testing.B) {
	src := benchGraph()
	for _, tc := range []struct {
		name string
		off  bool
	}{{"on", false}, {"off", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := storage.NewSim(storage.HDDParams("b", 2, 0.05))
				// One 32 KiB stream buffer is smaller than an iteration's
				// updates, so they reach the device.
				res, err := diskengine.Run(src, algorithms.NewWCC(), diskengine.Config{
					Device: dev, IOUnit: 32 << 10, Partitions: 1, NoPrefetch: tc.off,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !spilledUpdates(res.Stats) {
					b.Fatal("no update reached the device")
				}
			}
		})
	}
}

// spilledUpdates reports whether a disk run without checkpoints or spilled
// vertex state wrote update files: only those appends are charged to its
// iterations.
func spilledUpdates(s core.Stats) bool {
	for _, it := range s.Iters {
		if it.BytesWritten > 0 {
			return true
		}
	}
	return false
}

// BenchmarkAblationUpdateBypass compares a stream buffer that holds one
// scatter's updates, so the update files are bypassed (§3.2), with one that
// does not.
func BenchmarkAblationUpdateBypass(b *testing.B) {
	src := benchGraph()
	for _, tc := range []struct {
		name   string
		ioUnit int
	}{{"window-holds-scatter", 16 << 20}, {"window-below-scatter", 32 << 10}} {
		b.Run(tc.name, func(b *testing.B) {
			var written int64
			for i := 0; i < b.N; i++ {
				dev := storage.NewSim(storage.SSDParams("b", 2, 0))
				res, err := diskengine.Run(src, algorithms.NewSpMV(), diskengine.Config{
					Device: dev, IOUnit: tc.ioUnit, Partitions: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if spilledUpdates(res.Stats) != (tc.ioUnit < 16<<20) {
					b.Fatalf("updates spilled: %v", spilledUpdates(res.Stats))
				}
				written += res.Stats.BytesWritten
			}
			b.ReportMetric(float64(written)/float64(b.N)/1e6, "MB-written/op")
		})
	}
}

func BenchmarkAblationWorkStealing(b *testing.B) {
	src := benchGraph()
	for _, tc := range []struct {
		name   string
		static bool
	}{{"steal", false}, {"static", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := memengine.Run(src, algorithms.NewPageRank(5), memengine.Config{
					Partitions: 64, NoWorkStealing: tc.static,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationCSRvsStream(b *testing.B) {
	src := benchGraph()
	edges, _ := core.Materialize(src)
	n := src.NumVertices()
	b.Run("sort-index-then-pagerank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := baseline.BuildQuicksort(n, edges)
			g.PageRank(5)
		}
	})
	b.Run("stream-unsorted-pagerank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := memengine.Run(src, algorithms.NewPageRank(5), memengine.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
