package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/streambuf"
)

// rankProg scatters like PageRank's rank iterations: a float quotient of the
// source's state over every edge, summed, and declared a sum.
type rankProg struct{}

func (rankProg) Name() string                                     { return "rank-bench" }
func (rankProg) Init(id core.VertexID, v *[2]float32)             { *v = [2]float32{1, float32(id%15) + 1} }
func (rankProg) Gather(_ core.VertexID, v *[2]float32, m float32) { v[0] += m }
func (rankProg) Scatter(_ core.Edge, src *[2]float32) (float32, bool) {
	return src[0] / src[1], true
}
func (rankProg) Combine(a, b float32) float32 { return a + b }
func (rankProg) CombineOp() core.CombineOp    { return core.CombineSum }

// countingTransport accepts every batch and counts its records.
type countingTransport struct {
	core.UpdateTransport[float32]
	recs int64
}

func (t *countingTransport) Send(_ int, batch []core.Update[float32]) bool {
	t.recs += int64(len(batch))
	return true
}

// rmatPartition0 is partition 0 of 4 of an RMAT-18 graph: ≈ 2 M edges whose
// sources span 65 536 vertices and whose destinations span all 262 144.
func rmatPartition0(b *testing.B) (core.Split, []core.Edge) {
	const scale, k = 18, 4
	split := core.NewSplit(1<<scale, k)
	var edges []core.Edge
	if err := graphgen.RMAT(graphgen.RMATScale(scale, 1, false)).Edges(func(batch []core.Edge) error {
		for _, ed := range batch {
			if split.Of(ed.Src) == 0 {
				edges = append(edges, ed)
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return split, edges
}

// BenchmarkScatterKernel is the per-edge cost of one scatter task shaped like
// the benchmark's in-memory PageRank, rmatPartition0, through the combining
// cache merging by a func value (combine) and by the declared op inline (sum,
// resolved by core.Combining as the engines do), and through the plain append
// buffer. ns/edge is the figure to compare; emitted/edge is what combining
// left for the shuffle.
func BenchmarkScatterKernel(b *testing.B) {
	split, edges := rmatPartition0(b)
	verts := make([][2]float32, split.PerPartition())
	for i := range verts {
		rankProg{}.Init(core.VertexID(i), &verts[i])
	}
	const baseRecs = 1024
	window := core.DegreeAwareBufRecs(baseRecs, int64(len(edges)), int64(len(verts)))
	sum, op, _ := core.Combining[[2]float32, float32](rankProg{}, false, split, 1)
	for _, v := range []struct {
		name    string
		combine func(a, b float32) float32
		op      core.CombineOp
	}{{"combine", func(a, b float32) float32 { return a + b }, 0}, {"sum", sum, op}, {"append", nil, 0}} {
		b.Run(v.name, func(b *testing.B) {
			tp := new(countingTransport)
			kern := core.NewScatterKernel[[2]float32, float32](rankProg{}, tp, v.combine, v.op, baseRecs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kern.Begin(0, split, verts, 0, window)
				kern.Edges(edges)
				if n, err := kern.End(); err != nil || n.Sent != int64(len(edges)) {
					b.Fatalf("scattered %d updates from %d edges: %v", n.Sent, len(edges), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
			b.ReportMetric(float64(tp.recs)/float64(b.N*len(edges)), "emitted/edge")
		})
	}
}

// BenchmarkUpdateFold is the per-record cost of the post-shuffle fold over
// the update stream of rmatPartition0's edges, shuffled into its split's 4
// partitions by 2 threads, folded by a func value (func, core.NewUpdateFolder)
// and by the declared op inline (sum, core.Combining). Only the fold is timed;
// merged/rec is the share it merged away.
func BenchmarkUpdateFold(b *testing.B) {
	const threads = 2
	split, edges := rmatPartition0(b)
	updates := make([]core.Update[float32], len(edges))
	for i, ed := range edges {
		updates[i] = core.Update[float32]{Dst: ed.Dst, Val: float32(ed.Src%7) + 0.5}
	}
	plan, err := streambuf.NewPlan(split.K, split.K)
	if err != nil {
		b.Fatal(err)
	}
	in, out := streambuf.New[core.Update[float32]](len(updates)), streambuf.New[core.Update[float32]](len(updates))
	_, _, sum := core.Combining[[2]float32, float32](rankProg{}, false, split, threads)
	for _, v := range []struct {
		name   string
		folder *streambuf.Folder[core.Update[float32]]
	}{{"func", core.NewUpdateFolder(split, threads, func(a, b float32) float32 { return a + b })}, {"sum", sum}} {
		b.Run(v.name, func(b *testing.B) {
			var merged int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in.Fill(updates)
				res := streambuf.Shuffle(in, out, plan, threads, func(u core.Update[float32]) uint32 { return split.Of(u.Dst) })
				b.StartTimer()
				merged += v.folder.Fold(res)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(updates)), "ns/rec")
			b.ReportMetric(float64(merged)/float64(b.N*len(updates)), "merged/rec")
		})
	}
}
