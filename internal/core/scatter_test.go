package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
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
func rmatPartition0(b *testing.B) (core.Split, []core.Edge) { return rmatPartition0At(b, 18) }

// rmatPartition0At is rmatPartition0's task over a graph of 2^scale
// vertices (scale ≥ 18): partition 0 of an RMAT graph with 1/2^(scale-18) of
// RMAT-18's edge factor cut into 2^(scale-16) partitions, so its sources
// still span 65 536 vertices while the destinations' range grows. Past
// scale 22 the edge factor stays 1 and every 2^(scale-22)-th edge of the
// partition is kept instead. RMAT's skew leaves partition 0 a smaller share
// of the edges as the partitions narrow: ≈ 2.4 M at scale 18, 1.4 M at 20,
// 0.8 M at 22 and 0.6 M at 23.
func rmatPartition0At(b *testing.B, scale int) (core.Split, []core.Edge) {
	split := core.NewSplit(1<<scale, 1<<(scale-16))
	var edges []core.Edge
	cfg := graphgen.RMATScale(scale, 1, false)
	cfg.EdgeFactor >>= min(scale, 22) - 18
	keep, n := 1<<(max(scale, 22)-22), 0
	if err := graphgen.RMAT(cfg).Edges(func(batch []core.Edge) error {
		for _, ed := range batch {
			if split.Of(ed.Src) == 0 {
				if n%keep == 0 {
					edges = append(edges, ed)
				}
				n++
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return split, edges
}

// scatterKernelRow is one row of the scatter-kernel benchmarks: kern runs
// the task of edges over split's partition 0 from verts, Begun on window,
// b.N times. ns/edge is the figure to compare; emitted/edge is what
// combining left for the shuffle.
func scatterKernelRow(b *testing.B, kern *core.ScatterKernel[[2]float32, float32], tp *countingTransport, split core.Split, verts [][2]float32, edges []core.Edge) {
	window := core.DegreeAwareBufRecs(scatterBaseRecs, int64(len(edges)), int64(len(verts)))
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
}

// scatterBaseRecs is the benchmarks' private buffer: the out-of-core
// engine's 1024 records, the in-memory one's 8 KiB of 8-byte updates.
const scatterBaseRecs = 1024

// rankVerts is the source states of split's partition 0.
func rankVerts(split core.Split) [][2]float32 {
	verts := make([][2]float32, split.PerPartition())
	for i := range verts {
		rankProg{}.Init(core.VertexID(i), &verts[i])
	}
	return verts
}

// BenchmarkScatterKernel is the per-edge cost of one scatter task shaped like
// the benchmark's in-memory PageRank, rmatPartition0, whose 262 144
// destinations' values (1 MiB) fit the dense accumulator: through the
// combining cache merging by a func value (combine) and by the declared op
// inline (sum, resolved by core.Combining as the engines do), through the
// dense accumulator merging by the op inline (dense, what the engines run
// on this graph), and through the plain append buffer (append).
func BenchmarkScatterKernel(b *testing.B) {
	split, edges := rmatPartition0(b)
	verts := rankVerts(split)
	nv := int64(split.PerPartition()) * int64(split.K)
	sum, op := core.Combining[[2]float32, float32](rankProg{}, false)
	for _, v := range []struct {
		name    string
		combine func(a, b float32) float32
		op      core.CombineOp
		dense   bool
	}{
		{"combine", func(a, b float32) float32 { return a + b }, 0, false},
		{"sum", sum, op, false},
		{"dense", sum, op, true},
		{"append", nil, 0, false},
	} {
		b.Run(v.name, func(b *testing.B) {
			tp := new(countingTransport)
			kern := core.NewScatterKernelAs[[2]float32, float32](rankProg{}, tp, v.combine, v.op, scatterBaseRecs, nv, v.dense)
			scatterKernelRow(b, kern, tp, split, verts, edges)
		})
	}
}

// BenchmarkCombineBudget compares the two combining representations on
// rmatPartition0At's task at destination values of 1 to 32 MiB (RMAT scales
// 18 to 23), both merging by the declared sum inline: dense is the
// accumulator, cache the direct-mapped cache. denseCombineBytes is the
// largest of these sizes at which dense was faster per edge in every round;
// the crossover lies above it. Each size builds its own graph, seconds
// apiece, so CI's smoke does not run it.
func BenchmarkCombineBudget(b *testing.B) {
	for _, scale := range []int{18, 19, 20, 21, 22, 23} {
		split, edges := rmatPartition0At(b, scale)
		verts := rankVerts(split)
		nv := int64(1) << scale
		sum, op := core.Combining[[2]float32, float32](rankProg{}, false)
		for _, dense := range []bool{true, false} {
			name := fmt.Sprintf("%dMiB/cache", nv*4>>20)
			if dense {
				name = fmt.Sprintf("%dMiB/dense", nv*4>>20)
			}
			b.Run(name, func(b *testing.B) {
				tp := new(countingTransport)
				kern := core.NewScatterKernelAs[[2]float32, float32](rankProg{}, tp, sum, op, scatterBaseRecs, nv, dense)
				scatterKernelRow(b, kern, tp, split, verts, edges)
			})
		}
	}
}
