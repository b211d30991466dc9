package core_test

import (
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

// rankBlockProg is rankProg scattering a block per call.
type rankBlockProg struct{ rankProg }

func (rankBlockProg) ScatterBlock(blk []core.Edge, verts [][2]float32, base core.VertexID, out []core.Update[float32]) int {
	for i, e := range blk {
		src := &verts[e.Src-base]
		out[i] = core.Update[float32]{Dst: e.Dst, Val: src[0] / src[1]}
	}
	return len(blk)
}

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
	split := core.NewSplit(1<<18, 4)
	var edges []core.Edge
	if err := graphgen.RMAT(graphgen.RMATScale(18, 1, false)).Edges(func(batch []core.Edge) error {
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

// scatterKernelRow is one row of BenchmarkScatterKernel: kern runs the task
// of edges over split's partition 0 from verts b.N times. ns/edge is the
// figure to compare; emitted/edge is what combining left for the shuffle.
func scatterKernelRow(b *testing.B, kern *core.ScatterKernel[[2]float32, float32], tp *countingTransport, split core.Split, verts [][2]float32, edges []core.Edge) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.Begin(0, split, verts, 0)
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
// accumulator merging by the declared op inline, as core.Combining resolves
// it for the engines (dense, a Scatter call per edge; dense-block, a
// ScatterBlock call per block, as the engines call PageRank), and through
// the plain append buffer (append).
func BenchmarkScatterKernel(b *testing.B) {
	split, edges := rmatPartition0(b)
	verts := rankVerts(split)
	nv := int64(split.PerPartition()) * int64(split.K)
	sum, op := core.Combining[[2]float32, float32](rankProg{}, false)
	for _, v := range []struct {
		name    string
		prog    core.Program[[2]float32, float32]
		combine func(a, b float32) float32
	}{
		{"dense", rankProg{}, sum},
		{"dense-block", rankBlockProg{}, sum},
		{"append", rankProg{}, nil},
	} {
		b.Run(v.name, func(b *testing.B) {
			tp := new(countingTransport)
			kern := core.NewScatterKernel(v.prog, tp, v.combine, op, scatterBaseRecs, nv)
			scatterKernelRow(b, kern, tp, split, verts, edges)
		})
	}
}
