package core_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// rankProg scatters like PageRank's rank iterations: a float quotient of the
// source's state over every edge.
type rankProg struct{}

func (rankProg) Name() string                                     { return "rank-bench" }
func (rankProg) Init(id core.VertexID, v *[2]float32)             { *v = [2]float32{1, float32(id%15) + 1} }
func (rankProg) Gather(_ core.VertexID, v *[2]float32, m float32) { v[0] += m }
func (rankProg) Scatter(_ core.Edge, src *[2]float32) (float32, bool) {
	return src[0] / src[1], true
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

// BenchmarkScatterKernel is the per-edge cost of one scatter task shaped like
// the benchmark's in-memory PageRank: partition 0 of 4 of an RMAT-18 graph
// (≈ 2 M edges whose sources span 65 536 vertices and whose destinations span
// all 262 144), through the combining cache and through the plain append
// buffer. ns/edge is the figure to compare; emitted/edge is what combining
// left for the shuffle.
func BenchmarkScatterKernel(b *testing.B) {
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
	verts := make([][2]float32, split.PerPartition())
	for i := range verts {
		rankProg{}.Init(core.VertexID(i), &verts[i])
	}
	const baseRecs = 1024
	window := core.DegreeAwareBufRecs(baseRecs, int64(len(edges)), int64(len(verts)))
	for _, v := range []struct {
		name    string
		combine func(a, b float32) float32
	}{{"combine", func(a, b float32) float32 { return a + b }}, {"append", nil}} {
		b.Run(v.name, func(b *testing.B) {
			tp := new(countingTransport)
			kern := core.NewScatterKernel[[2]float32, float32](rankProg{}, tp, new(atomic.Bool), v.combine, nil, baseRecs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kern.Begin(0, split, verts, 0, window)
				kern.Edges(edges)
				if n := kern.End(); n.Sent != int64(len(edges)) {
					b.Fatalf("scattered %d updates from %d edges", n.Sent, len(edges))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
			b.ReportMetric(float64(tp.recs)/float64(b.N*len(edges)), "emitted/edge")
		})
	}
}
