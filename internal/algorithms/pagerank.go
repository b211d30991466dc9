package algorithms

import "repro/internal/core"

// PRState is per-vertex PageRank state.
type PRState struct {
	Rank float32 // current rank
	Sum  float32 // incoming rank mass accumulated this iteration
	Deg  uint32  // out-degree
}

// PageRank runs damped PageRank (d = 0.85) for a fixed number of rank
// iterations, the paper's configuration being 5 (§5.2).
//
// PageRank pushes rank/out-degree along forward edges, so it needs every
// vertex's out-degree before its first scatter. The engines count
// out-degrees once, in the pre-processing shuffle, and hand each vertex its
// own through core.DegreeInit: every iteration is a rank iteration over the
// forward edge list. No sorting or indexing is ever required.
type PageRank struct {
	iters int
}

// NewPageRank returns a PageRank program running the given number of rank
// iterations (the paper uses 5).
func NewPageRank(iters int) *PageRank {
	if iters < 1 {
		iters = 1
	}
	return &PageRank{iters: iters}
}

// Name implements core.Program.
func (p *PageRank) Name() string { return "Pagerank" }

// Init implements core.Program.
func (p *PageRank) Init(id core.VertexID, v *PRState) {
	v.Rank = 1
	v.Sum = 0
}

// InitDegree implements core.DegreeInit.
func (p *PageRank) InitDegree(id core.VertexID, outDegree uint32, v *PRState) {
	v.Deg = outDegree
}

// Scatter implements core.Program.
func (p *PageRank) Scatter(e core.Edge, src *PRState) (float32, bool) {
	if src.Deg > 0 {
		return src.Rank / float32(src.Deg), true
	}
	return 0, false
}

// ScatterBlock implements core.BlockScatterer: Scatter over a block, the
// quotient computed for every edge and kept when the source has out-edges.
func (p *PageRank) ScatterBlock(blk []core.Edge, verts []PRState, base core.VertexID, out []core.Update[float32]) int {
	n := 0
	for _, e := range blk {
		src := &verts[e.Src-base]
		out[n] = core.Update[float32]{Dst: e.Dst, Val: src.Rank / float32(src.Deg)}
		if src.Deg > 0 {
			n++
		}
	}
	return n
}

// Gather implements core.Program.
func (p *PageRank) Gather(dst core.VertexID, v *PRState, m float32) {
	v.Sum += m
}

// Combine implements core.Combiner: rank mass sums.
func (p *PageRank) Combine(a, b float32) float32 { return a + b }

// CombineOp declares Combine to be core.CombineSum.
func (p *PageRank) CombineOp() core.CombineOp { return core.CombineSum }

// EndIteration implements core.PhasedProgram: fold the accumulated rank
// mass into the damped rank and reset the accumulator.
func (p *PageRank) EndIteration(iter int, sent int64, view core.VertexView[PRState]) bool {
	view.ForEach(func(id core.VertexID, v *PRState) {
		v.Rank = 0.15 + 0.85*v.Sum
		v.Sum = 0
	})
	return iter+1 >= p.iters
}

// Ranks extracts per-vertex ranks.
func Ranks(verts []PRState) []float32 {
	out := make([]float32, len(verts))
	for i := range verts {
		out[i] = verts[i].Rank
	}
	return out
}
