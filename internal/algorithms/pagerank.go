package algorithms

import "repro/internal/core"

// PRState is per-vertex PageRank state.
type PRState struct {
	Rank float32 // current rank
	Sum  float32 // incoming rank mass accumulated this iteration
	Deg  int32   // out-degree, counted in the first iteration
}

// PageRank runs damped PageRank (d = 0.85) for a fixed number of rank
// iterations, the paper's configuration being 5 (§5.2).
//
// PageRank pushes rank/out-degree along forward edges, so it needs every
// vertex's out-degree first. Iteration 0 counts out-degrees by streaming
// the *transposed* edge list — an edge (u,v) streamed backward delivers an
// update to u, one per out-edge — which exercises the same one-pass
// transpose machinery SCC uses. No sorting or indexing is ever required.
type PageRank struct {
	iters int
	iter  int32
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
	v.Deg = 0
}

// StartIteration implements core.IterationStarter.
func (p *PageRank) StartIteration(iter int) { p.iter = int32(iter) }

// Direction implements core.DirectedProgram: the degree-counting iteration
// streams the transpose.
func (p *PageRank) Direction(iter int) core.Direction {
	if iter == 0 {
		return core.Backward
	}
	return core.Forward
}

// Scatter implements core.Program.
func (p *PageRank) Scatter(e core.Edge, src *PRState) (float32, bool) {
	if p.iter == 0 {
		// Transposed stream: this update reaches the original source,
		// counting one out-edge.
		return 1, true
	}
	if src.Deg > 0 {
		return src.Rank / float32(src.Deg), true
	}
	return 0, false
}

// Gather implements core.Program. The degree-counting iteration sums the
// update values (each 1) rather than counting updates, so pre-combined
// updates — where several count-1 records merged into one — land the same
// total.
func (p *PageRank) Gather(dst core.VertexID, v *PRState, m float32) {
	if p.iter == 0 {
		v.Deg += int32(m)
		return
	}
	v.Sum += m
}

// Combine implements core.Combiner: rank mass (and the degree counts of
// iteration 0) sum. Degree counting through float32 partial sums is exact
// up to 2^24 per combined partial — a ceiling the paper's graphs stay far
// under (the heaviest hubs in web/social crawls are low millions of
// edges). For inputs with vertices beyond ~16.7M out-degree, run with
// Config.NoCombine, which restores the exact one-update-per-edge count.
func (p *PageRank) Combine(a, b float32) float32 { return a + b }

// CombineOp declares Combine to be core.CombineSum.
func (p *PageRank) CombineOp() core.CombineOp { return core.CombineSum }

// EndIteration implements core.PhasedProgram: fold the accumulated rank
// mass into the damped rank and reset the accumulator.
func (p *PageRank) EndIteration(iter int, sent int64, view core.VertexView[PRState]) bool {
	if iter == 0 {
		return false // degrees counted; rank iterations follow
	}
	view.ForEach(func(id core.VertexID, v *PRState) {
		v.Rank = 0.15 + 0.85*v.Sum
		v.Sum = 0
	})
	return iter >= p.iters
}

// Ranks extracts per-vertex ranks.
func Ranks(verts []PRState) []float32 {
	out := make([]float32, len(verts))
	for i := range verts {
		out[i] = verts[i].Rank
	}
	return out
}
