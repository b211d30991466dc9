package algorithms

import "repro/internal/core"

// SpMVState holds one input and one output vector element.
type SpMVState struct {
	X float32 // input vector element
	Y float32 // output vector element
}

// SpMV multiplies the weighted adjacency matrix with a vector in a single
// scatter-gather iteration: y[dst] = Σ over edges (src,dst,w) of w·x[src].
type SpMV struct {
	new2old func(core.VertexID) core.VertexID
}

// NewSpMV returns a sparse matrix–vector multiply program. The input
// vector is a deterministic pseudo-random function of the vertex ID, as
// in the paper's benchmark setup.
func NewSpMV() *SpMV { return &SpMV{} }

// Name implements core.Program.
func (s *SpMV) Name() string { return "SpMV" }

// MapVertices implements core.VertexMapper: the x vector is seeded from
// input IDs so the product is partitioner-independent.
func (s *SpMV) MapVertices(_ int64, _, new2old func(core.VertexID) core.VertexID) {
	s.new2old = new2old
}

// Init implements core.Program.
func (s *SpMV) Init(id core.VertexID, v *SpMVState) {
	if s.new2old != nil {
		id = s.new2old(id)
	}
	v.X = hashUnit(uint64(id), 0xABCD)
	v.Y = 0
}

// Scatter implements core.Program.
func (s *SpMV) Scatter(e core.Edge, src *SpMVState) (float32, bool) {
	return src.X * e.Weight, true
}

// Gather implements core.Program.
func (s *SpMV) Gather(dst core.VertexID, v *SpMVState, m float32) {
	v.Y += m
}

// Combine implements core.Combiner: partial products sum.
func (s *SpMV) Combine(a, b float32) float32 { return a + b }

// CombineOp declares Combine to be core.CombineSum.
func (s *SpMV) CombineOp() core.CombineOp { return core.CombineSum }

// EndIteration implements core.PhasedProgram: SpMV is a single pass.
func (s *SpMV) EndIteration(iter int, sent int64, view core.VertexView[SpMVState]) bool {
	return true
}

// hashUnit maps (x, salt) to a deterministic pseudo-random float in [0,1).
func hashUnit(x, salt uint64) float32 {
	h := x*0x9E3779B97F4A7C15 + salt
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return float32(h>>40) / float32(1<<24)
}
