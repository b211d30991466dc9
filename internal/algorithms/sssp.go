package algorithms

import (
	"math"

	"repro/internal/core"
)

// Inf32 is the distance of unreached vertices.
var Inf32 = float32(math.Inf(1))

// SSSPState is per-vertex shortest-path state.
type SSSPState struct {
	// Dist is the best known distance from the root (+Inf unreached).
	Dist float32
	// Updated is the iteration at which Dist last improved.
	Updated int32
}

// SSSP computes single-source shortest paths by Bellman–Ford relaxation:
// every iteration streams all edges and relaxes those whose source improved
// in the previous round. Weights must be non-negative for the result to
// equal Dijkstra's.
type SSSP struct {
	root core.VertexID // as constructed, in input ID space
	cur  core.VertexID // root in this run's execution ID space
	iter int32
}

// NewSSSP returns a single-source shortest paths program from root.
func NewSSSP(root core.VertexID) *SSSP { return &SSSP{root: root, cur: root} }

// Name implements core.Program.
func (s *SSSP) Name() string { return "SSSP" }

// MapVertices implements core.VertexMapper: the root moves with the
// partitioner's relabeling.
func (s *SSSP) MapVertices(_ int64, old2new, _ func(core.VertexID) core.VertexID) {
	s.cur = old2new(s.root)
}

// Init implements core.Program.
func (s *SSSP) Init(id core.VertexID, v *SSSPState) {
	if id == s.cur {
		v.Dist = 0
		v.Updated = 0
	} else {
		v.Dist = Inf32
		v.Updated = -1
	}
}

// StartIteration implements core.IterationStarter.
func (s *SSSP) StartIteration(iter int) { s.iter = int32(iter) }

// InitiallyActive implements core.FrontierProgram: Bellman–Ford relaxes
// only edges whose source improved last iteration, so a source whose
// distance the last gather left unchanged cannot scatter.
func (s *SSSP) InitiallyActive(id core.VertexID, v *SSSPState) bool { return id == s.cur }

// Scatter implements core.Program.
func (s *SSSP) Scatter(e core.Edge, src *SSSPState) (float32, bool) {
	if src.Updated == s.iter {
		return src.Dist + e.Weight, true
	}
	return 0, false
}

// ScatterBlock implements core.BlockScatterer: Scatter over a block, reading
// the iteration once.
func (s *SSSP) ScatterBlock(blk []core.Edge, verts []SSSPState, base core.VertexID, out []core.Update[float32]) int {
	iter, n := s.iter, 0
	for _, e := range blk {
		src := &verts[e.Src-base]
		out[n] = core.Update[float32]{Dst: e.Dst, Val: src.Dist + e.Weight}
		if src.Updated == iter {
			n++
		}
	}
	return n
}

// Gather implements core.Program.
func (s *SSSP) Gather(dst core.VertexID, v *SSSPState, m float32) {
	if m < v.Dist {
		v.Dist = m
		v.Updated = s.iter + 1
	}
}

// Combine implements core.Combiner: only the shortest tentative distance
// can relax the destination.
func (s *SSSP) Combine(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// CombineOp declares Combine to be core.CombineMin.
func (s *SSSP) CombineOp() core.CombineOp { return core.CombineMin }

// Distances extracts per-vertex distances.
func Distances(verts []SSSPState) []float32 {
	out := make([]float32, len(verts))
	for i := range verts {
		out[i] = verts[i].Dist
	}
	return out
}
