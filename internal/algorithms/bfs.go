package algorithms

import "repro/internal/core"

// BFSState is per-vertex breadth-first-search state.
type BFSState struct {
	// Dist is the hop distance from the root, or -1 if undiscovered.
	Dist int32
	// Updated is the iteration at which the vertex was discovered.
	Updated int32
}

// BFS computes hop distances from a root vertex. Each scatter-gather
// iteration advances the frontier by one level, so the iteration count
// equals the eccentricity of the root — the property that makes
// high-diameter graphs X-Stream's worst case (§5.3).
type BFS struct {
	root core.VertexID // as constructed, in input ID space
	cur  core.VertexID // root in this run's execution ID space
	iter int32
}

// NewBFS returns a breadth-first search from root.
func NewBFS(root core.VertexID) *BFS { return &BFS{root: root, cur: root} }

// Name implements core.Program.
func (b *BFS) Name() string { return "BFS" }

// MapVertices implements core.VertexMapper: the root moves with the
// partitioner's relabeling.
func (b *BFS) MapVertices(_ int64, old2new, _ func(core.VertexID) core.VertexID) {
	b.cur = old2new(b.root)
}

// Init implements core.Program.
func (b *BFS) Init(id core.VertexID, v *BFSState) {
	if id == b.cur {
		v.Dist = 0
		v.Updated = 0
	} else {
		v.Dist = -1
		v.Updated = -1
	}
}

// StartIteration implements core.IterationStarter.
func (b *BFS) StartIteration(iter int) { b.iter = int32(iter) }

// InitiallyActive implements core.FrontierProgram: only the root can
// scatter in iteration 0, and Scatter fires only for vertices discovered
// in the previous iteration — exactly the frontier contract, making BFS
// the canonical beneficiary of selective streaming on high-diameter
// graphs (the paper's §5.3 worst case).
func (b *BFS) InitiallyActive(id core.VertexID, v *BFSState) bool { return id == b.cur }

// Scatter implements core.Program.
func (b *BFS) Scatter(e core.Edge, src *BFSState) (int32, bool) {
	if src.Updated == b.iter {
		return src.Dist + 1, true
	}
	return 0, false
}

// ScatterBlock implements core.BlockScatterer: Scatter over a block, reading
// the iteration once.
func (b *BFS) ScatterBlock(blk []core.Edge, verts []BFSState, base core.VertexID, out []core.Update[int32]) int {
	iter, n := b.iter, 0
	for _, e := range blk {
		src := &verts[e.Src-base]
		out[n] = core.Update[int32]{Dst: e.Dst, Val: src.Dist + 1}
		if src.Updated == iter {
			n++
		}
	}
	return n
}

// Gather implements core.Program.
func (b *BFS) Gather(dst core.VertexID, v *BFSState, m int32) {
	if v.Dist < 0 {
		v.Dist = m
		v.Updated = b.iter + 1
	}
}

// Combine implements core.Combiner: within one iteration every update
// carries the same frontier depth, so min is exact (and trivially so).
func (b *BFS) Combine(a, m int32) int32 {
	if a < m {
		return a
	}
	return m
}

// CombineOp declares Combine to be core.CombineMin.
func (b *BFS) CombineOp() core.CombineOp { return core.CombineMin }

// Levels extracts per-vertex hop distances (-1 = unreachable).
func Levels(verts []BFSState) []int32 {
	out := make([]int32, len(verts))
	for i := range verts {
		out[i] = verts[i].Dist
	}
	return out
}
