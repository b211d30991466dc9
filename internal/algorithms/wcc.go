package algorithms

import "repro/internal/core"

// WCCState is per-vertex weakly-connected-components state.
type WCCState struct {
	// Label is the smallest vertex ID seen in this vertex's component.
	Label core.VertexID
	// Updated is the iteration at which Label last improved; scatter
	// only fires while the label is fresh.
	Updated int32
}

// WCC computes weakly connected components by min-label propagation over
// an undirected edge list (each undirected edge stored as two directed
// records). After convergence every vertex's Label is the minimum vertex
// ID of its component.
type WCC struct {
	iter int32
}

// NewWCC returns a weakly-connected-components program.
func NewWCC() *WCC { return &WCC{} }

// Name implements core.Program.
func (w *WCC) Name() string { return "WCC" }

// Init implements core.Program.
func (w *WCC) Init(id core.VertexID, v *WCCState) {
	v.Label = id
	v.Updated = 0
}

// StartIteration implements core.IterationStarter.
func (w *WCC) StartIteration(iter int) { w.iter = int32(iter) }

// InitiallyActive implements core.FrontierProgram: every vertex starts
// with a fresh label and scatters in iteration 0; afterwards only label
// receivers can improve further, so the converging tail — where most
// labels are settled and most edges are waste — is where selective
// streaming pays off.
func (w *WCC) InitiallyActive(id core.VertexID, v *WCCState) bool { return true }

// Scatter implements core.Program.
func (w *WCC) Scatter(e core.Edge, src *WCCState) (core.VertexID, bool) {
	if src.Updated == w.iter {
		return src.Label, true
	}
	return 0, false
}

// ScatterBlock implements core.BlockScatterer: Scatter over a block, reading
// the iteration once.
func (w *WCC) ScatterBlock(blk []core.Edge, verts []WCCState, base core.VertexID, out []core.Update[core.VertexID]) int {
	iter, n := w.iter, 0
	for _, e := range blk {
		src := &verts[e.Src-base]
		out[n] = core.Update[core.VertexID]{Dst: e.Dst, Val: src.Label}
		if src.Updated == iter {
			n++
		}
	}
	return n
}

// Gather implements core.Program.
func (w *WCC) Gather(dst core.VertexID, v *WCCState, m core.VertexID) {
	if m < v.Label {
		v.Label = m
		v.Updated = w.iter + 1
	}
}

// Combine implements core.Combiner: only the smallest label can improve
// the destination.
func (w *WCC) Combine(a, b core.VertexID) core.VertexID {
	if a < b {
		return a
	}
	return b
}

// CombineOp declares Combine to be core.CombineMin.
func (w *WCC) CombineOp() core.CombineOp { return core.CombineMin }

// RemapState implements core.StateRemapper: labels are vertex IDs, so
// after a relabeled run they are translated back to input IDs. The label
// is then a valid representative of the component (the vertex whose
// execution ID was minimal), though not necessarily the minimum input ID.
func (w *WCC) RemapState(v *WCCState, new2old func(core.VertexID) core.VertexID) {
	v.Label = new2old(v.Label)
}

// Labels extracts the component label of every vertex.
func Labels(verts []WCCState) []core.VertexID {
	out := make([]core.VertexID, len(verts))
	for i := range verts {
		out[i] = verts[i].Label
	}
	return out
}
