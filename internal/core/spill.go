package core

// spill.go is the run's vertex state seen a partition window at a time —
// the in-memory slice cut at partition boundaries, or the windows of the
// VertexStore an out-of-core engine lends it (JobSetup.Spill) — and what
// walks it: the gather, the phase hooks' view. The update store is the
// transport's (SpillStore, NewSpillTransport).

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/streambuf"
)

// Spill is the device-backed storage an out-of-core engine lends one run.
type Spill struct {
	// Updates is the update transport's spill store and Window the
	// transport's window, in records: a full window spills to the store.
	Updates SpillStore
	Window  int
	// Vertices holds the vertex state a window per partition when the
	// engine's memory budget rules it out of memory; nil keeps it one
	// in-memory slice.
	Vertices VertexStore
	// Context cancels the windowed gather between partitions.
	Context context.Context
	// Close removes the stores' files. It is idempotent.
	Close func()
}

// SpillIO tallies what a run's stores moved: bytes read from and written to
// the device, and bytes checksum-verified on the way back. The stores add to
// it from any goroutine; the run books it onto its stats.
type SpillIO struct{ Read, Written, Checked atomic.Int64 }

// VertexStore holds a run's vertex state on the device, one window per
// partition: the vertex files of §3.2. A window is the state of the
// partition's vertices, in relabeled order, as bytes.
type VertexStore interface {
	// Load fills window with partition p's stored state. A store shorter
	// than window, or failing its checksum, is storage.ErrCorrupted.
	Load(p int, window []byte) error
	// Store replaces partition p's stored state with window.
	Store(p int, window []byte) error
}

// window returns partition p's vertex window and its first vertex: a slice
// of the in-memory state, or the one window buffer loaded from the store.
func (r *jobRun[V, M]) window(p int) ([]V, int64, error) {
	lo, hi := r.part.Range(p, r.setup.NumVertices)
	if r.vstore == nil {
		return r.verts[lo:hi], lo, nil
	}
	win := r.win[:hi-lo]
	if err := r.vstore.Load(p, pod.AsBytes(win)); err != nil {
		return nil, 0, err
	}
	return win, lo, nil
}

// storeWindow persists partition p's window after it changed; a no-op for
// in-memory state (§3.2 optimization 1).
func (r *jobRun[V, M]) storeWindow(p int, win []V) error {
	if r.vstore == nil {
		return nil
	}
	return r.vstore.Store(p, pod.AsBytes(win))
}

// gatherPartition applies partition p's sealed updates to its window, on up
// to workers goroutines inside a chunk. A run with stores checks the
// context first — between partition files — and refuses an update read
// back from the device outside the window.
func (r *jobRun[V, M]) gatherPartition(p, workers int) error {
	if r.spill != nil && r.spill.Context != nil && r.spill.Context.Err() != nil {
		return r.spill.Context.Err()
	}
	verts, lo, err := r.window(p)
	if err != nil {
		return err
	}
	hi := lo + int64(len(verts))
	sub := NewSplit(int64(len(verts)), r.subK)
	if err := r.tp.Drain(p, func(chunk []Update[M]) error {
		if r.spill != nil {
			if err := inWindow(chunk, p, lo, hi); err != nil {
				return err
			}
		}
		r.gatherChunk(chunk, verts, lo, sub, workers)
		return nil
	}); err != nil {
		return err
	}
	return r.storeWindow(p, verts)
}

// inWindow refuses a chunk of partition p's updates read back from the
// device with a destination outside the partition's window [lo, hi): the
// stream's checksum only closes once the whole partition is consumed, and
// the update must not index the state before that.
func inWindow[M any](chunk []Update[M], p int, lo, hi int64) error {
	for _, u := range chunk {
		if int64(u.Dst) < lo || int64(u.Dst) >= hi {
			return fmt.Errorf("update stream of partition %d: update for vertex %d outside partition window [%d,%d): %w",
				p, u.Dst, lo, hi, storage.ErrCorrupted)
		}
	}
	return nil
}

// gatherChunk applies a chunk of updates to the partition's vertex window
// verts, whose first vertex is lo. With multiple workers the chunk is first
// shuffled by destination sub-range so workers touch disjoint vertices — the
// in-memory engine layered inside the partition (§4.3); sub is that split of
// the window into sub.K buckets. The placement is stable, so every vertex
// receives its updates in stream order either way.
func (r *jobRun[V, M]) gatherChunk(chunk []Update[M], verts []V, lo int64, sub Split, workers int) {
	if workers <= 1 || len(chunk) < 8192 {
		r.gatherRun(chunk, verts, lo)
		return
	}
	if r.sub == nil {
		r.sub = streambuf.New[Update[M]](r.spill.Window)
	}
	r.sub.Place(chunk, sub.K, workers, func(u Update[M]) uint32 { return sub.Of(VertexID(int64(u.Dst) - lo)) })
	ForEachClaimed(sub.K, workers, func(_, sp int) { r.gatherRun(r.sub.Bucket(sp), verts, lo) })
}

// gatherRun applies a run of updates in order. On a selective schedule a
// receiver joins the next frontier only when its Gather changed the
// vertex's bytes (the FrontierProgram contract): the state is snapshotted
// on the stack before the call and compared after. Setup has checked that
// the state holds no pointers, so its bytes are all of it; a copy
// differing from it in padding alone only adds a receiver whose Scatter
// sends nothing. A dense run compares nothing.
func (r *jobRun[V, M]) gatherRun(run []Update[M], verts []V, lo int64) {
	nxt := r.Receivers()
	if nxt == nil {
		for _, u := range run {
			r.prog.Gather(u.Dst, &verts[int64(u.Dst)-lo], u.Val)
		}
		return
	}
	for _, u := range run {
		v := &verts[int64(u.Dst)-lo]
		old := *v
		r.prog.Gather(u.Dst, v, u.Val)
		if !pod.Equal(&old, v) {
			nxt.Mark(u.Dst)
		}
	}
}

// NumVertices implements VertexView: the run is the phase hooks' view of its
// state.
func (r *jobRun[V, M]) NumVertices() int64 { return r.setup.NumVertices }

// ForEach implements VertexView, streaming the windows through fn and
// storing back what it changed. It cannot return the I/O error that cuts a
// visit short — the remaining partitions left un-updated, or one stored torn
// — so it latches it for EndIteration to fail the iteration with.
func (r *jobRun[V, M]) ForEach(fn func(VertexID, *V)) {
	for p := 0; p < r.part.K && r.err == nil; p++ {
		verts, lo, err := r.window(p)
		if err != nil {
			r.err = err
			return
		}
		for i := range verts {
			fn(VertexID(lo+int64(i)), &verts[i])
		}
		r.err = r.storeWindow(p, verts)
	}
}
