package core

// spill.go is the run's vertex state seen a partition window at a time —
// the in-memory slice cut at partition boundaries, or the windows of the
// VertexStore an out-of-core engine lends it (JobSetup.Spill) — and what
// walks it: the gather, the phase hooks' view. The update store is the
// transport's (SpillStore, NewSpillTransport).

import (
	"context"
	"fmt"

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
	// Device samples the cumulative traffic of the devices the stores live
	// on, for the per-iteration profile.
	Device func() DeviceIO
	// Context cancels the windowed gather between partitions.
	Context context.Context
	// Close removes the stores' files. It is idempotent.
	Close func()
}

// DeviceIO is a device's cumulative traffic at one instant.
type DeviceIO struct{ Read, Written, Retries int64 }

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
	sub := NewSplit(int64(len(verts)), r.subPlan.K)
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
// the window into the sub-shuffle plan's buckets. The shuffle is stable, so
// every vertex receives its updates in stream order either way.
func (r *jobRun[V, M]) gatherChunk(chunk []Update[M], verts []V, lo int64, sub Split, workers int) {
	nxt := r.Receivers()
	if workers <= 1 || len(chunk) < 8192 {
		for _, u := range chunk {
			r.prog.Gather(u.Dst, &verts[int64(u.Dst)-lo], u.Val)
			if nxt != nil {
				nxt.Mark(u.Dst)
			}
		}
		return
	}
	if r.subA == nil {
		r.subA = streambuf.New[Update[M]](r.spill.Window)
		r.subB = streambuf.New[Update[M]](r.spill.Window)
	}
	r.subA.Fill(chunk)
	res := streambuf.Shuffle(r.subA, r.subB, r.subPlan, workers, func(u Update[M]) uint32 {
		return sub.Of(VertexID(int64(u.Dst) - lo))
	})
	ForEachClaimed(r.subPlan.K, workers, func(_, sp int) {
		res.Bucket(sp, func(run []Update[M]) {
			for _, u := range run {
				r.prog.Gather(u.Dst, &verts[int64(u.Dst)-lo], u.Val)
				if nxt != nil {
					nxt.Mark(u.Dst)
				}
			}
		})
	})
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
