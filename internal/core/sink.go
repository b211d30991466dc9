package core

import "fmt"

// jobScatter is a run's scatter sink: one run-lived kernel, Begun on each
// partition with the combining window the partition's degree earns, and the
// sink's first failure. A run lent no stores has one
// per engine worker, and its kernel sends straight into the transport,
// whose window holds the whole stream. A run lent stores (JobSetup.Spill)
// is streamed one partition at a time through its only sink, sink 0, which
// scatters a chunk in segments the transport's window has room for: its
// kernel holds what it sends (HoldSends) and is drained after every segment
// — so a segment's emissions stay within the Room it reserved — and only
// the engine's goroutine flushes the transport: between segments, and inside
// the kernel's Drain or End when a sweep outgrows the window.
type jobScatter[V, M any] struct {
	r    *jobRun[V, M]
	k    *ScatterKernel[V, M]
	held bool // the run is lent stores: the kernel holds its sends
	err  error
}

// NewScatter implements JobRun. A worker's sink is made, with its kernel, on
// the worker's first partition, by the worker: kernels count per block, so
// two must not share a cache line. Loading a stored window may fail; the
// failure is the sink's first.
func (r *jobRun[V, M]) NewScatter(w, p int, chunkEdges int64) JobScatter {
	s := r.sinks[w]
	if s == nil {
		s = &jobScatter[V, M]{r: r, k: NewScatterKernel(r.prog, r.tp, r.combine, r.op, r.basePriv), held: r.spill != nil}
		if s.held {
			s.k.HoldSends()
		}
		r.sinks[w] = s
	}
	// In memory the kernel scatters from the whole vertex array; a stored
	// window is loaded first.
	verts, base := r.verts, int64(0)
	if s.err = nil; r.vstore != nil {
		var err error
		if verts, base, err = r.window(p); err != nil {
			s.err = fmt.Errorf("job %s: %w", r.prog.Name(), err)
			return s
		}
	}
	lo, hi := r.part.Range(p, r.setup.NumVertices)
	s.k.Begin(p, r.part, verts, VertexID(base), DegreeAwareBufRecs(r.basePriv, chunkEdges, hi-lo))
	return s
}

// Edges implements JobScatter. A held kernel is drained after every
// segment: it has then put at most one record per edge into the
// transport, so the room reserved for a segment suffices whatever the kernel
// keeps resident. Room was reserved, so a batch the transport refuses means
// updates would be lost: Edges returns the refusal and the iteration fails.
func (s *jobScatter[V, M]) Edges(chunk []Edge) error {
	tp := s.r.tp
	for off := 0; off < len(chunk) && s.err == nil; {
		take := len(chunk) - off
		if s.held {
			room := tp.Room()
			if room == 0 {
				if s.err = tp.Flush(); s.err != nil {
					break
				}
				room = max(tp.Room(), 1) // a window still full refuses the segment
			}
			take = min(take, room)
		}
		err := s.k.Edges(chunk[off : off+take])
		if s.held {
			err = s.k.Drain()
		}
		if err != nil {
			s.err = fmt.Errorf("job %s: %w", s.r.prog.Name(), err)
		}
		off += take
	}
	return s.err
}

// Flush implements JobScatter at the end of the partition: it ends the
// kernel and books its counts. A held kernel's sweep can hold more residents
// than the transport's window has room for; it flushes the window as it
// fills.
func (s *jobScatter[V, M]) Flush() error {
	if s.err != nil {
		return s.err
	}
	n, err := s.k.End()
	s.r.itMu.Lock()
	s.r.it.Add(n)
	s.r.itMu.Unlock()
	if err != nil {
		s.err = fmt.Errorf("job %s: %w", s.r.prog.Name(), err)
	}
	return s.err
}
