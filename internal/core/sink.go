package core

import "fmt"

// jobScatter is a run's scatter sink: one run-lived kernel, Begun on each
// partition, and the sink's first failure. Its kernel sends every full batch
// straight into the run's transport. A run lent no stores has one sink per
// engine worker, and the transport's window holds the whole stream. A run
// lent stores (JobSetup.Spill) is streamed one partition at a time through
// its only sink, sink 0, fed by one goroutine at a time, and the transport
// spills each window the sends fill.
type jobScatter[V, M any] struct {
	r   *jobRun[V, M]
	k   *ScatterKernel[V, M]
	err error
}

// NewScatter implements JobRun. A worker's sink is made, with its kernel, on
// the worker's first partition, by the worker: kernels count per block, so
// two must not share a cache line. Loading a stored window may fail; the
// failure is the sink's first.
func (r *jobRun[V, M]) NewScatter(w, p int) JobScatter {
	s := r.sinks[w]
	if s == nil {
		s = &jobScatter[V, M]{r: r, k: NewScatterKernel(r.prog, r.tp, r.combine, r.op, r.basePriv, r.setup.NumVertices)}
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
	s.k.Begin(p, r.part, verts, VertexID(base))
	return s
}

// Edges implements JobScatter. A batch the transport refuses — past the
// window of a transport without a store, or after a failed spill — means
// updates would be lost: Edges returns the refusal and the iteration fails.
func (s *jobScatter[V, M]) Edges(chunk []Edge) error {
	if s.err == nil {
		if err := s.k.Edges(chunk); err != nil {
			s.err = fmt.Errorf("job %s: %w", s.r.prog.Name(), err)
		}
	}
	return s.err
}

// Flush implements JobScatter at the end of the partition: it ends the
// kernel and books its counts.
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
