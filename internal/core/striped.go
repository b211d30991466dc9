package core

import "fmt"

// stripedScatter is the one scatter sink of a run whose engine streams one
// partition at a time (JobSetup.Stripes): one run-lived kernel per stripe,
// each held open for a whole partition, and the sink's first failure. Three
// rules make what reaches the transport independent of goroutine timing.
// Stripe i of every segment goes to kernel i. The kernels hold what they
// send (HoldSends) and are drained after every segment, in index order, on
// the engine's goroutine — so a segment's emissions stay within the Room it
// reserved. And only that goroutine flushes the transport: between segments,
// and inside a held kernel's Drain or End when a sweep outgrows the window.
type stripedScatter[V, M any] struct {
	r   *jobRun[V, M]
	ks  []*ScatterKernel[V, M]
	err error
}

// begin readies the sink for partition p, whose edge chunk holds chunkEdges
// records: it loads the partition's vertex window — from the vertex store
// when the state lives there — and Begins the partition's kernels on it,
// with the combining window the partition's degree earns. A failed load is
// the sink's first failure.
func (s *stripedScatter[V, M]) begin(p int, chunkEdges int64) JobScatter {
	r := s.r
	var verts []V
	var lo int64
	if verts, lo, s.err = r.window(p); s.err != nil {
		s.err = fmt.Errorf("job %s: %w", r.prog.Name(), s.err)
		return s
	}
	window := DegreeAwareBufRecs(r.basePriv, chunkEdges, int64(len(verts)))
	for i, k := range s.ks {
		if k == nil {
			k = NewScatterKernel(r.prog, r.tp, r.combine, r.op, r.basePriv)
			k.HoldSends()
			s.ks[i] = k
		}
		k.Begin(p, r.part, verts, VertexID(lo), window)
	}
	return s
}

// Edges implements JobScatter: it scatters the chunk in segments that fit
// the transport's window. A kernel drained after its stripe has put at most
// one record per edge into the transport, so the room reserved for a
// segment suffices whatever its kernels keep resident.
func (s *stripedScatter[V, M]) Edges(chunk []Edge) error {
	tp := s.r.tp
	for off := 0; off < len(chunk) && s.err == nil; {
		room := tp.Room()
		if room == 0 {
			if s.err = tp.Flush(); s.err != nil {
				break
			}
			room = max(tp.Room(), 1) // a window still full refuses the segment
		}
		take := min(len(chunk)-off, room)
		s.err = s.segment(chunk[off : off+take])
		off += take
	}
	return s.err
}

// stripeMin is the shortest segment cut into stripes; a shorter one is
// scattered by kernel 0 alone.
const stripeMin = 4096

// segment scatters a slice of edges through the kernels (§4.1), cut into one
// equal stripe per kernel. Keyed on the stripe, not on the goroutine that
// claims it, every kernel sees a fixed edge sequence — its stripe of every
// segment in order — so what it combines is a pure function of the
// partition's edges, the transport's window and the kernel count. Room was
// reserved for the segment, so a batch the transport refuses means updates
// would be lost: segment returns the refusal and the iteration fails.
func (s *stripedScatter[V, M]) segment(edges []Edge) error {
	ks := s.ks
	if len(edges) < stripeMin || len(ks) <= 1 {
		ks[0].Edges(edges)
	} else {
		per := (len(edges) + len(ks) - 1) / len(ks)
		ForEachClaimed((len(edges)+per-1)/per, len(ks), func(_, i int) {
			ks[i].Edges(edges[i*per : min((i+1)*per, len(edges))])
		})
	}
	for _, k := range ks {
		if err := k.Drain(); err != nil {
			return fmt.Errorf("job %s: %w", s.r.prog.Name(), err)
		}
	}
	return nil
}

// Flush implements JobScatter at the end of the partition: it ends the
// kernels in index order and books their counts. A sweep can hold more
// residents than the transport's window has room for; no stripe is running,
// so the kernels flush the window as it fills.
func (s *stripedScatter[V, M]) Flush() error {
	if s.err != nil {
		return s.err
	}
	for _, k := range s.ks {
		n, err := k.End()
		s.r.it.Add(n)
		if err != nil {
			s.err = fmt.Errorf("job %s: %w", s.r.prog.Name(), err)
			return s.err
		}
	}
	return nil
}
