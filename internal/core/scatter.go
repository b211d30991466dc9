package core

import "fmt"

// scatterBlock is how many edges the kernel scatters between combining
// passes: the staged updates of one block stay L1-resident.
const scatterBlock = 256

// ScatterCounts is the accounting of one scatter task, or a sum of them.
type ScatterCounts struct {
	Streamed int64 // edge records scattered
	Sent     int64 // updates produced by Scatter (pre-combining)
	Cross    int64 // of those that entered the update stream, addressed outside the scattered partition
	Combined int64 // updates merged away in the combining buffer
}

// Add accumulates o into c.
func (c *ScatterCounts) Add(o ScatterCounts) {
	c.Streamed += o.Streamed
	c.Sent += o.Sent
	c.Cross += o.Cross
	c.Combined += o.Combined
}

// ScatterKernel is one scatter worker's run-lived kernel, the engines' only
// scatter loop (§4.1). Begin readies it for a task, a partition's edges;
// Edges scatters a run of the task's edges in blocks: loop A applies the
// program to the block into the stage array — one ScatterBlock call for a
// BlockScatterer, one Scatter call per edge otherwise — loop B counts the
// cross-partition updates and feeds them to the combining buffer (the plain
// append buffer for a program without a Combiner), which sends every full
// batch straight into the transport; End empties the buffer into the
// transport and returns the task's counts. A batch the transport refuses
// fails the task: Edges and End return the refusal with the transport's
// reason, and Edges scatters nothing more until the next Begin. A kernel
// belongs to one goroutine at a time.
type ScatterKernel[V, M any] struct {
	prog  Program[V, M]
	block BlockScatterer[V, M] // prog's block hook, nil without one
	tp    UpdateTransport[M]
	cb    *CombineBuffer[M] // nil unless the kernel combines
	out   []Update[M]       // the plain append buffer; unused when combining

	p       int
	lo, per uint32 // partition p owns vertices [lo, lo+per)
	verts   []V    // the task's vertex window, verts[0] being vertex base
	base    VertexID
	n       ScatterCounts
	err     error // the task's refused batch, if any
	stage   [scatterBlock]Update[M]
}

// NewScatterKernel makes a kernel scattering prog, over a graph of nv
// vertices, into tp through a private buffer of baseRecs records: a
// combining buffer over the nv destinations merging by combine and op (both
// from Combining) when combine is non-nil and DenseCombines[M](nv) holds, a
// plain append buffer otherwise. A prog that is a BlockScatterer is
// scattered a block per call.
func NewScatterKernel[V, M any](prog Program[V, M], tp UpdateTransport[M], combine func(a, b M) M, op CombineOp, baseRecs int, nv int64) *ScatterKernel[V, M] {
	k := &ScatterKernel[V, M]{prog: prog, tp: tp}
	k.block, _ = prog.(BlockScatterer[V, M])
	if combine != nil && DenseCombines[M](nv) {
		k.cb = NewCombineBuffer(baseRecs, nv, combine, op)
		return k
	}
	k.out = make([]Update[M], 0, max(baseRecs, 1))
	return k
}

// Begin readies the kernel for a task over edges of partition p of split
// whose sources lie in verts, the vertex window starting at vertex base.
func (k *ScatterKernel[V, M]) Begin(p int, split Split, verts []V, base VertexID) {
	k.p, k.lo, k.per = p, uint32(p)*split.per, split.per
	k.verts, k.base, k.n, k.err = verts, base, ScatterCounts{}, nil
	k.out = k.out[:0]
	if k.cb != nil {
		k.cb.Reset()
	}
}

// Edges scatters one contiguous run of the task's edges. It returns the
// task's refused batch, if the transport has refused one.
func (k *ScatterKernel[V, M]) Edges(run []Edge) error {
	if k.err != nil {
		return k.err
	}
	k.n.Streamed += int64(len(run))
	for len(run) > 0 {
		blk := run[:min(len(run), scatterBlock)]
		run = run[len(blk):]
		n := 0
		if k.block != nil {
			n = k.block.ScatterBlock(blk, k.verts, k.base, k.stage[:])
		} else {
			for _, ed := range blk {
				m, ok := k.prog.Scatter(ed, &k.verts[ed.Src-k.base])
				k.stage[n] = Update[M]{Dst: ed.Dst, Val: m}
				if ok {
					n++
				}
			}
		}
		k.n.Sent += int64(n)
		k.route(k.stage[:n])
	}
	return k.err
}

// route counts the cross-partition updates of us — an unsigned range compare
// against the partition's vertex range, no divide — and stages them all for
// the transport.
func (k *ScatterKernel[V, M]) route(us []Update[M]) {
	cross := 0
	for _, u := range us {
		if uint32(u.Dst)-k.lo >= k.per {
			cross++
		}
	}
	k.n.Cross += int64(cross)
	if k.cb != nil {
		k.cb.Add(us)
		return
	}
	for len(us) > 0 {
		n := copy(k.out[len(k.out):cap(k.out)], us)
		k.out, us = k.out[:len(k.out)+n], us[n:]
		if len(k.out) == cap(k.out) {
			k.send(k.out)
			k.out = k.out[:0]
		}
	}
}

// send hands a full batch to the transport; a refusal fails the task.
func (k *ScatterKernel[V, M]) send(recs []Update[M]) {
	if !k.tp.Send(k.p, recs) && k.err == nil {
		k.err = fmt.Errorf("update transport refused a scatter batch of %d records: %w", len(recs), k.tp.Err())
	}
}

// End finishes the task: the private buffer empties into the transport, and
// the task's counts are returned with its refused batch, if any. No Edges
// call may follow before the next Begin.
func (k *ScatterKernel[V, M]) End() (ScatterCounts, error) {
	if k.cb != nil {
		k.cb.Sweep(k.send)
		k.n.Combined += k.cb.Combined
	} else if len(k.out) > 0 {
		k.send(k.out)
		k.out = k.out[:0]
	}
	return k.n, k.err
}
