package core

import "sync/atomic"

// scatterBlock is how many edges the kernel scatters between combining
// passes: the staged updates of one block stay L1-resident.
const scatterBlock = 256

// ScatterCounts is the accounting of one scatter task, or a sum of them.
type ScatterCounts struct {
	Streamed int64 // edge records scattered
	Sent     int64 // updates produced by Scatter (pre-combining)
	Cross    int64 // of those that entered the update stream, addressed outside the scattered partition
	Combined int64 // updates merged away in the mirror and combining buffers
	Synced   int64 // master-mirror sync updates flushed (replication)
}

// Add accumulates o into c.
func (c *ScatterCounts) Add(o ScatterCounts) {
	c.Streamed += o.Streamed
	c.Sent += o.Sent
	c.Cross += o.Cross
	c.Combined += o.Combined
	c.Synced += o.Synced
}

// ScatterKernel is one scatter worker's run-lived kernel, the engines' only
// per-edge scatter loop (§4.1). Begin readies it for a task — a partition's
// edge chunk, or one thread's range of it; Edges scatters a run of the task's
// edges in blocks: loop A applies the program's Scatter into the stage array,
// loop B absorbs hub updates into the mirror accumulator, counts the
// cross-partition ones and feeds the rest to the combining cache (the plain
// append buffer for a program without a Combiner); End flushes the mirror
// syncs and the buffer into the transport and returns the task's counts. A
// batch the transport refuses is recorded in overflow and turns Edges into a
// no-op. A kernel belongs to one goroutine at a time.
type ScatterKernel[V, M any] struct {
	prog     Program[V, M]
	tp       UpdateTransport[M]
	overflow *atomic.Bool
	cb       *CombineBuffer[M] // nil without a Combiner
	mb       *MirrorBuffer[M]  // nil unless replication is active
	out      []Update[M]       // the plain append buffer; unused with a Combiner

	p       int
	lo, per uint32 // partition p owns vertices [lo, lo+per)
	verts   []V    // the task's vertex window, verts[0] being vertex base
	base    VertexID
	n       ScatterCounts
	stage   [scatterBlock]Update[M]
}

// NewScatterKernel makes a kernel scattering prog into tp through a private
// buffer of baseRecs records: a combining cache when combine is non-nil
// (with a mirror accumulator over rep when that is non-nil too), a plain
// append buffer otherwise.
func NewScatterKernel[V, M any](prog Program[V, M], tp UpdateTransport[M], overflow *atomic.Bool, combine func(a, b M) M, rep *Replication, baseRecs int) *ScatterKernel[V, M] {
	k := &ScatterKernel[V, M]{prog: prog, tp: tp, overflow: overflow}
	if combine == nil {
		k.out = make([]Update[M], 0, max(baseRecs, 1))
		return k
	}
	k.cb = NewCombineBuffer(baseRecs, combine)
	if rep != nil {
		k.mb = NewMirrorBuffer(rep, combine)
	}
	return k
}

// Begin readies the kernel for a task over edges of partition p of split
// whose sources lie in verts, the vertex window starting at vertex base,
// combining within a window of up to window records.
func (k *ScatterKernel[V, M]) Begin(p int, split Split, verts []V, base VertexID, window int) {
	k.p, k.lo, k.per = p, uint32(p)*split.per, split.per
	k.verts, k.base, k.n = verts, base, ScatterCounts{}
	k.out = k.out[:0]
	if k.cb != nil {
		k.cb.Reset(window)
	}
}

// Edges scatters one contiguous run of the task's edges.
func (k *ScatterKernel[V, M]) Edges(run []Edge) {
	if k.overflow.Load() {
		return
	}
	k.n.Streamed += int64(len(run))
	for len(run) > 0 {
		blk := run[:min(len(run), scatterBlock)]
		run = run[len(blk):]
		n := 0
		for _, ed := range blk {
			m, ok := k.prog.Scatter(ed, &k.verts[ed.Src-k.base])
			k.stage[n] = Update[M]{Dst: ed.Dst, Val: m}
			if ok {
				n++
			}
		}
		k.n.Sent += int64(n)
		us := k.stage[:n]
		if k.mb != nil {
			kept := us[:0]
			for _, u := range us {
				if !k.mb.Absorb(u.Dst, u.Val) {
					kept = append(kept, u)
				}
			}
			us = kept
		}
		k.route(us)
	}
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
		k.cb.Add(us, k.send)
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

func (k *ScatterKernel[V, M]) send(recs []Update[M]) {
	if !k.tp.Send(k.p, recs) {
		k.overflow.Store(true)
	}
}

// End finishes the task: the mirror accumulator's syncs join the stream, the
// private buffer empties into the transport, and the task's counts are
// returned. No Edges call may follow before the next Begin.
func (k *ScatterKernel[V, M]) End() ScatterCounts {
	if k.mb != nil {
		k.n.Combined = k.mb.Merged
		k.n.Synced = k.mb.Flush(func(u Update[M]) {
			k.stage[0] = u
			k.route(k.stage[:1])
		})
	}
	if k.cb != nil {
		k.cb.Sweep(k.send)
		k.n.Combined += k.cb.Combined
	} else if len(k.out) > 0 {
		k.send(k.out)
	}
	return k.n
}
