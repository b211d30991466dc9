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
// per-edge scatter loop (§4.1). Begin readies it for a task, a partition's
// edges; Edges scatters a run of the task's edges in blocks: loop A applies
// the program's Scatter into the stage array, loop B counts the
// cross-partition updates and feeds them to the combining cache (the plain
// append buffer for a program without a Combiner); Drain
// hands what the task has evicted so far to the transport; End flushes the
// buffer into the transport and returns the task's counts. A batch the
// transport refuses fails the task: Edges, Drain and End return the refusal,
// and Edges scatters nothing more until the next Begin. A kernel belongs to
// one goroutine at a time.
type ScatterKernel[V, M any] struct {
	prog Program[V, M]
	tp   UpdateTransport[M]
	cb   *CombineBuffer[M] // nil without a Combiner
	out  []Update[M]       // the plain append buffer; unused with a Combiner
	// drain is send as a func value, made once with cb: Add passes it on
	// through the loop it picked, a func value, so a method value made per
	// block would escape to the heap.
	drain func([]Update[M])
	// hold is set by HoldSends; held is then every batch sent since the last
	// Drain, in order.
	hold bool
	held []Update[M]

	p       int
	lo, per uint32 // partition p owns vertices [lo, lo+per)
	verts   []V    // the task's vertex window, verts[0] being vertex base
	base    VertexID
	n       ScatterCounts
	err     error // the task's refused batch, if any
	stage   [scatterBlock]Update[M]
}

// NewScatterKernel makes a kernel scattering prog into tp through a private
// buffer of baseRecs records: a combining cache merging by combine and op
// (both from Combining) when combine is non-nil, a plain append buffer
// otherwise.
func NewScatterKernel[V, M any](prog Program[V, M], tp UpdateTransport[M], combine func(a, b M) M, op CombineOp, baseRecs int) *ScatterKernel[V, M] {
	k := &ScatterKernel[V, M]{prog: prog, tp: tp}
	if combine == nil {
		k.out = make([]Update[M], 0, max(baseRecs, 1))
		return k
	}
	k.cb, k.drain = NewCombineBuffer(baseRecs, combine, op), k.send
	return k
}

// HoldSends makes the kernel keep every batch it sends until the next Drain
// or End, which put them into the transport, filling its window and flushing
// it whenever a batch would not fit. It is for a caller that streams a
// partition through the transport's window: Drain after every segment puts
// at most one record per edge of the segment into the transport, and End's
// sweep flushes the window as often as its residents need.
func (k *ScatterKernel[V, M]) HoldSends() { k.hold = true }

// Begin readies the kernel for a task over edges of partition p of split
// whose sources lie in verts, the vertex window starting at vertex base,
// combining within a window of up to window records.
func (k *ScatterKernel[V, M]) Begin(p int, split Split, verts []V, base VertexID, window int) {
	k.p, k.lo, k.per = p, uint32(p)*split.per, split.per
	k.verts, k.base, k.n, k.err = verts, base, ScatterCounts{}, nil
	k.out, k.held = k.out[:0], k.held[:0]
	if k.cb != nil {
		k.cb.Reset(window)
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
		for _, ed := range blk {
			m, ok := k.prog.Scatter(ed, &k.verts[ed.Src-k.base])
			k.stage[n] = Update[M]{Dst: ed.Dst, Val: m}
			if ok {
				n++
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
		k.cb.Add(us, k.drain)
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

// send hands a full batch on: into the transport, or to held while sends
// are held.
func (k *ScatterKernel[V, M]) send(recs []Update[M]) {
	if k.hold {
		k.held = append(k.held, recs...)
		return
	}
	k.put(recs)
}

// put sends recs into the transport; a refusal fails the task.
func (k *ScatterKernel[V, M]) put(recs []Update[M]) {
	if !k.tp.Send(k.p, recs) && k.err == nil {
		k.err = fmt.Errorf("update transport refused a scatter batch of %d records (capacity %d records)", len(recs), k.tp.Cap())
	}
}

// release puts the held batches into the transport in pieces that fit its
// window, flushing the window whenever it is full. A window still full after
// a flush is left to refuse the rest; a failed flush fails the task.
func (k *ScatterKernel[V, M]) release() {
	recs := k.held
	k.held = k.held[:0]
	for len(recs) > 0 && k.err == nil {
		room := k.tp.Room()
		if room == 0 {
			if k.err = k.tp.Flush(); k.err != nil {
				return
			}
			room = max(k.tp.Room(), 1)
		}
		n := min(room, len(recs))
		k.put(recs[:n])
		recs = recs[n:]
	}
}

// Drain hands the transport what the task has evicted so far — a combining
// cache's append buffer, or the whole plain buffer — and, when sends are
// held, every batch held since the last Drain; a cache's residents stay. It
// returns the task's refused batch, if any. A task drained after every run
// of Edges has put at most one record into the transport per edge of that
// run, so a caller can bound a run by the room it reserved.
func (k *ScatterKernel[V, M]) Drain() error {
	if k.cb != nil {
		k.cb.drain(k.drain)
	} else if len(k.out) > 0 {
		k.send(k.out)
		k.out = k.out[:0]
	}
	if k.hold {
		k.release()
	}
	return k.err
}

// End finishes the task: the private buffer empties into the transport, and
// the task's counts are returned with its refused batch, if any. No Edges
// call may follow before the next Begin.
func (k *ScatterKernel[V, M]) End() (ScatterCounts, error) {
	if k.cb != nil {
		k.cb.Sweep(k.drain)
		k.n.Combined += k.cb.Combined
	}
	k.Drain()
	return k.n, k.err
}
