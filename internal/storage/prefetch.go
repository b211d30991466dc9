package storage

// Filler fills a stream's next batch: Fill puts up to len(buf) records in
// buf and returns them with the device bytes behind them. Nil records and no
// error end the stream, as does the first error.
type Filler[T any] interface {
	Fill(buf []T) ([]T, int64, error)
}

// FillFunc is a function used as a Filler.
type FillFunc[T any] func(buf []T) ([]T, int64, error)

// Fill implements Filler.
func (f FillFunc[T]) Fill(buf []T) ([]T, int64, error) { return f(buf) }

// Prefetcher is the prefetch-distance-1 protocol of §3.3 every sequential
// reader shares (the input edge file's, the out-of-core engine's tile and
// chunk readers), and the one place that decides whether a stream is read
// ahead or inline. Read ahead, a dedicated goroutine (one I/O thread per
// stream) fills the next batch into a second buffer while the caller
// processes the current one; inline, Next fills the first buffer itself.
// Either way Next is the only call a reader makes per batch.
type Prefetcher[T any] struct {
	src    Filler[T]       // nil once an inline stream has ended
	inline []T             // the buffer an inline Next fills
	ready  chan fetched[T] // nil when reading inline
	free   chan []T
	done   chan struct{}
	cur    []T
}

type fetched[T any] struct {
	recs []T
	phys int64
	err  error
}

// Start streams src's batches of up to n records through the buffers bufs,
// each made or grown to n records on first use and kept there for the next
// stream. With ahead a goroutine runs src one batch ahead of Next over both
// buffers; without — a stream of one batch, which has nothing to overlap
// with, or the no-prefetch ablation — Next fills the first buffer inline
// and the second is never made. A Prefetcher may be started again once
// Stop has returned.
func (p *Prefetcher[T]) Start(src Filler[T], bufs *[2][]T, n int, ahead bool) {
	*p = Prefetcher[T]{src: src}
	if !ahead {
		p.inline = grow(&bufs[0], n)
		return
	}
	p.ready = make(chan fetched[T], 1)
	p.free = make(chan []T, 2)
	p.done = make(chan struct{})
	p.free <- grow(&bufs[0], n)
	p.free <- grow(&bufs[1], n)
	go func() {
		defer close(p.ready)
		for {
			var buf []T
			select {
			case buf = <-p.free:
			case <-p.done:
				return
			}
			recs, phys, err := src.Fill(buf)
			if recs == nil && err == nil {
				return
			}
			select {
			case p.ready <- fetched[T]{recs, phys, err}:
			case <-p.done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// grow returns *buf with room for n records, made or grown when shorter.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// Next returns the next batch, handing the previous batch's buffer back
// first. Once the stream has ended — at its end, after an error or after
// Stop — it returns nil records and no error.
func (p *Prefetcher[T]) Next() ([]T, int64, error) {
	if p.ready == nil {
		if p.src == nil {
			return nil, 0, nil
		}
		recs, phys, err := p.src.Fill(p.inline)
		if recs == nil || err != nil {
			p.src = nil
		}
		return recs, phys, err
	}
	if p.cur != nil {
		p.free <- p.cur[:cap(p.cur)]
		p.cur = nil
	}
	res := <-p.ready // zero once the goroutine has closed it: end of stream
	if res.err == nil {
		p.cur = res.recs
	}
	return res.recs, res.phys, res.err
}

// Stop ends the stream. Read ahead, it ends the goroutine and waits for it
// to exit: it may be inside a device read into one of the buffers.
func (p *Prefetcher[T]) Stop() {
	p.src = nil
	if p.done != nil {
		close(p.done)
		for range p.ready { // the goroutine closes ready as it exits
		}
		p.done = nil
	}
}
