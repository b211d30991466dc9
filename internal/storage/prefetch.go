package storage

// Prefetcher is the prefetch-distance-1 protocol of §3.3 every sequential
// reader shares (the input edge file's, the out-of-core engine's tile and
// chunk readers): a dedicated goroutine (one I/O thread per stream) fills
// the next batch into a second buffer while the caller processes the
// current one. The zero value is not started; a reader that reads inline
// calls its fill itself and never starts one.
type Prefetcher[T any] struct {
	ready chan fetched[T] // nil until Start
	free  chan []T
	done  chan struct{}
	cur   []T
}

type fetched[T any] struct {
	recs []T
	phys int64
	err  error
}

// Start runs fill one batch ahead of Next over the buffers a and b. fill
// returns the batch it put in the buffer and the device bytes behind it;
// nil records and no error end the stream, as does the first error.
func (p *Prefetcher[T]) Start(a, b []T, fill func(buf []T) ([]T, int64, error)) {
	p.ready = make(chan fetched[T], 1)
	p.free = make(chan []T, 2)
	p.done = make(chan struct{})
	p.free <- a
	p.free <- b
	go func() {
		defer close(p.ready)
		for {
			var buf []T
			select {
			case buf = <-p.free:
			case <-p.done:
				return
			}
			recs, phys, err := fill(buf)
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

// Started reports whether Start has run.
func (p *Prefetcher[T]) Started() bool { return p.ready != nil }

// Next hands the previous batch's buffer back and waits for the next one.
// Once the goroutine has exited — at the end of the stream, after an error
// or after Stop — it returns nil records and no error.
func (p *Prefetcher[T]) Next() ([]T, int64, error) {
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

// Stop ends the goroutine, if one was started, and waits for it to exit: it
// may be inside a device read into one of the buffers.
func (p *Prefetcher[T]) Stop() {
	if p.done != nil {
		close(p.done)
		for range p.ready { // the goroutine closes ready as it exits
		}
	}
}
