package diskengine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/storage"
)

// partFile is one append-only partition file (edges, updates or vertices),
// created empty. It keeps no checksum: each one lives with the code that
// verifies it — an edge file's in its tile index, an update file's and a
// vertex window's in their store.
type partFile struct {
	dev  storage.Device
	name string
	f    storage.File
	size int64 // append offset
}

func createPartFile(dev storage.Device, name string) (*partFile, error) {
	f, err := dev.Create(name)
	if err != nil {
		return nil, err
	}
	return &partFile{dev: dev, name: name, f: f}, nil
}

// appendBytes appends b at the current end of file, retrying short writes
// the way readAt retries short reads. The append offset advances only
// past bytes confirmed written, so a failed append leaves the file
// positionally consistent: a retry of the same append overwrites any torn
// prefix the device may have persisted.
func (p *partFile) appendBytes(b []byte) error {
	for len(b) > 0 {
		n, err := p.f.WriteAt(b, p.size)
		if err != nil {
			return fmt.Errorf("diskengine: append %s: %w", p.name, err)
		}
		if n <= 0 {
			return fmt.Errorf("diskengine: append %s: write stalled at offset %d", p.name, p.size)
		}
		p.size += int64(n)
		b = b[n:]
	}
	return nil
}

// writeAllAt replaces the file's whole contents with b — the vertex-spill
// store path.
func (p *partFile) writeAllAt(b []byte) error {
	off := int64(0)
	for off < int64(len(b)) {
		n, err := p.f.WriteAt(b[off:], off)
		if err != nil {
			return fmt.Errorf("diskengine: write %s: %w", p.name, err)
		}
		if n <= 0 {
			return fmt.Errorf("diskengine: write %s: write stalled at offset %d", p.name, off)
		}
		off += int64(n)
	}
	p.size = int64(len(b))
	return nil
}

// truncate empties the file. On SSDs the paper relies on truncation
// translating to TRIM to relieve the flash garbage collector (§3.3); the
// storage layer counts it as such.
func (p *partFile) truncate() error {
	p.size = 0
	return p.f.Truncate(0)
}

func (p *partFile) close() error { return p.f.Close() }

func (p *partFile) remove() error {
	p.f.Close()
	return p.dev.Remove(p.name)
}

// readScratch is the reader-side record buffers an engine run, a shared
// pass or a drain worker owns for its whole life and lends to one open
// reader at a time: the two buffers of the prefetch double buffer (a reader
// that reads inline uses only the first). Buffers are made on first use and
// grown when a reader asks for more; a reader's Close hands them back.
type readScratch[T any] struct {
	busy atomic.Bool // lent to an open reader
	bufs [2][]T
}

// buf returns record buffer i with room for n records.
func (sc *readScratch[T]) buf(i, n int) []T {
	if cap(sc.bufs[i]) < n {
		sc.bufs[i] = make([]T, n)
	}
	return sc.bufs[i][:n]
}

// prefetcher is the prefetch-distance-1 protocol of §3.3 both readers
// (tileReader, chunkReader) share: a dedicated goroutine (one I/O thread per
// stream) fills the next batch into a second buffer while the caller
// processes the current one.
type prefetcher[T any] struct {
	ready chan fetched[T] // nil: the reader fills inline on the caller's goroutine
	free  chan []T
	done  chan struct{}
	cur   []T
}

type fetched[T any] struct {
	recs []T
	phys int64
	err  error
}

// start runs fill one batch ahead of next over the buffers a and b. fill
// returns the batch it put in the buffer and the device bytes behind it;
// nil records and no error end the stream, as does the first error.
func (p *prefetcher[T]) start(a, b []T, fill func(buf []T) ([]T, int64, error)) {
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

// next hands the previous batch's buffer back and waits for the next one.
func (p *prefetcher[T]) next() ([]T, int64, error) {
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

// stop ends the goroutine, if one was started, and waits for it to exit: it
// may be inside a device read into one of the buffers.
func (p *prefetcher[T]) stop() {
	if p.done != nil {
		close(p.done)
		for range p.ready { // the goroutine closes ready as it exits
		}
	}
}

// chunkScratch is the update store's drain scratch: byte buffers and the
// chunk reader lent them.
type chunkScratch struct {
	readScratch[byte]
	rd chunkReader
}

// chunkReader streams a byte range of an update file sequentially in
// fixed-size chunks, prefetching the next chunk while the caller processes
// the current one.
type chunkReader struct {
	sc         *chunkScratch // nil once closed
	f          storage.File
	chunkBytes int
	off, end   int64 // unread byte range
	prefetcher[byte]
}

// openChunks lends the scratch to a reader streaming the byte range
// [start, end) of f, chunkBytes per I/O request. With prefetch a dedicated
// goroutine reads ahead — unless the range is a single chunk, which has
// nothing to overlap with and is read inline like the no-prefetch ablation.
// It returns nil when the scratch is still lent to another reader.
func (sc *chunkScratch) openChunks(f storage.File, start, end int64, chunkBytes int, prefetch bool) *chunkReader {
	if !sc.busy.CompareAndSwap(false, true) {
		return nil
	}
	r := &sc.rd
	*r = chunkReader{sc: sc, f: f, chunkBytes: chunkBytes, off: start, end: end}
	if prefetch && end-start > int64(chunkBytes) {
		r.start(sc.buf(0, chunkBytes), sc.buf(1, chunkBytes), r.fill)
	}
	return r
}

// fill reads the next chunk into buf.
func (r *chunkReader) fill(buf []byte) ([]byte, int64, error) {
	n := min(int64(r.chunkBytes), r.end-r.off)
	if n <= 0 {
		return nil, 0, nil
	}
	// A read of zero bytes with no error is a zero-progress EOF: the file
	// is shorter than the caller's bookkeeping says — the shape a silently
	// torn write leaves behind. It ends the stream instead of spinning; the
	// caller's byte-count check turns the shortfall into ErrCorrupted.
	got, err := readAt(r.f, buf[:n], r.off)
	if err != nil || got == 0 {
		return nil, 0, err
	}
	r.off += int64(got)
	return buf[:got], int64(got), nil
}

// Next returns the next chunk, or nil at end of stream. The returned slice
// is only valid until the following Next call.
func (r *chunkReader) Next() (chunk []byte, err error) {
	if r.ready == nil {
		chunk, _, err = r.fill(r.sc.buf(0, r.chunkBytes))
		return chunk, err
	}
	chunk, _, err = r.next()
	return chunk, err
}

// Close stops the prefetch and only then hands the scratch back: once it
// is free the next reader may overwrite this one. Safe on every path — end
// of stream, early close, read error — and idempotent.
func (r *chunkReader) Close() {
	if sc := r.sc; sc != nil {
		r.stop()
		r.sc = nil
		sc.busy.Store(false)
	}
}
