package diskengine

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/streambuf"
)

// partFile is one append-only partition file (edges, updates or vertices).
// crc is the running CRC32C of every byte appended since creation (or the
// last truncate/writeAllAt) — the read-path verifier for files whose whole
// stream is re-read: update files at gather, vertex spill windows, and raw
// edge files streamed end to end.
type partFile struct {
	dev  storage.Device
	name string
	f    storage.File
	size int64 // append offset
	crc  uint32
}

func createPartFile(dev storage.Device, name string) (*partFile, error) {
	f, err := dev.Create(name)
	if err != nil {
		return nil, err
	}
	return &partFile{dev: dev, name: name, f: f}, nil
}

// appendBytes appends b at the current end of file, retrying short writes
// the way readFull retries short reads. The append offset and running
// checksum advance only past bytes confirmed written, so a failed append
// leaves the file positionally consistent: a retry of the same append
// overwrites any torn prefix the device may have persisted.
func (p *partFile) appendBytes(b []byte) error {
	for len(b) > 0 {
		n, err := p.f.WriteAt(b, p.size)
		if err != nil {
			return fmt.Errorf("diskengine: append %s: %w", p.name, err)
		}
		if n <= 0 {
			return fmt.Errorf("diskengine: append %s: write stalled at offset %d", p.name, p.size)
		}
		p.crc = storage.ChecksumUpdate(p.crc, b[:n])
		p.size += int64(n)
		b = b[n:]
	}
	return nil
}

// writeAllAt replaces the file's whole contents with b — the vertex-spill
// store path. On success the running checksum covers exactly b.
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
	p.crc = storage.Checksum(b)
	return nil
}

// truncate empties the file. On SSDs the paper relies on truncation
// translating to TRIM to relieve the flash garbage collector (§3.3); the
// storage layer counts it as such.
func (p *partFile) truncate() error {
	p.size = 0
	p.crc = 0
	return p.f.Truncate(0)
}

func (p *partFile) close() error { return p.f.Close() }

func (p *partFile) remove() error {
	p.f.Close()
	return p.dev.Remove(p.name)
}

// readScratch is the reader-side buffer set an engine run, a shared pass or
// a file transport's drain side owns for its whole life and lends to one
// open reader at a time: the two record buffers of the prefetch double
// buffer (a reader that reads inline uses only the first) and the reader
// itself. Buffers are made on first use and grown when a reader asks for
// more; a reader's Close hands everything back.
type readScratch[T any] struct {
	busy atomic.Bool // lent to an open reader
	bufs [2][]T
	rd   chunkReader[T]
}

// buf returns record buffer i with room for n records.
func (sc *readScratch[T]) buf(i, n int) []T {
	if cap(sc.bufs[i]) < n {
		sc.bufs[i] = make([]T, n)
	}
	return sc.bufs[i][:n]
}

// prefetcher is the prefetch-distance-1 protocol of §3.3 both readers
// share: a dedicated goroutine (one I/O thread per stream) fills the next
// batch into a second buffer while the caller processes the current one.
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

// chunkReader streams a partFile sequentially in fixed-size chunks of
// records, prefetching the next chunk while the caller processes the
// current one.
type chunkReader[T any] struct {
	sc        *readScratch[T] // nil once closed
	f         storage.File
	recSize   int
	chunkRecs int
	off, end  int64 // unread byte range
	delivered int64 // bytes returned through Next so far
	prefetcher[T]
}

// openChunks lends the scratch to a reader streaming the byte range
// [start, end) of f, chunkRecs records per I/O request. Both offsets must
// be record-aligned. With prefetch a dedicated goroutine reads ahead —
// unless the range is a single chunk, which has nothing to overlap with
// and is read inline like the no-prefetch ablation. It returns nil when the
// scratch is still lent to another reader.
func (sc *readScratch[T]) openChunks(f storage.File, start, end int64, chunkRecs int, prefetch bool) *chunkReader[T] {
	if !sc.busy.CompareAndSwap(false, true) {
		return nil
	}
	r := &sc.rd
	*r = chunkReader[T]{sc: sc, f: f, recSize: pod.Size[T](), chunkRecs: chunkRecs, off: start, end: end}
	if prefetch && end-start > int64(chunkRecs)*int64(r.recSize) {
		r.start(sc.buf(0, chunkRecs), sc.buf(1, chunkRecs), r.fill)
	}
	return r
}

// fill reads the next chunk into buf.
func (r *chunkReader[T]) fill(buf []T) ([]T, int64, error) {
	n := min(int64(r.chunkRecs), (r.end-r.off)/int64(r.recSize))
	if n <= 0 {
		return nil, 0, nil
	}
	// A read of zero records with no error is a zero-progress EOF on a
	// record boundary: the file is shorter than the caller's bookkeeping
	// says — the shape a silently torn write leaves behind. It ends the
	// stream instead of spinning; the caller's record-count check turns the
	// shortfall into ErrCorrupted.
	recs, err := readFull(r.f, buf[:n], r.off, r.recSize)
	if err != nil || len(recs) == 0 {
		return nil, 0, err
	}
	bytes := int64(len(recs)) * int64(r.recSize)
	r.off += bytes
	return recs, bytes, nil
}

// readFull reads len(buf) records at byte offset off, retrying short reads.
func readFull[T any](f storage.File, buf []T, off int64, recSize int) ([]T, error) {
	raw := pod.AsBytes(buf)
	got := 0
	for got < len(raw) {
		n, err := f.ReadAt(raw[got:], off+int64(got))
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	if got%recSize != 0 {
		return nil, fmt.Errorf("diskengine: torn record: %d bytes at offset %d: %w", got, off, storage.ErrCorrupted)
	}
	return buf[:got/recSize], nil
}

// Next returns the next chunk, or nil at end of stream. The returned slice
// is only valid until the following Next call.
func (r *chunkReader[T]) Next() (recs []T, err error) {
	var phys int64
	if r.ready == nil {
		recs, phys, err = r.fill(r.sc.buf(0, r.chunkRecs))
	} else {
		recs, phys, err = r.next()
	}
	r.delivered += phys
	return recs, err
}

// Close stops the prefetch and only then hands the scratch back: once it
// is free the next reader may overwrite this one. Safe on every path — end
// of stream, early close, read error — and idempotent.
func (r *chunkReader[T]) Close() {
	if sc := r.sc; sc != nil {
		r.stop()
		r.sc = nil
		sc.busy.Store(false)
	}
}

// PhysBytes returns the byte volume delivered through Next so far. A raw
// reader's physical and logical volumes coincide (see edgeStream).
func (r *chunkReader[T]) PhysBytes() int64 { return r.delivered }

// bucketWriter is the merged shuffle+write pipeline of the scatter phase
// (paper Figure 6): records are appended into the current stream buffer;
// when it fills it is shuffled into per-partition chunks which a dedicated
// writer goroutine appends to the partition files, overlapped with the
// caller filling the next buffer. Three stream buffers rotate through the
// roles current / in-flight / shuffle-scratch, which together with the two
// input buffers gives the five buffers of §3.4.
type bucketWriter[T any] struct {
	files   []*partFile
	plan    streambuf.Plan
	key     func(T) uint32
	threads int
	// fold, when non-nil, is applied to every shuffled buffer before its
	// buckets are written — the combining stage that merges
	// same-destination records so fewer bytes reach the update files. It
	// returns the number of records merged away.
	fold func(*streambuf.Buffer[T]) int64
	// observe, when non-nil, sees every bucket run in exactly the order it
	// is appended to its file. It runs on the writer goroutine (single-
	// threaded, overlapped with the caller's next fill) and is how the
	// selective-streaming tile index is built during the existing edge
	// shuffle, without an extra pass. Set before the first Flush.
	observe func(bucket int, run []T)
	// sink, when non-nil, replaces the raw bucket append entirely: the
	// run is handed to it instead of being written, and the sink owns the
	// file append (the compressed-tile layout encodes whole tiles here).
	// Like observe it runs on the writer goroutine, in exact append
	// order. Set before the first Flush; mutually exclusive with observe.
	sink func(bucket int, run []T) error

	cur     *streambuf.Buffer[T]
	free    chan *streambuf.Buffer[T]
	queue   chan *streambuf.Buffer[T]
	wg      sync.WaitGroup
	flushes int
	// combined and written account the fold: records merged away, and
	// records that survived to be written (or, for the bypass path, kept
	// for the in-memory gather). Only touched by the coordinating
	// goroutine; read after Finish/FinishBypass.
	combined int64
	written  int64

	mu  sync.Mutex
	err error
}

func newBucketWriter[T any](capacity int, files []*partFile, plan streambuf.Plan, key func(T) uint32, threads int, fold func(*streambuf.Buffer[T]) int64) *bucketWriter[T] {
	w := &bucketWriter[T]{
		files:   files,
		plan:    plan,
		key:     key,
		threads: threads,
		fold:    fold,
		free:    make(chan *streambuf.Buffer[T], 3),
		queue:   make(chan *streambuf.Buffer[T], 1),
	}
	w.cur = streambuf.New[T](capacity)
	w.free <- streambuf.New[T](capacity)
	w.free <- streambuf.New[T](capacity)
	w.wg.Add(1)
	go w.writer()
	return w
}

func (w *bucketWriter[T]) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Err returns the first error encountered by the pipeline.
func (w *bucketWriter[T]) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// writer drains shuffled buffers, appending each bucket to its file.
func (w *bucketWriter[T]) writer() {
	defer w.wg.Done()
	for buf := range w.queue {
		for p := range w.files {
			var err error
			buf.Bucket(p, func(run []T) {
				if err == nil {
					if w.sink != nil {
						err = w.sink(p, run)
						return
					}
					if w.observe != nil {
						w.observe(p, run)
					}
					err = w.files[p].appendBytes(pod.AsBytes(run))
				}
			})
			if err != nil {
				w.setErr(err)
				break
			}
		}
		buf.Reset()
		w.free <- buf
	}
}

// Buf returns the current append target. Concurrent appenders may use it
// until the next Flush/Finish call from the coordinating goroutine.
func (w *bucketWriter[T]) Buf() *streambuf.Buffer[T] { return w.cur }

// Room returns the remaining capacity of the current buffer.
func (w *bucketWriter[T]) Room() int { return w.cur.Cap() - w.cur.Len() }

// Flush shuffles the current buffer and hands it to the writer goroutine,
// installing a fresh append target. Must be called from the coordinating
// goroutine only.
func (w *bucketWriter[T]) Flush() error {
	if err := w.Err(); err != nil {
		return err
	}
	if w.cur.Len() == 0 {
		return nil
	}
	w.flushes++
	scratch := <-w.free
	res := streambuf.Shuffle(w.cur, scratch, w.plan, w.threads, w.key)
	if w.fold != nil {
		w.combined += w.fold(res)
	}
	w.written += int64(res.Len())
	other := scratch
	if res == scratch {
		other = w.cur
	}
	other.Reset()
	w.free <- other
	w.queue <- res
	w.cur = <-w.free
	return w.Err()
}

// SyncBypass ends one scatter phase. If nothing was flushed to disk during
// it — all its updates fit in a single stream buffer — it shuffles the
// buffer in memory and returns it, letting the gather phase consume it
// directly (the §3.2 optimization); the caller hands the buffer back with
// Release once it is drained. Otherwise it is Sync and returns nil.
func (w *bucketWriter[T]) SyncBypass() (*streambuf.Buffer[T], error) {
	if w.flushes > 0 {
		return nil, w.Sync()
	}
	scratch := <-w.free
	res := streambuf.Shuffle(w.cur, scratch, w.plan, w.threads, w.key)
	if w.fold != nil {
		w.combined += w.fold(res)
	}
	w.written += int64(res.Len())
	if res == w.cur {
		w.cur = scratch
	}
	w.cur.Reset()
	return res, w.Err()
}

// Release returns the buffer SyncBypass lent out to the rotation.
func (w *bucketWriter[T]) Release(buf *streambuf.Buffer[T]) {
	buf.Reset()
	w.free <- buf
}

// Sync flushes the tail and waits for all writes to complete — the end of
// one scatter phase. The pipeline stays up for the next: while the caller
// holds the current buffer, the other two are both free exactly when the
// writer goroutine has nothing queued or in flight.
func (w *bucketWriter[T]) Sync() error {
	err := w.Flush()
	a, b := <-w.free, <-w.free
	w.free <- a
	w.free <- b
	if err != nil {
		return err
	}
	return w.Err()
}

// Stop ends the writer goroutine; buffers still queued are written first,
// the current one is dropped.
func (w *bucketWriter[T]) Stop() {
	close(w.queue)
	w.wg.Wait()
}

// Finish is Sync then Stop, for a pipeline that serves a single phase.
func (w *bucketWriter[T]) Finish() error {
	err := w.Sync()
	w.Stop()
	return err
}
