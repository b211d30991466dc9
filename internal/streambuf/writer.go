package streambuf

import (
	"fmt"
	"sync"
)

// Writer is the windowed shuffle→sink pipeline of the merged scatter/shuffle
// phase (paper Figure 6): Append fills the current stream buffer; when it is
// full and the next record needs room, Append shuffles it, and a
// dedicated goroutine hands every bucket run to the sink, overlapped with
// the caller filling the next buffer (§3.3). Three buffers rotate through
// the roles current / in flight / shuffle scratch, which with the two edge
// input buffers gives the five stream buffers of §3.4.
//
// The third buffer and the goroutine are made by the first flush. A phase
// that never flushes — the updates of an iteration that fit one buffer, or
// any phase of a Writer without a sink — runs on two buffers and no
// goroutine, and Seal keeps its shuffled window in memory instead of sinking
// it (the single-buffer bypass of §3.2).
type Writer[T any] struct {
	plan    Plan
	threads int
	key     func(T) uint32
	// sink receives every bucket run of every flushed window, on the writer
	// goroutine, in exactly the order the runs are appended; nil means the
	// window is the whole phase and never leaves memory.
	sink func(bucket int, run []T) error

	cur     *Buffer[T]
	kept    *Buffer[T]      // the window Seal kept, recycled by the next flush or Seal
	free    chan *Buffer[T] // buffers neither current, kept nor queued
	queue   chan *Buffer[T] // shuffled windows for the goroutine; nil until the first flush
	wg      sync.WaitGroup
	flushed bool  // a window of the current phase went to the sink
	moved   int64 // records the current phase shuffled, to the sink or kept

	mu  sync.Mutex
	err error
}

// NewWriter returns a pipeline of capacity-record windows (at least one
// record), shuffled into plan.K buckets by key with the given parallelism
// and written by sink, which may be nil.
func NewWriter[T any](capacity int, plan Plan, threads int, key func(T) uint32, sink func(bucket int, run []T) error) *Writer[T] {
	capacity = max(capacity, 1)
	w := &Writer[T]{
		plan:    plan,
		threads: threads,
		key:     key,
		sink:    sink,
		cur:     New[T](capacity),
		free:    make(chan *Buffer[T], 3),
	}
	w.free <- New[T](capacity)
	return w
}

// Err returns the first error the sink returned.
func (w *Writer[T]) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Room returns the remaining capacity of the current window.
func (w *Writer[T]) Room() int { return w.cur.Cap() - w.cur.Len() }

// Append adds batch to the phase. With a sink it fills the current window
// exactly and flushes it only when the next record needs room, so a phase
// that exactly fills one window stays in memory; it is then for one
// goroutine at a time, and once the sink has failed it returns the sink's
// error and appends nothing. Without a sink the window is the whole phase:
// concurrent appenders share it, and a batch that does not fit is refused
// with an error that names the capacity.
func (w *Writer[T]) Append(batch []T) error {
	if w.sink == nil {
		if !w.cur.Append(batch) {
			return fmt.Errorf("streambuf: a batch of %d records overflows the window (capacity %d records)", len(batch), w.cur.Cap())
		}
		return nil
	}
	if err := w.Err(); err != nil {
		return err
	}
	for len(batch) > 0 {
		room := w.Room()
		if room == 0 {
			if err := w.flush(); err != nil {
				return err
			}
			continue
		}
		n := min(room, len(batch))
		w.cur.Append(batch[:n])
		batch = batch[n:]
	}
	return nil
}

// flush shuffles the current window, hands it to the writer
// goroutine and installs an empty one. Once the sink has failed, flush
// returns its error and queues nothing more.
func (w *Writer[T]) flush() error {
	if w.sink == nil {
		return nil
	}
	if err := w.Err(); err != nil {
		return err
	}
	if w.cur.Len() == 0 {
		return nil
	}
	if w.queue == nil {
		w.free <- New[T](w.cur.Cap())
		w.queue = make(chan *Buffer[T], 1)
		w.wg.Add(1)
		go w.run()
	}
	w.flushed = true
	w.queue <- w.shuffle()
	return w.Err()
}

// Seal ends one phase and returns the records it moved. A phase that flushed
// has its tail flushed and every write waited for, and Seal returns a nil
// window. A phase that never did is shuffled in memory: Seal returns the
// bucketed window, valid until the next flush or Seal.
func (w *Writer[T]) Seal() (*Buffer[T], int64, error) {
	var err error
	if w.flushed {
		err = w.flush()
		// Idle exactly when the two buffers other than the current are free.
		a, b := <-w.free, <-w.free
		w.free <- a
		w.free <- b
	} else {
		w.kept = w.shuffle()
	}
	moved := w.moved
	w.moved, w.flushed = 0, false
	if err == nil {
		err = w.Err()
	}
	return w.kept, moved, err
}

// Finish flushes the tail, waits for every write and stops the goroutine —
// the end of a Writer that serves a single phase.
func (w *Writer[T]) Finish() error {
	err := w.flush()
	w.Stop()
	if err != nil {
		return err
	}
	return w.Err()
}

// Stop ends the writer goroutine, if one was started, once it has dealt with
// every queued window; the current window is dropped. Idempotent.
func (w *Writer[T]) Stop() {
	if w.queue != nil {
		close(w.queue)
		w.wg.Wait()
		w.queue = nil
	}
}

// shuffle shuffles the current window through a free scratch
// buffer and returns the bucketed result. The buffer it leaves empty becomes
// the current window.
func (w *Writer[T]) shuffle() *Buffer[T] {
	if w.kept != nil {
		w.kept.Reset()
		w.free <- w.kept
		w.kept = nil
	}
	scratch := <-w.free
	res := Shuffle(w.cur, scratch, w.plan, w.threads, w.key)
	w.moved += int64(res.Len())
	if res == w.cur {
		w.cur = scratch
	}
	return res
}

// run sinks the queued windows and recycles them. After the sink's first
// failure the windows still queued are recycled unwritten.
func (w *Writer[T]) run() {
	defer w.wg.Done()
	for buf := range w.queue {
		if w.Err() == nil {
			if err := w.write(buf); err != nil {
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
			}
		}
		buf.Reset()
		w.free <- buf
	}
}

// write hands buf's runs to the sink bucket by bucket, stopping at the first
// failure.
func (w *Writer[T]) write(buf *Buffer[T]) error {
	var err error
	for p := 0; p < w.plan.K && err == nil; p++ {
		buf.Bucket(p, func(run []T) {
			if err == nil {
				err = w.sink(p, run)
			}
		})
	}
	return err
}
