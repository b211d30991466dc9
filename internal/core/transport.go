package core

// transport.go is the update seam between the scatter and gather phases.
// The update stream is the only cross-partition traffic in the engine
// (paper §3: edges and vertices are partition-local; only updates move).
// UpdateTransport abstracts it: the engines send per-partition update
// batches during scatter and drain per-partition streams at gather,
// without knowing whether the records stayed in memory or went through
// partition files on disk.
//
// There is one implementation, ShuffleTransport. Without a spill store its
// one window holds a whole iteration (NewShuffleTransport, the in-memory
// runs'). Over a spill store (NewSpillTransport, the update files of a run
// lent an out-of-core engine's stores) Send fills a window and, when the
// next record needs room, shuffles and spills it itself; an iteration that
// never outgrows one window stays in memory. The transport merges nothing:
// updates to one destination are combined once, at scatter, in each task's
// CombineBuffer, and gather sees every record sent.
// internal/transport/conformance is the contract suite both pass, over a
// store in three window sizes.

import (
	"sync"
	"sync/atomic"

	"repro/internal/pod"
	"repro/internal/streambuf"
)

// IterFlow summarizes one iteration's traffic through a transport, returned
// by Seal. The transport merges nothing, so the two are equal.
type IterFlow struct {
	// Appended is the number of update records the transport accepted via
	// Send this iteration.
	Appended int64
	// Delivered is the number of records the gather phase will see across
	// all partitions.
	Delivered int64
}

// TransportCounters is the transport's own cumulative traffic accounting,
// read once per run into the Stats transport fields. All counts are
// deterministic for a fixed workload: batches are counted per non-empty
// Send, bytes as records × record size, and cross as records whose
// destination partition differs from the sending partition.
type TransportCounters struct {
	// Batches is the number of non-empty Send calls accepted.
	Batches int64
	// Bytes is the payload volume sent: records × sizeof(update record).
	Bytes int64
	// Cross is the number of sent records whose destination partition
	// differed from the sending partition. Counted after send-side
	// combining — the records that actually moved — unlike
	// Stats.CrossPartitionUpdates, which counts before combining.
	Cross int64
}

// UpdateTransport is the update-exchange interface between scatter and
// gather. One iteration's lifecycle is:
//
//	Send* → Seal → Pending*/Drain* → EndIteration
//
// Without a spill store Send is safe for concurrent use. Over a store it is
// called from one goroutine at a time: a run lent stores has one sink, fed
// by one goroutine at a time, and each of the engine's concurrent feeders
// drives a different run. Seal and EndIteration are coordinator-only. Drain is safe for
// concurrent use across distinct partitions once Seal has returned. Close
// releases resources and is idempotent.
type UpdateTransport[M any] interface {
	// Send routes one batch of updates produced while scattering partition
	// src. The batch may mix destination partitions — routing is the
	// transport's job — and may be of any size: a transport over a store
	// spills every window the batch fills. It returns false when the batch
	// is refused (it overflows a transport that has no store) or a spill
	// failed; Err says which. The batch is copied or consumed before Send
	// returns; callers may reuse it.
	Send(src int, batch []Update[M]) bool
	// Err returns why the last Send returned false: a refusal that names
	// the capacity, or the failed spill's own error.
	Err() error
	// Seal ends the send side of the iteration: all updates are routed to
	// their destination partitions and the per-partition streams become
	// drainable. No Send may be in flight when Seal is called.
	Seal() (IterFlow, error)
	// Pending returns the number of records sealed for partition p, so a
	// selective gather can skip empty partitions without draining them.
	Pending(p int) int64
	// Drain streams partition p's sealed records through fn in delivery
	// order. A non-nil error from fn aborts the drain and is returned.
	// Chunks are only valid during the callback.
	Drain(p int, fn func([]Update[M]) error) error
	// EndIteration releases the iteration's sealed state, readying the
	// transport for the next iteration's sends.
	EndIteration() error
	// Close releases all transport resources. Idempotent.
	Close() error
	// Counters returns the cumulative traffic accounting.
	Counters() TransportCounters
}

// crossOf counts the records of batch whose destination partition (per
// key) differs from src.
func crossOf[M any](batch []Update[M], src int, key func(Update[M]) uint32) int64 {
	var cross int64
	for i := range batch {
		if key(batch[i]) != uint32(src) {
			cross++
		}
	}
	return cross
}

// SpillStore is where a ShuffleTransport spills the windows an iteration
// outgrows: one append-only record stream per partition (the update files
// of §3.2). It is byte-level, so an engine can lend one to a type-erased
// run; the transport reinterprets its records. Append runs on the
// transport's writer goroutine, in window order; Pending and Drain run after
// Seal, with UpdateTransport's concurrency.
type SpillStore interface {
	// Append appends one shuffled run of partition p's records.
	Append(p int, run []byte) error
	// Pending returns the number of bytes stored for partition p.
	Pending(p int) int64
	// Drain streams partition p's bytes through fn in append order, in
	// runs of whole records, checks them against what was appended and
	// empties the stream.
	Drain(p int, fn func(run []byte) error) error
}

// ShuffleTransport is the update transport: sends append into a window
// stream buffer, Seal runs the multi-stage counting shuffle (paper §4.2)
// over it, and Drain walks the resulting buckets. Without a spill store
// there is one window per iteration and Send refuses a batch past it. Over a store the window is bounded: Send spills
// each window it fills through an async write pipeline while the next one
// fills (streambuf.Writer.Append), Seal waits for the writes, and Drain
// reads a spilled iteration back from the store. An iteration that never
// outgrew its window stays in memory either way (the §3.2 bypass).
type ShuffleTransport[M any] struct {
	w       *streambuf.Writer[Update[M]]
	store   SpillStore
	res     *streambuf.Buffer[Update[M]] // the sealed window of an iteration that stayed in memory
	key     func(Update[M]) uint32
	recSize int

	batches, bytes, cross atomic.Int64

	mu  sync.Mutex
	err error // why the last Send returned false
}

// UpdateFolder is the type of NewShuffleTransport's last parameter, which
// the transport ignores: it merges nothing (see IterFlow). The type,
// NewUpdateFolder and the parameter remain only because the benchmark
// module's transport measurement still passes one; they go when that module
// stops passing it.
type UpdateFolder[M any] struct{}

// NewUpdateFolder returns nil; see UpdateFolder.
func NewUpdateFolder[M any](Split, int, func(a, b M) M) *UpdateFolder[M] { return nil }

// NewShuffleTransport builds a transport that never spills: capacity
// records per iteration, routed by key through plan with the given shuffle
// parallelism. The last parameter is ignored; see UpdateFolder.
func NewShuffleTransport[M any](capacity int, plan streambuf.Plan, threads int, key func(Update[M]) uint32, _ *UpdateFolder[M]) *ShuffleTransport[M] {
	return NewSpillTransport(capacity, plan, threads, key, nil)
}

// NewSpillTransport is NewShuffleTransport with windows of window records
// that spill to store; a nil store never spills.
func NewSpillTransport[M any](window int, plan streambuf.Plan, threads int, key func(Update[M]) uint32, store SpillStore) *ShuffleTransport[M] {
	var sink func(int, []Update[M]) error
	if store != nil {
		sink = func(p int, run []Update[M]) error { return store.Append(p, pod.AsBytes(run)) }
	}
	return &ShuffleTransport[M]{
		w:       streambuf.NewWriter(window, plan, threads, key, sink),
		store:   store,
		key:     key,
		recSize: pod.Size[Update[M]](),
	}
}

// Send implements UpdateTransport through the writer's Append.
func (t *ShuffleTransport[M]) Send(src int, batch []Update[M]) bool {
	if len(batch) == 0 {
		return true
	}
	if err := t.w.Append(batch); err != nil {
		t.mu.Lock()
		t.err = err
		t.mu.Unlock()
		return false
	}
	t.batches.Add(1)
	t.bytes.Add(int64(len(batch)) * int64(t.recSize))
	t.cross.Add(crossOf(batch, src, t.key))
	return true
}

// Err implements UpdateTransport.
func (t *ShuffleTransport[M]) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Room returns the current window's remaining capacity. No engine needs it,
// since Send spills a full window itself; it stays for perf's
// measureTransport, which reports it when Send refuses a batch.
func (t *ShuffleTransport[M]) Room() int { return t.w.Room() }

// Seal implements UpdateTransport: the last window is shuffled, kept in
// memory when it is the iteration's only one and spilled after the others
// otherwise.
func (t *ShuffleTransport[M]) Seal() (IterFlow, error) {
	res, moved, err := t.w.Seal()
	t.res = res
	return IterFlow{Appended: moved, Delivered: moved}, err
}

// Pending implements UpdateTransport.
func (t *ShuffleTransport[M]) Pending(p int) int64 {
	switch {
	case t.res != nil:
		return int64(t.res.BucketLen(p))
	case t.store != nil:
		return t.store.Pending(p) / int64(t.recSize)
	}
	return 0
}

// Drain implements UpdateTransport over the kept window's bucket runs or
// the store's stream.
func (t *ShuffleTransport[M]) Drain(p int, fn func([]Update[M]) error) error {
	switch {
	case t.res != nil:
		var err error
		t.res.Bucket(p, func(run []Update[M]) {
			if err == nil {
				err = fn(run)
			}
		})
		return err
	case t.store != nil:
		return t.store.Drain(p, func(run []byte) error { return fn(pod.FromBytes[Update[M]](run)) })
	}
	return nil
}

// EndIteration implements UpdateTransport. The kept window goes back to the
// writer at its next flush or Seal; Drain emptied a spilled iteration's
// streams.
func (t *ShuffleTransport[M]) EndIteration() error {
	t.res = nil
	return nil
}

// Close implements UpdateTransport: it stops the write pipeline, wherever
// an error path may have abandoned the iteration. The store's files belong
// to its owner.
func (t *ShuffleTransport[M]) Close() error {
	t.w.Stop()
	t.res = nil
	return nil
}

// Counters implements UpdateTransport.
func (t *ShuffleTransport[M]) Counters() TransportCounters {
	return TransportCounters{Batches: t.batches.Load(), Bytes: t.bytes.Load(), Cross: t.cross.Load()}
}
