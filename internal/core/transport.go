package core

// transport.go is the update seam between the scatter and gather phases.
// The update stream is the only cross-partition traffic in the engine
// (paper §3: edges and vertices are partition-local; only updates move).
// UpdateTransport abstracts it: the engines send per-partition update
// batches during scatter and drain per-partition streams at gather,
// without knowing whether the records stayed in memory or went through
// partition files on disk.
//
// There is one implementation, ShuffleTransport, in three shapes that
// differ only in window size. Without a spill store its one window holds a
// whole iteration (NewShuffleTransport, every core.jobRun's). Over a spill
// store (NewSpillTransport, the solo out-of-core run's update files) a full
// window is shuffled, folded and spilled, mid-iteration or on every batch,
// and an iteration that never fills one stays in memory.
// internal/transport/conformance is the contract suite all three shapes
// pass.

import (
	"sync/atomic"

	"repro/internal/pod"
	"repro/internal/streambuf"
)

// IterFlow summarizes one iteration's traffic through a transport, returned
// by Seal. The invariant every implementation must satisfy is
// Appended - Combined == Delivered: records accepted minus records merged
// away by the transport-side combiner fold equals records available to
// gather.
type IterFlow struct {
	// Appended is the number of update records the transport accepted via
	// Send this iteration.
	Appended int64
	// Combined is the number of records the transport's combiner fold
	// merged away after routing (zero when the transport has no folder).
	Combined int64
	// Delivered is the number of records the gather phase will see across
	// all partitions: Appended - Combined.
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
//	Send* (concurrent) → [Room/Flush]* → Seal → Pending*/Drain* → EndIteration
//
// Send is safe for concurrent use; Room, Flush, Seal and EndIteration are
// coordinator-only. Drain is safe for concurrent use across distinct
// partitions once Seal has returned. Close releases resources and is
// idempotent.
type UpdateTransport[M any] interface {
	// Send routes one batch of updates produced while scattering partition
	// src. The batch may mix destination partitions — routing is the
	// transport's job. It returns false when the batch does not fit the
	// transport's capacity (the current window's room). The batch is
	// copied or consumed before Send returns; callers may reuse it.
	Send(src int, batch []Update[M]) bool
	// Room returns how many more records the current send window accepts,
	// for coordinators that chunk their scatter to bounded buffers.
	Room() int
	// Flush closes the current send window, making Room available again.
	// A no-op for transports without a windowed send side.
	Flush() error
	// Seal ends the send side of the iteration: all updates are routed to
	// their destination partitions, the combiner fold (if any) runs, and
	// the resulting per-partition streams become drainable. No Send may be
	// in flight when Seal is called.
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
	// Cap returns the record capacity of the send side (one window), for
	// overflow diagnostics.
	Cap() int
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
// stream buffer, Seal runs the multi-stage counting shuffle (paper §4.2) and
// the per-partition combiner fold over it, and Drain walks the resulting
// buckets. Without a spill store there is one window per iteration: Flush is
// a no-op and Send refuses a batch past the window. Over a store the window
// is bounded: Flush shuffles, folds and spills a full window through an
// async write pipeline while the next one fills, Seal waits for the writes,
// and Drain reads a spilled iteration back from the store. An iteration that
// never flushed stays in memory either way (the §3.2 bypass).
type ShuffleTransport[M any] struct {
	w       *streambuf.Writer[Update[M]]
	store   SpillStore
	res     *streambuf.Buffer[Update[M]] // the sealed window of an iteration that stayed in memory
	key     func(Update[M]) uint32
	recSize int

	batches, bytes, cross atomic.Int64
}

// NewShuffleTransport builds a transport that never spills: capacity
// records per iteration, routed by key through plan with the given shuffle
// parallelism, folded by folder when non-nil.
func NewShuffleTransport[M any](capacity int, plan streambuf.Plan, threads int, key func(Update[M]) uint32, folder *streambuf.Folder[Update[M]]) *ShuffleTransport[M] {
	return NewSpillTransport(capacity, plan, threads, key, folder, nil)
}

// NewSpillTransport is NewShuffleTransport with windows of window records
// that spill to store; a nil store never spills.
func NewSpillTransport[M any](window int, plan streambuf.Plan, threads int, key func(Update[M]) uint32, folder *streambuf.Folder[Update[M]], store SpillStore) *ShuffleTransport[M] {
	var fold func(*streambuf.Buffer[Update[M]]) int64
	if folder != nil {
		fold = folder.Fold
	}
	var sink func(int, []Update[M]) error
	if store != nil {
		sink = func(p int, run []Update[M]) error { return store.Append(p, pod.AsBytes(run)) }
	}
	return &ShuffleTransport[M]{
		w:       streambuf.NewWriter(window, plan, threads, key, fold, sink),
		store:   store,
		key:     key,
		recSize: pod.Size[Update[M]](),
	}
}

// Send implements UpdateTransport. It returns false when the batch does
// not fit the current window's room.
func (t *ShuffleTransport[M]) Send(src int, batch []Update[M]) bool {
	if len(batch) == 0 {
		return true
	}
	if !t.w.Buf().Append(batch) {
		return false
	}
	t.batches.Add(1)
	t.bytes.Add(int64(len(batch)) * int64(t.recSize))
	t.cross.Add(crossOf(batch, src, t.key))
	return true
}

// Room implements UpdateTransport: the current window's remaining capacity.
func (t *ShuffleTransport[M]) Room() int { return t.w.Room() }

// Flush implements UpdateTransport: over a store it spills the current
// window; without one it is a no-op.
func (t *ShuffleTransport[M]) Flush() error { return t.w.Flush() }

// Seal implements UpdateTransport: the last window is shuffled and folded,
// kept in memory when it is the iteration's only one and spilled after the
// others otherwise.
func (t *ShuffleTransport[M]) Seal() (IterFlow, error) {
	res, tally, err := t.w.Seal()
	t.res = res
	return IterFlow{Appended: tally.Combined + tally.Kept, Combined: tally.Combined, Delivered: tally.Kept}, err
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
// writer at its next Flush or Seal; Drain emptied a spilled iteration's
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

// Cap implements UpdateTransport: the window capacity.
func (t *ShuffleTransport[M]) Cap() int { return t.w.Buf().Cap() }

// Counters implements UpdateTransport.
func (t *ShuffleTransport[M]) Counters() TransportCounters {
	return TransportCounters{Batches: t.batches.Load(), Bytes: t.bytes.Load(), Cross: t.cross.Load()}
}
