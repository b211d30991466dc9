package core

// transport.go is the update seam between the scatter and gather phases.
// The update stream is the only cross-partition traffic in the engine
// (paper §3: edges and vertices are partition-local; only updates move).
// UpdateTransport abstracts it: the engines send per-partition update
// batches during scatter and drain per-partition streams at gather,
// without knowing whether the records moved through an in-memory shuffle
// or partition files on disk.
//
// There are two implementations: the builtin streambuf shuffle here
// (NewShuffleTransport, every core.jobRun's) and the out-of-core engine's
// update-file writeback (internal/diskengine's fileTransport, the solo
// spillable run's). internal/transport/conformance is their shared contract
// suite.

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

// CounterSet is the concurrency-safe accounting every UpdateTransport
// implementation embeds (including the out-of-core file transport in
// internal/diskengine); its methods back Counters.
type CounterSet struct {
	batches atomic.Int64
	bytes   atomic.Int64
	cross   atomic.Int64
}

// Count records one accepted non-empty batch of n records, cross of which
// were addressed outside the sending partition, each recSize bytes.
func (c *CounterSet) Count(n, cross int64, recSize int) {
	c.batches.Add(1)
	c.bytes.Add(n * int64(recSize))
	c.cross.Add(cross)
}

// Snapshot returns the counters as a TransportCounters value.
func (c *CounterSet) Snapshot() TransportCounters {
	return TransportCounters{
		Batches: c.batches.Load(),
		Bytes:   c.bytes.Load(),
		Cross:   c.cross.Load(),
	}
}

// CrossOf counts the records of batch whose destination partition (per
// key) differs from src.
func CrossOf[M any](batch []Update[M], src int, key func(Update[M]) uint32) int64 {
	var cross int64
	for i := range batch {
		if key(batch[i]) != uint32(src) {
			cross++
		}
	}
	return cross
}

// ShuffleTransport is the builtin in-memory transport: sends append into a
// fixed-capacity stream buffer, Seal runs the multi-stage counting shuffle
// (paper §4.2) plus the per-partition combiner fold, and Drain walks the
// resulting buckets. This is the extracted form of the path the in-memory
// engine and the shared-pass job runner always used.
type ShuffleTransport[M any] struct {
	a, b    *streambuf.Buffer[Update[M]]
	res     *streambuf.Buffer[Update[M]]
	plan    streambuf.Plan
	threads int
	key     func(Update[M]) uint32
	folder  *streambuf.Folder[Update[M]]
	recSize int
	CounterSet
}

// NewShuffleTransport builds the builtin shuffle transport: capacity
// records per iteration, routed by key through plan with the given shuffle
// parallelism, folded by folder when non-nil.
func NewShuffleTransport[M any](capacity int, plan streambuf.Plan, threads int, key func(Update[M]) uint32, folder *streambuf.Folder[Update[M]]) *ShuffleTransport[M] {
	return &ShuffleTransport[M]{
		a:       streambuf.New[Update[M]](capacity),
		b:       streambuf.New[Update[M]](capacity),
		plan:    plan,
		threads: threads,
		key:     key,
		folder:  folder,
		recSize: pod.Size[Update[M]](),
	}
}

// Send implements UpdateTransport. It returns false when the batch does
// not fit the remaining buffer capacity.
func (t *ShuffleTransport[M]) Send(src int, batch []Update[M]) bool {
	if len(batch) == 0 {
		return true
	}
	if !t.a.Append(batch) {
		return false
	}
	t.Count(int64(len(batch)), CrossOf(batch, src, t.key), t.recSize)
	return true
}

// Room implements UpdateTransport: the remaining buffer capacity.
func (t *ShuffleTransport[M]) Room() int { return t.a.Cap() - t.a.Len() }

// Flush implements UpdateTransport as a no-op: the shuffle has a single
// per-iteration window.
func (t *ShuffleTransport[M]) Flush() error { return nil }

// Seal implements UpdateTransport: one shuffle pass plus one fold.
func (t *ShuffleTransport[M]) Seal() (IterFlow, error) {
	res := streambuf.Shuffle(t.a, t.b, t.plan, t.threads, t.key)
	appended := int64(res.Len())
	var combined int64
	if t.folder != nil {
		combined = t.folder.Fold(res)
	}
	t.res = res
	return IterFlow{Appended: appended, Combined: combined, Delivered: appended - combined}, nil
}

// Pending implements UpdateTransport.
func (t *ShuffleTransport[M]) Pending(p int) int64 {
	if t.res == nil {
		return 0
	}
	return int64(t.res.BucketLen(p))
}

// Drain implements UpdateTransport over the sealed buffer's bucket runs.
func (t *ShuffleTransport[M]) Drain(p int, fn func([]Update[M]) error) error {
	if t.res == nil {
		return nil
	}
	var err error
	t.res.Bucket(p, func(run []Update[M]) {
		if err == nil {
			err = fn(run)
		}
	})
	return err
}

// EndIteration implements UpdateTransport: both ping-pong buffers reset.
func (t *ShuffleTransport[M]) EndIteration() error {
	t.res = nil
	t.a.Reset()
	t.b.Reset()
	return nil
}

// Close implements UpdateTransport. The buffers are garbage-collected; no
// other resources are held.
func (t *ShuffleTransport[M]) Close() error {
	t.res = nil
	return nil
}

// Cap implements UpdateTransport.
func (t *ShuffleTransport[M]) Cap() int { return t.a.Cap() }

// Counters implements UpdateTransport.
func (t *ShuffleTransport[M]) Counters() TransportCounters { return t.Snapshot() }
