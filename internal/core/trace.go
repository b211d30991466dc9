package core

import "time"

// Tracer receives execution spans from an engine run: run → iteration →
// phase (scatter/shuffle/gather) → per-partition work. Both engine
// Configs carry an optional Tracer; nil (the default) disables tracing
// at zero cost — engines only measure and emit spans when one is set,
// and a Tracer never alters any work metric, only adds timing.
//
// Spans are complete intervals: name, start time, duration, plus a small
// bag of integer args (iteration number, partition index, record
// counts). track identifies the logical timeline the span belongs to —
// 0 is the coordinator (run/iteration/phase spans); per-worker spans use
// 1+worker so parallel partition work renders on separate rows in a
// trace viewer. Implementations must be safe for concurrent use: worker
// goroutines emit partition spans in parallel.
type Tracer interface {
	// Span records one completed interval on the given track.
	Span(track int, name string, start time.Time, d time.Duration, args map[string]int64)
}

// IterStats is one iteration's slice of the cumulative Stats: the same
// deterministic work counters, restricted to a single iteration. Engines
// populate Stats.Iters unconditionally (the bookkeeping is a handful of
// subtractions per iteration), so per-iteration profiles are available
// without a Tracer.
//
// The work-side counters (edges, updates, skips) of a run's Iters sum
// exactly to the cumulative Stats fields. The I/O-side counters
// (BytesRead, BytesReadLogical, BytesWritten, BytesChecksummed,
// IORetries) sum to at most the cumulative fields: pre-processing,
// vertex materialization and other out-of-loop I/O belong to the run,
// not to any iteration.
type IterStats struct {
	// Iter is the iteration number (0-based; resumes start past 0).
	Iter int
	// Time is the iteration's wall-clock duration.
	Time time.Duration
	// ScatterTime, ShuffleTime and GatherTime split Time by phase. On
	// the out-of-core engine the shuffle is folded into the scatter
	// pass (§3 of the paper), so ShuffleTime there is only what sealing
	// the update stream at the end of the scatter took.
	ScatterTime time.Duration
	// ShuffleTime is the in-memory shuffle share of the iteration.
	ShuffleTime time.Duration
	// GatherTime is the gather share of the iteration.
	GatherTime time.Duration

	// EdgesStreamed counts edge records read this iteration.
	EdgesStreamed int64
	// EdgesSkipped counts edge records elided by selective streaming.
	EdgesSkipped int64
	// PartitionsSkipped counts whole partitions elided this iteration.
	PartitionsSkipped int64
	// TilesSkipped counts edge tiles elided this iteration.
	TilesSkipped int64
	// UpdatesSent counts updates produced this iteration.
	UpdatesSent int64
	// UpdatesCombined counts updates merged away before gather.
	UpdatesCombined int64
	// CrossPartitionUpdates counts updates that crossed a partition.
	CrossPartitionUpdates int64
	// MirrorSyncUpdates counts master-mirror sync updates flushed.
	MirrorSyncUpdates int64
	// UpdateBytes is the post-combining update-stream volume.
	UpdateBytes int64

	// BytesRead is the physical device-read volume attributed to this
	// iteration (out-of-core engine only).
	BytesRead int64
	// BytesReadLogical is BytesRead at decoded (post-codec) size.
	BytesReadLogical int64
	// BytesWritten is the device-write volume (update files,
	// checkpoints) attributed to this iteration.
	BytesWritten int64
	// BytesChecksummed is the CRC-verified read volume this iteration.
	BytesChecksummed int64
	// IORetries counts device operations re-issued this iteration.
	IORetries int64
}

// IterMark is a snapshot of a Stats' cumulative counters at an iteration
// boundary, taken with MarkIter and consumed by PushIter.
type IterMark struct {
	at Stats
}

// MarkIter snapshots the cumulative counters at the start of an
// iteration. Pair with PushIter at the end of the iteration.
func (s *Stats) MarkIter() IterMark {
	return IterMark{at: *s}
}

// PushIter appends to s.Iters the delta of every per-iteration counter
// since the MarkIter snapshot m, labeled as iteration iter with
// wall-clock duration wall.
func (s *Stats) PushIter(iter int, m IterMark, wall time.Duration) {
	a := &m.at
	s.Iters = append(s.Iters, IterStats{
		Iter:                  iter,
		Time:                  wall,
		ScatterTime:           s.ScatterTime - a.ScatterTime,
		ShuffleTime:           s.ShuffleTime - a.ShuffleTime,
		GatherTime:            s.GatherTime - a.GatherTime,
		EdgesStreamed:         s.EdgesStreamed - a.EdgesStreamed,
		EdgesSkipped:          s.EdgesSkipped - a.EdgesSkipped,
		PartitionsSkipped:     s.PartitionsSkipped - a.PartitionsSkipped,
		TilesSkipped:          s.TilesSkipped - a.TilesSkipped,
		UpdatesSent:           s.UpdatesSent - a.UpdatesSent,
		UpdatesCombined:       s.UpdatesCombined - a.UpdatesCombined,
		CrossPartitionUpdates: s.CrossPartitionUpdates - a.CrossPartitionUpdates,
		MirrorSyncUpdates:     s.MirrorSyncUpdates - a.MirrorSyncUpdates,
		UpdateBytes:           s.UpdateBytes - a.UpdateBytes,
		BytesRead:             s.BytesRead - a.BytesRead,
		BytesReadLogical:      s.BytesReadLogical - a.BytesReadLogical,
		BytesWritten:          s.BytesWritten - a.BytesWritten,
		BytesChecksummed:      s.BytesChecksummed - a.BytesChecksummed,
		IORetries:             s.IORetries - a.IORetries,
	})
}

// GraftPass completes the stats of a pass's only job with what the pass
// accounted on its behalf: the time before the first iteration and inside
// the shared scatter, the iteration count (a resumed pass restores
// iterations the job never executed), the edge-file layout, and the device
// I/O the pass tallied — for the run as a whole and per iteration,
// index-aligned. RunJob on either engine and the out-of-core solo Run use
// it so the job's profile carries the full picture. The checksummed volume
// adds to what the job verified itself. The other I/O fields replace the
// job's — unless ownIO says the job measured the device itself (the
// out-of-core solo run, whose update and vertex files the pass never sees),
// which leaves only BytesReadLogical to derive: the job's reads less what
// the pass saw the tile codec save.
func GraftPass(job, pass *Stats, ownIO bool) {
	job.PreprocessTime = pass.PreprocessTime
	job.ScatterTime = pass.ScatterTime
	job.Iterations = pass.Iterations
	job.ResumedIterations = pass.ResumedIterations
	job.TilesCompressed = pass.TilesCompressed
	job.CompressedRatio = pass.CompressedRatio
	job.ChecksumFailures = pass.ChecksumFailures
	job.BytesChecksummed += pass.BytesChecksummed
	if !ownIO {
		job.BytesRead, job.BytesWritten, job.IORetries = pass.BytesRead, pass.BytesWritten, pass.IORetries
	}
	job.BytesReadLogical = job.BytesRead - (pass.BytesRead - pass.BytesReadLogical)
	for i := range min(len(job.Iters), len(pass.Iters)) {
		j, p := &job.Iters[i], &pass.Iters[i]
		j.Time, j.ScatterTime = p.Time, p.ScatterTime
		j.BytesChecksummed += p.BytesChecksummed
		if !ownIO {
			j.BytesRead, j.BytesWritten, j.IORetries = p.BytesRead, p.BytesWritten, p.IORetries
		}
		j.BytesReadLogical = j.BytesRead - (p.BytesRead - p.BytesReadLogical)
	}
}
