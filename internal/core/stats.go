package core

import (
	"fmt"
	"reflect"
	"slices"
	"time"
)

// Stats records the execution profile of one run. It backs the paper's
// Figure 12b (iterations, runtime-to-streaming ratio, wasted edges),
// Figure 20/22 (pre-processing split) and Figure 21 (memory-reference
// proxy).
type Stats struct {
	Algorithm   string
	Engine      string // "memory", "ssd", "disk", ...
	Partitioner string // "range", "2ps", ...
	Iterations  int
	Partitions  int
	Threads     int

	// Streaming volume.
	EdgesStreamed int64 // edge records read across all scatter phases
	UpdatesSent   int64 // updates produced across all scatter phases
	WastedEdges   int64 // edges streamed that produced no update
	// CrossPartitionUpdates counts updates whose destination lies outside
	// the partition that produced them — the shuffle traffic a
	// locality-aware partitioner exists to reduce. Counted before any
	// combining, so it is comparable across combiner on/off runs.
	CrossPartitionUpdates int64
	// UpdatesCombined counts update records merged away by the program's
	// Combiner before gather, all of them at scatter time, in each scatter
	// task's combining buffer.
	UpdatesCombined int64

	// Selective streaming (frontier-aware scheduling, Config.Selective in
	// either engine, programs implementing FrontierProgram). EdgesSkipped
	// counts edge records never streamed because no source in their
	// partition or tile was active; PartitionsSkipped and TilesSkipped
	// record the granularity of those skips (a skipped partition's tiles
	// are not separately counted). On the out-of-core engine a skipped
	// partition's edge file — or a skipped tile's byte range — is never
	// read, so BytesRead drops correspondingly. All three are deterministic
	// work measures, gateable by cmd/benchgate independent of wall time.
	EdgesSkipped      int64
	PartitionsSkipped int64
	TilesSkipped      int64

	// Shared-pass execution (RunMany in either engine). CoJobs is the
	// number of jobs that shared this pass's edge stream (1 for a solo
	// run). On pass-level stats, EdgesStreamed counts each edge record
	// streamed once however many jobs consumed it, and EdgesShared is the
	// edge-record reads the sharing avoided versus independent runs:
	// the sum of per-job EdgesStreamed minus the pass's EdgesStreamed.
	// Both are deterministic work measures, gateable by cmd/benchgate
	// (see the figshare experiment).
	CoJobs      int
	EdgesShared int64

	// Time split.
	TotalTime time.Duration
	// PreprocessTime is what the run spent before its first iteration:
	// the initial partitioning of the input edge list (partitioner plus
	// pre-processing shuffle) and setting up vertex state and transports.
	// A pass over an already prepared dataset pays, and reports, only
	// the set-up part.
	PreprocessTime time.Duration
	ScatterTime    time.Duration
	ShuffleTime    time.Duration
	GatherTime     time.Duration

	// Iters is the per-iteration profile: one IterStats entry per
	// executed iteration, in execution order (a checkpoint resume
	// restores no entries for the skipped iterations, so
	// len(Iters) == Iterations - ResumedIterations). See IterStats for
	// how the entries sum to the cumulative fields.
	Iters []IterStats

	// Data volume in bytes, for computing the streaming-time lower bound.
	BytesStreamed int64 // records moved through stream buffers
	// BytesRead and BytesWritten are the engine's own device traffic (out
	// of core only), counted where it is moved: the edge files (their
	// shuffle too, when the call prepared them), the checkpoints and the
	// runs' update and vertex files. Reading the caller's EdgeSource is the
	// caller's.
	BytesRead    int64
	BytesWritten int64
	// BytesReadLogical is BytesRead with edge-file reads counted at their
	// decoded size: with compressed edge tiles (Config.CompressTiles)
	// the device moves fewer physical bytes than the scatter consumes, and
	// the gap between the two is exactly what the codec saved. Equal to
	// BytesRead when tiles are stored raw.
	BytesReadLogical int64
	// TilesCompressed counts edge tiles stored block-coded (as opposed
	// to the codec's raw fallback) across the partitioned edge files, and
	// CompressedRatio is the physical/logical byte ratio of that on-disk
	// layout (0 when compression is off; lower is better). Both describe
	// the layout as written, so they are deterministic and gateable.
	TilesCompressed int64
	CompressedRatio float64
	// UpdateBytes is the post-combining volume of the update stream: the
	// bytes of update records the gather phase streams (in-memory engine)
	// or that are appended to the update files / bypass buffer
	// (out-of-core engine). With no Combiner this equals
	// UpdatesSent × sizeof(update); the figcombine experiment reports how
	// far below that a Combiner pushes it.
	UpdateBytes int64

	// Fault tolerance (retry layer, checksummed artifacts, checkpoints).
	// IORetries counts device operations the storage retry layer
	// re-issued after a transient failure during this run, on the devices
	// the run used — a concurrent run's on a shared device included.
	// BytesChecksummed
	// is the volume of on-disk data CRC-verified on the read path (edge
	// tiles, update streams, spilled vertex windows) — a deterministic
	// work measure the figchecksum experiment gates. ChecksumFailures
	// counts verifications that failed; a failure always surfaces as
	// storage.ErrCorrupted (or a transparent rebuild at the dataset
	// layer), never as a result, so any run that returns results has
	// consumed only verified bytes. ResumedIterations is the number of
	// leading iterations a checkpoint resume skipped: iterations
	// [0, ResumedIterations) were restored from the snapshot, and
	// Iterations - ResumedIterations were actually executed.
	IORetries         int64
	BytesChecksummed  int64
	ChecksumFailures  int64
	ResumedIterations int

	// RandomRefs counts random accesses to vertex state (one per
	// scattered edge + one per gathered update); SequentialRefs counts
	// records touched sequentially. Together they are the Figure 21
	// memory-reference proxy.
	RandomRefs     int64
	SequentialRefs int64

	// Update-transport traffic, reported by the run's UpdateTransport
	// itself (see core/transport.go) rather than reconstructed by the
	// engines. TransportBatches counts non-empty Send calls the transport
	// accepted; TransportBytes is their record payload volume
	// (records × sizeof(update)); TransportCross counts sent records whose
	// destination partition differed from the scattering partition —
	// measured after send-side combining (the records that actually
	// moved), unlike CrossPartitionUpdates, which counts before combining.
	// Send-side combining is scoped to one scatter task, so all three are
	// deterministic work measures for a fixed workload.
	TransportBatches int64
	TransportBytes   int64
	TransportCross   int64
}

// StatClass says what a Stats field measures, and so when two runs of one
// workload must agree on it.
type StatClass uint8

const (
	// StatWork is deterministic work: what the program and the layout did —
	// iterations, edges streamed, skipped and shared, updates produced and
	// where they were addressed, what each scatter task sent and combined
	// away, the update stream that left and the memory references it
	// cost, the stored tile layout. Combining is a pure function of each
	// task's edge order. Two runs of one workload agree on it at any
	// Threads.
	StatWork StatClass = iota + 1
	// StatSchedule is device work: bytes read, written and checksummed,
	// retries and checksum failures. Retries and failures follow the
	// device's operation order; two runs are held to agree on this class
	// at Threads 1 only.
	StatSchedule
	// StatTiming is wall-clock time; two runs never agree on it. Iters is
	// classed here: it carries each iteration's times, and its work
	// counters are checked by their sums, the cumulative fields.
	StatTiming
	// StatIdentity names the run rather than measuring it: the algorithm,
	// engine and partitioner, and the shape it ran at.
	StatIdentity
)

// StatClasses gives every Stats field, by name, its class: the one list
// that work-metric compares read.
var StatClasses = map[string]StatClass{
	"Algorithm": StatIdentity, "Engine": StatIdentity, "Partitioner": StatIdentity,
	"Partitions": StatIdentity, "Threads": StatIdentity, "CoJobs": StatIdentity,

	"Iterations": StatWork, "EdgesStreamed": StatWork, "UpdatesSent": StatWork,
	"WastedEdges": StatWork, "CrossPartitionUpdates": StatWork,
	"EdgesSkipped": StatWork, "PartitionsSkipped": StatWork, "TilesSkipped": StatWork,
	"EdgesShared": StatWork, "TilesCompressed": StatWork, "CompressedRatio": StatWork,
	"TransportBatches": StatWork, "TransportBytes": StatWork, "TransportCross": StatWork,
	"ResumedIterations": StatWork, "UpdatesCombined": StatWork, "UpdateBytes": StatWork,
	"BytesStreamed": StatWork, "RandomRefs": StatWork, "SequentialRefs": StatWork,

	"BytesRead": StatSchedule, "BytesWritten": StatSchedule,
	"BytesReadLogical": StatSchedule, "BytesChecksummed": StatSchedule,
	"IORetries": StatSchedule, "ChecksumFailures": StatSchedule,

	"TotalTime": StatTiming, "PreprocessTime": StatTiming, "ScatterTime": StatTiming,
	"ShuffleTime": StatTiming, "GatherTime": StatTiming, "Iters": StatTiming,
}

// Counters returns the numeric fields of s — integers, floats and
// durations — whose class is one of classes, by field name.
func (s Stats) Counters(classes ...StatClass) map[string]float64 {
	out := map[string]float64{}
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if !slices.Contains(classes, StatClasses[name]) {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			out[name] = float64(f.Int())
		case reflect.Float64:
			out[name] = f.Float()
		}
	}
	return out
}

// WastedFraction returns the fraction of streamed edges that produced no
// update (Figure 12b's "wasted %").
func (s Stats) WastedFraction() float64 {
	if s.EdgesStreamed == 0 {
		return 0
	}
	return float64(s.WastedEdges) / float64(s.EdgesStreamed)
}

// CrossFraction returns the fraction of sent updates that crossed a
// partition boundary.
func (s Stats) CrossFraction() float64 {
	if s.UpdatesSent == 0 {
		return 0
	}
	return float64(s.CrossPartitionUpdates) / float64(s.UpdatesSent)
}

// CombinedFraction returns the fraction of sent updates the Combiner
// merged away before gather.
func (s Stats) CombinedFraction() float64 {
	if s.UpdatesSent == 0 {
		return 0
	}
	return float64(s.UpdatesCombined) / float64(s.UpdatesSent)
}

// SkippedFraction returns the fraction of the full edge workload that
// selective scheduling elided: skipped / (streamed + skipped).
func (s Stats) SkippedFraction() float64 {
	total := s.EdgesStreamed + s.EdgesSkipped
	if total == 0 {
		return 0
	}
	return float64(s.EdgesSkipped) / float64(total)
}

// StreamingTime estimates the time a pure streaming pass over the moved
// bytes would take at the given sequential bandwidth (bytes/sec). The
// paper's "ratio" column is TotalTime / StreamingTime.
func (s Stats) StreamingTime(seqBandwidth float64) time.Duration {
	if seqBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(s.BytesStreamed) / seqBandwidth * float64(time.Second))
}

// Ratio returns TotalTime divided by the streaming-time lower bound at the
// given sequential bandwidth.
func (s Stats) Ratio(seqBandwidth float64) float64 {
	st := s.StreamingTime(seqBandwidth)
	if st == 0 {
		return 0
	}
	return float64(s.TotalTime) / float64(st)
}

// String renders the profile as the one-line summary the CLI prints:
// iteration count, TotalTime split into pre-processing and iterations,
// and the phase time split — each phase as a fraction of TotalTime, the
// paper's Figure 12b quantity — first, then the device bytes read and
// written when there were any, then whichever optional subsystems
// (combining, selective streaming, shared passes) did work.
func (s Stats) String() string {
	out := fmt.Sprintf("%s[%s]: %d iters, %d parts, %v total = %v preprocess + %v iterate (scatter %v/%.0f%%, shuffle %v/%.0f%%, gather %v/%.0f%%), %d edges streamed, %d updates, %.0f%% wasted",
		s.Algorithm, s.Engine, s.Iterations, s.Partitions, s.TotalTime.Round(time.Millisecond),
		s.PreprocessTime.Round(time.Millisecond), (s.TotalTime - s.PreprocessTime).Round(time.Millisecond),
		s.ScatterTime.Round(time.Millisecond), 100*s.TimeFraction(s.ScatterTime),
		s.ShuffleTime.Round(time.Millisecond), 100*s.TimeFraction(s.ShuffleTime),
		s.GatherTime.Round(time.Millisecond), 100*s.TimeFraction(s.GatherTime),
		s.EdgesStreamed, s.UpdatesSent, 100*s.WastedFraction())
	if s.BytesRead > 0 || s.BytesWritten > 0 {
		out += fmt.Sprintf(", %s read, %s written", humanBytes(s.BytesRead), humanBytes(s.BytesWritten))
	}
	if s.UpdatesCombined > 0 {
		out += fmt.Sprintf(", %d combined (%.0f%%)", s.UpdatesCombined, 100*s.CombinedFraction())
	}
	if s.UpdateBytes > 0 {
		out += fmt.Sprintf(", %s update stream", humanBytes(s.UpdateBytes))
	}
	if s.EdgesSkipped > 0 {
		out += fmt.Sprintf(", %d edges skipped (%.0f%%: %d partitions, %d tiles)",
			s.EdgesSkipped, 100*s.SkippedFraction(), s.PartitionsSkipped, s.TilesSkipped)
	}
	if s.CoJobs > 1 {
		out += fmt.Sprintf(", %d co-jobs sharing the stream (%d edge reads saved, %.0f%%)",
			s.CoJobs, s.EdgesShared, 100*s.SharedFraction())
	}
	if s.CompressedRatio > 0 {
		out += fmt.Sprintf(", compressed tiles at %.2f of raw (%d block-coded, %s logical / %s physical read)",
			s.CompressedRatio, s.TilesCompressed, humanBytes(s.BytesReadLogical), humanBytes(s.BytesRead))
	}
	if s.BytesChecksummed > 0 {
		out += fmt.Sprintf(", %s checksum-verified", humanBytes(s.BytesChecksummed))
	}
	if s.IORetries > 0 {
		out += fmt.Sprintf(", %d I/O retries", s.IORetries)
	}
	if s.ChecksumFailures > 0 {
		out += fmt.Sprintf(", %d checksum failures", s.ChecksumFailures)
	}
	if s.ResumedIterations > 0 {
		out += fmt.Sprintf(", resumed from checkpoint at iter %d (%d executed)",
			s.ResumedIterations, s.Iterations-s.ResumedIterations)
	}
	return out
}

// TimeFraction returns d as a fraction of TotalTime (0 when TotalTime
// is zero) — the normalization behind the CLI's phase split.
func (s Stats) TimeFraction(d time.Duration) float64 {
	if s.TotalTime <= 0 {
		return 0
	}
	return float64(d) / float64(s.TotalTime)
}

// SharedFraction returns the fraction of the per-job edge demand the shared
// pass elided: shared / (streamed + shared). K perfectly co-scheduled jobs
// approach (K-1)/K.
func (s Stats) SharedFraction() float64 {
	total := s.EdgesStreamed + s.EdgesShared
	if total == 0 {
		return 0
	}
	return float64(s.EdgesShared) / float64(total)
}

// humanBytes renders a byte count with a binary unit suffix.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
