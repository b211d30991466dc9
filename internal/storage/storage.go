// Package storage abstracts the secondary-storage devices the out-of-core
// engine streams from.
//
// X-Stream's evaluation (§5.1 of the paper) depends on the bandwidth
// characteristics of three media: main memory, SSD and magnetic disk. This
// package provides the Device/File abstraction that the engine performs all
// I/O through, plus two backends:
//
//   - OS-backed files in a directory (NewOS), for real use, and
//   - a simulated device (NewSim) with a calibrated cost model — per-request
//     overhead, seek latency for non-sequential access, request-size
//     dependent bandwidth, RAID-0 striping, and TRIM-on-truncate — used to
//     reproduce the paper's SSD/HDD experiments on hardware that has
//     neither. The model is calibrated against the paper's own Figure 9 and
//     Figure 11 measurements.
//
// All devices record metrics (bytes moved, request counts, sequential vs
// random split, busy time) that the benchmark harness reports.
//
// A File may move fewer bytes than asked: a read may return a legal short
// count (with io.EOF only at the end of the file), and a write a short count
// with a nil error. Nothing above this package loops on ReadAt or WriteAt:
// WriteFull, ReadUpTo and ReadFull (fullio.go) are the only retry loops of
// short I/O, and the Prefetcher the one read-ahead protocol every
// sequential reader streams through. Transient failures are the retry
// device's (NewRetry), detected corruption the checksums' (ErrCorrupted).
package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotExist is returned when opening or removing a file that does not
// exist on the device.
var ErrNotExist = errors.New("storage: file does not exist")

// File is a random-access file on a Device. Implementations are safe for
// concurrent use by multiple goroutines.
type File interface {
	// ReadAt reads up to len(p) bytes starting at offset off. It may
	// return fewer with a nil error, and returns io.EOF (possibly with a
	// short count) when reading past the end. ReadUpTo and ReadFull
	// re-issue the rest.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes up to len(p) bytes at offset off, growing the file
	// as needed. It may report fewer with a nil error; WriteFull re-issues
	// the rest.
	WriteAt(p []byte, off int64) (int, error)
	// Size returns the current file size in bytes.
	Size() int64
	// Truncate resizes the file. Shrinking a file releases its blocks;
	// on the simulated device this models the TRIM the paper relies on
	// (§3.3), and on SSD-class devices it is counted in Stats.
	Truncate(size int64) error
	// Close releases the handle. The file remains on the device.
	Close() error
}

// Device is a named storage device holding a flat namespace of files.
type Device interface {
	// Name identifies the device in logs and benchmark tables.
	Name() string
	// Create creates (or truncates) a file.
	Create(name string) (File, error)
	// Open opens an existing file.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Stats returns a snapshot of the device counters.
	Stats() Stats
	// ResetStats zeroes the counters and the bandwidth timeline.
	ResetStats()
	// Timeline returns the recorded bandwidth-over-time samples since
	// the last ResetStats (used to regenerate the paper's Figure 23).
	Timeline() []TimelinePoint
}

// Stats is a snapshot of device activity counters.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	Reads        int64 // read requests
	Writes       int64 // write requests
	SeqReads     int64 // read requests that continued a sequential run
	SeqWrites    int64
	Trims        int64 // truncations that released blocks
	TrimmedBytes int64
	// Retries counts operations the retry layer (NewRetry) re-issued
	// after a transient failure. Zero for unwrapped devices.
	Retries int64
	// Busy is the simulated device busy time (the wall time the busiest
	// RAID member spent servicing requests). Zero for OS devices.
	Busy time.Duration
}

// RandomReads returns the number of read requests that required a seek.
func (s Stats) RandomReads() int64 { return s.Reads - s.SeqReads }

// RandomWrites returns the number of write requests that required a seek.
func (s Stats) RandomWrites() int64 { return s.Writes - s.SeqWrites }

// TimelinePoint is one bucket of the bandwidth-over-time recording.
type TimelinePoint struct {
	At           time.Duration // bucket start, relative to ResetStats
	BytesRead    int64
	BytesWritten int64
}

// counters is the shared metrics implementation embedded by backends.
type counters struct {
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64
	seqReads     atomic.Int64
	seqWrites    atomic.Int64
	trims        atomic.Int64
	trimmedBytes atomic.Int64

	mu       sync.Mutex
	start    time.Time
	timeline []TimelinePoint
	bucket   time.Duration // timeline resolution
}

const defaultTimelineBucket = 50 * time.Millisecond

// maxTimelinePoints bounds the timeline of a device that is never reset: a
// full timeline doubles its bucket width and merges neighbouring pairs of
// points, keeping the byte totals. At the default width the first merge
// comes after 4096 busy buckets, ≈ 3.4 minutes of continuous I/O.
const maxTimelinePoints = 4096

func (c *counters) init() {
	c.start = time.Now()
	c.bucket = defaultTimelineBucket
}

func (c *counters) snapshot() Stats {
	return Stats{
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		Reads:        c.reads.Load(),
		Writes:       c.writes.Load(),
		SeqReads:     c.seqReads.Load(),
		SeqWrites:    c.seqWrites.Load(),
		Trims:        c.trims.Load(),
		TrimmedBytes: c.trimmedBytes.Load(),
	}
}

func (c *counters) reset() {
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.reads.Store(0)
	c.writes.Store(0)
	c.seqReads.Store(0)
	c.seqWrites.Store(0)
	c.trims.Store(0)
	c.trimmedBytes.Store(0)
	c.mu.Lock()
	c.start = time.Now()
	c.timeline = nil
	c.bucket = defaultTimelineBucket
	c.mu.Unlock()
}

// record accounts one request of n bytes and samples the timeline.
func (c *counters) record(n int, write, seq bool) {
	if write {
		c.bytesWritten.Add(int64(n))
		c.writes.Add(1)
		if seq {
			c.seqWrites.Add(1)
		}
	} else {
		c.bytesRead.Add(int64(n))
		c.reads.Add(1)
		if seq {
			c.seqReads.Add(1)
		}
	}
	c.sample(n, write)
}

func (c *counters) sample(n int, write bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	at := time.Since(c.start)
	for {
		bucketStart := at - at%c.bucket
		if k := len(c.timeline); k > 0 && c.timeline[k-1].At == bucketStart {
			break
		}
		if len(c.timeline) < maxTimelinePoints {
			c.timeline = append(c.timeline, TimelinePoint{At: bucketStart})
			break
		}
		c.coarsen()
	}
	p := &c.timeline[len(c.timeline)-1]
	if write {
		p.BytesWritten += int64(n)
	} else {
		p.BytesRead += int64(n)
	}
}

// coarsen doubles the bucket width and merges the points that now share a
// bucket, in place. The caller holds c.mu.
func (c *counters) coarsen() {
	c.bucket *= 2
	merged := c.timeline[:0]
	for _, p := range c.timeline {
		p.At -= p.At % c.bucket
		if k := len(merged); k > 0 && merged[k-1].At == p.At {
			merged[k-1].BytesRead += p.BytesRead
			merged[k-1].BytesWritten += p.BytesWritten
		} else {
			merged = append(merged, p)
		}
	}
	c.timeline = merged
}

func (c *counters) timelineCopy() []TimelinePoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TimelinePoint, len(c.timeline))
	copy(out, c.timeline)
	return out
}
