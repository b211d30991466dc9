package diskengine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/streambuf"
)

// fileTransport is the out-of-core implementation of core.UpdateTransport:
// the update-file writeback path of §3.2, extracted behind the interface.
// Sends append into a bucketWriter whose windowed shuffle+fold+write
// pipeline overlaps combining and file appends with the caller's next fill;
// Seal syncs the writer (or, when every update of the iteration fit one
// stream buffer, keeps the shuffled buffer in memory — the single-buffer
// bypass); Drain either walks that in-memory buffer or streams the
// partition's update file back with prefetch, verifying size and running
// CRC32C against the writer's accounting before the file is truncated.
//
// The transport owns its buffers for the whole run: the writer's three
// stream buffers and goroutine are made once, by newFileTransport, and the
// drain side's two read buffers on the first file Drain.
type fileTransportConfig[M any] struct {
	files   []*partFile // one update file per partition
	plan    streambuf.Plan
	key     func(core.Update[M]) uint32
	threads int
	bufRecs int // records per shuffle window (and per read chunk)
	fold    func(*streambuf.Buffer[core.Update[M]]) int64

	bypass   bool // allow the single-buffer in-memory bypass at Seal
	prefetch bool // prefetch update-file reads at Drain
	verify   bool // verify size+CRC of drained update files

	// onVerified is called with the byte count of every update file that
	// passed verification at Drain — the engine's BytesChecksummed hook.
	onVerified func(int64)
}

type fileTransport[M any] struct {
	cfg     fileTransportConfig[M]
	recSize int

	w     *bucketWriter[core.Update[M]] // the run's write pipeline, nil once closed
	inMem *streambuf.Buffer[core.Update[M]]
	// drain is the read-back scratch. The engine drains one partition at a
	// time; a Drain that finds it lent (the interface allows concurrent
	// drains of distinct partitions) reads through a scratch of its own.
	drain readScratch[core.Update[M]]

	core.CounterSet
}

func newFileTransport[M any](cfg fileTransportConfig[M]) *fileTransport[M] {
	return &fileTransport[M]{
		cfg:     cfg,
		recSize: pod.Size[core.Update[M]](),
		w:       newBucketWriter(cfg.bufRecs, cfg.files, cfg.plan, cfg.key, cfg.threads, cfg.fold),
	}
}

// Send implements core.UpdateTransport. It returns false when the batch
// does not fit the current shuffle window; the coordinator's Room/Flush
// protocol prevents that in normal operation.
func (t *fileTransport[M]) Send(src int, batch []core.Update[M]) bool {
	if len(batch) == 0 {
		return true
	}
	if !t.w.Buf().Append(batch) {
		return false
	}
	t.Count(int64(len(batch)), core.CrossOf(batch, src, t.cfg.key), t.recSize)
	return true
}

// Room implements core.UpdateTransport: remaining capacity of the current
// shuffle window.
func (t *fileTransport[M]) Room() int { return t.w.Room() }

// Flush implements core.UpdateTransport: shuffle+fold the current window
// and hand it to the writer goroutine.
func (t *fileTransport[M]) Flush() error { return t.w.Flush() }

// Seal implements core.UpdateTransport: end the iteration's writes. With
// the bypass enabled and everything in one window, the shuffled buffer is
// kept in memory for Drain instead of touching the update files.
func (t *fileTransport[M]) Seal() (core.IterFlow, error) {
	w := t.w
	var err error
	if t.cfg.bypass {
		t.inMem, err = w.SyncBypass()
	} else {
		err = w.Sync()
	}
	flow := core.IterFlow{
		Appended:  w.combined + w.written,
		Combined:  w.combined,
		Delivered: w.written,
	}
	w.flushes, w.combined, w.written = 0, 0, 0
	return flow, err
}

// Pending implements core.UpdateTransport: records sealed for partition p,
// from the bypass buffer or the update file's append offset.
func (t *fileTransport[M]) Pending(p int) int64 {
	if t.inMem != nil {
		return int64(t.inMem.BucketLen(p))
	}
	return t.cfg.files[p].size / int64(t.recSize)
}

// Drain implements core.UpdateTransport. The file path verifies byte count
// and running CRC32C against what the write side appended, surfaces any
// mismatch as storage.ErrCorrupted, and truncates the file afterwards so
// the next iteration appends from zero (on SSDs the truncate is the TRIM
// hint of §3.3).
func (t *fileTransport[M]) Drain(p int, fn func([]core.Update[M]) error) error {
	if t.inMem != nil {
		var err error
		t.inMem.Bucket(p, func(run []core.Update[M]) {
			if err == nil {
				err = fn(run)
			}
		})
		return err
	}
	uf := t.cfg.files[p]
	var crc uint32
	var got int64
	rd := t.drain.openChunks(uf.f, 0, uf.size, t.cfg.bufRecs, t.cfg.prefetch)
	if rd == nil {
		rd = new(readScratch[core.Update[M]]).openChunks(uf.f, 0, uf.size, t.cfg.bufRecs, t.cfg.prefetch)
	}
	defer rd.Close()
	for {
		chunk, err := rd.Next()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		if t.cfg.verify {
			crc = storage.ChecksumUpdate(crc, pod.AsBytes(chunk))
			got += int64(len(chunk)) * int64(t.recSize)
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
	if t.cfg.verify {
		if got != uf.size || crc != uf.crc {
			return fmt.Errorf("diskengine: update file %s: %d of %d bytes, checksum %08x, want %08x: %w",
				uf.name, got, uf.size, crc, uf.crc, storage.ErrCorrupted)
		}
		if t.cfg.onVerified != nil {
			t.cfg.onVerified(got)
		}
	}
	return uf.truncate()
}

// EndIteration implements core.UpdateTransport: hand the bypass buffer back
// to the writer (the update files were truncated by Drain).
func (t *fileTransport[M]) EndIteration() error {
	if t.inMem != nil {
		t.w.Release(t.inMem)
		t.inMem = nil
	}
	return nil
}

// Close implements core.UpdateTransport: stop the write pipeline, wherever
// an error path may have abandoned the iteration. The update files
// themselves belong to the engine and are removed by its cleanup.
func (t *fileTransport[M]) Close() error {
	if t.w != nil {
		t.w.Stop()
		t.w = nil
	}
	t.inMem = nil
	return nil
}

// Cap implements core.UpdateTransport: the per-window record capacity.
func (t *fileTransport[M]) Cap() int { return t.cfg.bufRecs }

// Counters implements core.UpdateTransport.
func (t *fileTransport[M]) Counters() core.TransportCounters { return t.Snapshot() }
