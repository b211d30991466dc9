package diskengine

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/streambuf"
)

type rec struct {
	K uint32
	V uint32
}

func writeRecs(t *testing.T, dev storage.Device, name string, recs []rec) *partFile {
	t.Helper()
	pf, err := createPartFile(dev, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.appendBytes(pod.AsBytes(recs)); err != nil {
		t.Fatal(err)
	}
	return pf
}

func makeRecs(n int) []rec {
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{K: uint32(i % 7), V: uint32(i)}
	}
	return out
}

// TestChunkReaderModes verifies the async (prefetching) and sync readers
// stream identical record sequences across chunk-size boundaries.
func TestChunkReaderModes(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	recs := makeRecs(1000)
	pf := writeRecs(t, dev, "a", recs)

	for _, prefetch := range []bool{true, false} {
		for _, chunk := range []int{1, 7, 128, 1000, 5000} {
			rd := newChunkReader[rec](pf.f, pf.size, chunk, prefetch)
			var got []rec
			for {
				c, err := rd.Next()
				if err != nil {
					t.Fatal(err)
				}
				if c == nil {
					break
				}
				if len(c) > chunk {
					t.Fatalf("chunk of %d exceeds limit %d", len(c), chunk)
				}
				got = append(got, c...)
			}
			rd.Close()
			if len(got) != len(recs) {
				t.Fatalf("prefetch=%v chunk=%d: %d records, want %d", prefetch, chunk, len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("prefetch=%v chunk=%d: record %d mismatch", prefetch, chunk, i)
				}
			}
		}
	}
}

func TestChunkReaderEmptyFile(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	pf, _ := createPartFile(dev, "empty")
	for _, prefetch := range []bool{true, false} {
		rd := newChunkReader[rec](pf.f, 0, 16, prefetch)
		c, err := rd.Next()
		if err != nil || c != nil {
			t.Fatalf("empty file: c=%v err=%v", c, err)
		}
		rd.Close()
	}
}

func TestChunkReaderEarlyClose(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	pf := writeRecs(t, dev, "a", makeRecs(10000))
	rd := newChunkReader[rec](pf.f, pf.size, 64, true)
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	rd.Close() // must not deadlock with the reader goroutine mid-flight
}

// newFileWriter is the write pipeline over partition files the way the
// edge shuffle and the update spill drive it: records keyed by K mod
// len(files), every run appended to its bucket's file.
func newFileWriter(capacity, threads int, files []*partFile) *streambuf.Writer[rec] {
	k := len(files)
	plan, _ := streambuf.NewPlan(k, max(k, 2))
	return streambuf.NewWriter(capacity, plan, threads, func(r rec) uint32 { return r.K % uint32(k) },
		func(p int, run []rec) error { return files[p].appendBytes(pod.AsBytes(run)) })
}

// TestBucketWriterPipeline stresses the write pipeline: many flushes, all
// records land in the right files in append order per bucket.
func TestBucketWriterPipeline(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	const k = 4
	files := make([]*partFile, k)
	for p := range files {
		files[p] = mustPart(t, dev, string(rune('a'+p)))
	}
	w := newFileWriter(64, 2, files)

	// Batches of 1 to 150 records through 64-record windows: a batch may
	// fill a window exactly, straddle one or span several.
	const total = 10_000
	for next, size := 0, 1; next < total; size = size%150 + 1 {
		batch := make([]rec, 0, size)
		for len(batch) < size && next < total {
			batch = append(batch, rec{K: uint32(next), V: uint32(next)})
			next++
		}
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if windows := (total + 63) / 64; dev.Stats().Writes < int64(windows) {
		t.Fatalf("%d writes for %d full windows", dev.Stats().Writes, windows)
	}

	seen := 0
	for p := 0; p < k; p++ {
		n := files[p].size / int64(pod.Size[rec]())
		buf := make([]rec, n)
		recs, err := readFull(files[p].f, buf, 0, pod.Size[rec]())
		if err != nil {
			t.Fatal(err)
		}
		last := -1
		for _, r := range recs {
			if int(r.K%k) != p {
				t.Fatalf("record %d landed in bucket %d", r.K, p)
			}
			if int(r.V) <= last {
				t.Fatalf("bucket %d: record %d after %d", p, r.V, last)
			}
			last = int(r.V)
		}
		seen += len(recs)
	}
	if seen != total {
		t.Fatalf("recovered %d records, want %d", seen, total)
	}
}

// TestBucketWriterBypass: a phase that never flushed is sealed in memory —
// Seal returns its shuffled window and no file is written.
func TestBucketWriterBypass(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	files := []*partFile{mustPart(t, dev, "x"), mustPart(t, dev, "y")}
	w := newFileWriter(1000, 2, files)
	defer w.Stop()
	if err := w.Append(makeRecs(100)); err != nil {
		t.Fatal(err)
	}
	buf, moved, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if buf == nil {
		t.Fatal("bypass did not trigger")
	}
	if buf.BucketLen(0)+buf.BucketLen(1) != 100 || moved != 100 {
		t.Fatalf("bypass buffer holds %d records, moved %d", buf.BucketLen(0)+buf.BucketLen(1), moved)
	}
	if files[0].size != 0 || files[1].size != 0 {
		t.Fatal("bypass still wrote files")
	}
}

// TestBucketWriterNoBypassAfterFlush: once anything spilled, the tail must
// spill too and no in-memory buffer is returned.
func TestBucketWriterNoBypassAfterFlush(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	files := []*partFile{mustPart(t, dev, "x"), mustPart(t, dev, "y")}
	w := newFileWriter(64, 1, files)
	defer w.Stop()
	if err := w.Append(makeRecs(74)); err != nil {
		t.Fatal(err)
	}
	buf, moved, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if buf != nil {
		t.Fatal("bypass triggered after a flush")
	}
	if files[0].size+files[1].size != 74*int64(pod.Size[rec]()) || moved != 74 {
		t.Fatalf("files hold %d bytes, moved %d", files[0].size+files[1].size, moved)
	}
}

// gate fails the first WriteAt through any of its files, once release is
// closed, and counts every WriteAt.
type gate struct {
	release chan struct{}
	writes  atomic.Int64
}

type gatedFile struct {
	storage.File
	g *gate
}

func (f gatedFile) WriteAt(p []byte, off int64) (int, error) {
	if f.g.writes.Add(1) == 1 {
		<-f.g.release
		return 0, storage.ErrInjected
	}
	return f.File.WriteAt(p, off)
}

// TestWritePipelineStopsAfterFailedAppend: a window queued behind the one
// whose append fails is recycled without touching the device — before, the
// writer goroutine went on appending it to every file, and Stop wrote
// whatever was still queued.
func TestWritePipelineStopsAfterFailedAppend(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	g := &gate{release: make(chan struct{})}
	files := []*partFile{mustPart(t, dev, "x"), mustPart(t, dev, "y")}
	for _, f := range files {
		f.f = gatedFile{f.f, g}
	}
	w := newFileWriter(64, 1, files)
	// Two full windows and a record: the first window reaches the writer
	// goroutine and blocks in its first WriteAt; the second is queued behind
	// it before that WriteAt fails.
	if err := w.Append(makeRecs(129)); err != nil {
		t.Fatalf("append: %v", err)
	}
	close(g.release)
	if err := w.Finish(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Finish: %v, want the failed append", err)
	}
	if n := g.writes.Load() - 1; n != 0 {
		t.Fatalf("%d writes after the failed append", n)
	}
}

func mustPart(t *testing.T, dev storage.Device, name string) *partFile {
	t.Helper()
	pf, err := createPartFile(dev, name)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestEngineDeterministicAcrossConfigs: WCC must give identical results
// regardless of thread count, partition count, prefetching or whether the
// updates spill.
func TestEngineDeterministicAcrossConfigs(t *testing.T) {
	src, _ := smallGraph(77)
	var want []wccState
	for i, cfg := range []Config{
		{Device: ssd(0), Threads: 1, IOUnit: 8 << 10, Partitions: 1},
		{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 8, NoPrefetch: true},
		spillsUpdates(t, Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 2}),
		spilled(Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 4}),
	} {
		res, err := Run(src, &wccProg{}, cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if want == nil {
			want = res.Vertices
			continue
		}
		for v := range want {
			if res.Vertices[v].Label != want[v].Label {
				t.Fatalf("cfg %d: vertex %d differs", i, v)
			}
		}
	}
}
