package diskengine

import (
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

// TestBucketWriterPipeline stresses the flush pipeline: many flushes, all
// records land in the right files in append order per bucket.
func TestBucketWriterPipeline(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	const k = 4
	files := make([]*partFile, k)
	for p := 0; p < k; p++ {
		var err error
		files[p], err = createPartFile(dev, string(rune('a'+p)))
		if err != nil {
			t.Fatal(err)
		}
	}
	plan, _ := streambuf.NewPlan(k, k)
	w := newBucketWriter(64, files, plan, func(r rec) uint32 { return r.K % k }, 2, nil)

	const total = 10_000
	next := 0
	for next < total {
		room := w.Room()
		if room == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		batch := make([]rec, 0, room)
		for len(batch) < room && next < total {
			batch = append(batch, rec{K: uint32(next), V: uint32(next)})
			next++
		}
		if !w.Buf().Append(batch) {
			t.Fatal("append failed with room available")
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if w.flushes < 2 {
		t.Fatalf("expected multiple flushes, got %d", w.flushes)
	}

	seen := 0
	for p := 0; p < k; p++ {
		n := files[p].size / int64(pod.Size[rec]())
		buf := make([]rec, n)
		recs, err := readFull(files[p].f, buf, 0, pod.Size[rec]())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if int(r.K%k) != p {
				t.Fatalf("record %d landed in bucket %d", r.K, p)
			}
		}
		seen += len(recs)
	}
	if seen != total {
		t.Fatalf("recovered %d records, want %d", seen, total)
	}
}

// TestBucketWriterBypass returns the in-memory buffer when nothing spilled.
func TestBucketWriterBypass(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	files := []*partFile{mustPart(t, dev, "x"), mustPart(t, dev, "y")}
	plan, _ := streambuf.NewPlan(2, 2)
	w := newBucketWriter(1000, files, plan, func(r rec) uint32 { return r.K % 2 }, 2, nil)
	defer w.Stop()
	w.Buf().Append(makeRecs(100))
	buf, err := w.SyncBypass()
	if err != nil {
		t.Fatal(err)
	}
	if buf == nil {
		t.Fatal("bypass did not trigger")
	}
	if buf.BucketLen(0)+buf.BucketLen(1) != 100 {
		t.Fatalf("bypass buffer holds %d records", buf.BucketLen(0)+buf.BucketLen(1))
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
	plan, _ := streambuf.NewPlan(2, 2)
	w := newBucketWriter(64, files, plan, func(r rec) uint32 { return r.K % 2 }, 1, nil)
	w.Buf().Append(makeRecs(64))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	w.Buf().Append(makeRecs(10))
	buf, err := w.SyncBypass()
	if err != nil {
		t.Fatal(err)
	}
	if buf != nil {
		t.Fatal("bypass triggered after a flush")
	}
	if files[0].size+files[1].size != 74*int64(pod.Size[rec]()) {
		t.Fatalf("files hold %d bytes", files[0].size+files[1].size)
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
// regardless of thread count, partition count, prefetching or bypass.
func TestEngineDeterministicAcrossConfigs(t *testing.T) {
	src, _ := smallGraph(77)
	var want []wccState
	for i, cfg := range []Config{
		{Device: ssd(0), Threads: 1, IOUnit: 8 << 10, Partitions: 1},
		{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 8, NoPrefetch: true},
		{Device: ssd(0), Threads: 2, IOUnit: 32 << 10, Partitions: 2, NoUpdateBypass: true},
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
