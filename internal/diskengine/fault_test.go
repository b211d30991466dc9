package diskengine

// fault_test.go covers the engine's fault-tolerance plumbing at the unit
// level: error propagation out of the prefetch goroutines (a fault on the
// distance-1 chunk must surface through Next, and the goroutine must exit,
// not leak), stream termination on silently truncated files (the shape a
// torn write leaves behind). The checkpoint lifecycle is checkpoint_test.go.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/tilecodec"
)

// testEdges returns n distinct edge records.
func testEdges(n int) []core.Edge {
	edges := make([]core.Edge, n)
	for i := range edges {
		edges[i] = core.Edge{Src: core.VertexID(i), Dst: core.VertexID(i + 1), Weight: float32(i)}
	}
	return edges
}

// writeRaw writes the raw record bytes of edges as file name on dev.
func writeRaw(t *testing.T, dev storage.Device, name string, edges []core.Edge) int64 {
	t.Helper()
	f, err := dev.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	raw := pod.AsBytes(edges)
	if err := storage.WriteFull(f, raw, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return int64(len(raw))
}

// drainEnded requires p's goroutine to exit (after at most a few pending
// results), proving the reader goroutine exited rather than leaking: p's
// Next then reports the end of the stream.
func drainEnded[T any](t *testing.T, p *storage.Prefetcher[T], what string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; ; i++ {
		ended := make(chan bool, 1)
		go func() {
			recs, _, err := p.Next()
			ended <- recs == nil && err == nil
		}()
		select {
		case ok := <-ended:
			if ok {
				return
			}
			if i > 4 {
				t.Fatalf("%s: still producing results after exit was expected", what)
			}
		case <-deadline:
			t.Fatalf("%s: goroutine did not exit (stream never ended)", what)
		}
	}
}

// TestChunkReaderPrefetchFaultSurfaces: a fault injected on the prefetched
// (distance-1) chunk read must surface through the following Next call,
// and the reader goroutine must exit.
func TestChunkReaderPrefetchFaultSurfaces(t *testing.T) {
	inner := storage.NewSim(storage.SSDParams("t", 1, 0))
	const chunkRecs = 16
	size := writeRaw(t, inner, "edges", testEdges(4*chunkRecs))

	// Read ops through the faulty wrapper: chunk 0 succeeds (op 1), the
	// prefetch of chunk 1 fails (op 2).
	dev := storage.NewFaulty(inner, storage.FaultyOptions{FailAfterOps: 1})
	f, err := dev.Open("edges")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rd := newChunkReader(f, size, chunkRecs*int(edgeRecSize), true)
	defer rd.Close()
	chunk, err := rd.Next()
	if err != nil || int64(len(chunk)) != chunkRecs*edgeRecSize {
		t.Fatalf("first chunk: %d bytes, err %v", len(chunk), err)
	}
	if _, err := rd.Next(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("prefetched-chunk fault surfaced as %v, want ErrInjected", err)
	}
	drainEnded(t, &rd.pre, "chunkReader after fault")
}

// TestChunkReaderCloseReleasesReader: abandoning a stream mid-way (the
// engine does this when another partition errors first) must terminate the
// reader goroutine even though it is blocked handing over results.
func TestChunkReaderCloseReleasesReader(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	const chunkRecs = 8
	size := writeRaw(t, dev, "edges", testEdges(8*chunkRecs))
	f, err := dev.Open("edges")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rd := newChunkReader(f, size, chunkRecs*int(edgeRecSize), true)
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	rd.Close()
	drainEnded(t, &rd.pre, "chunkReader after Close")
}

// TestChunkReaderTruncatedFileEndsStream: a file shorter than the caller's
// bookkeeping — a silently torn write that still ends on a record boundary
// — must end the stream instead of spinning forever on empty reads, in
// both prefetch and synchronous modes. (Regression: the chaos suite caught
// the prefetch goroutine livelocking on exactly this.)
func TestChunkReaderTruncatedFileEndsStream(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	const chunkRecs = 16
	written := 2*chunkRecs + chunkRecs/2 // 2.5 chunks on disk
	writeRaw(t, dev, "edges", testEdges(written))
	claimed := int64(3*chunkRecs) * int64(pod.Size[core.Edge]())
	for _, prefetch := range []bool{true, false} {
		f, err := dev.Open("edges")
		if err != nil {
			t.Fatal(err)
		}
		rd := newChunkReader(f, claimed, chunkRecs*int(edgeRecSize), prefetch)
		got := 0
		for {
			chunk, err := rd.Next()
			if err != nil {
				t.Fatalf("prefetch=%v: %v", prefetch, err)
			}
			if chunk == nil {
				break
			}
			got += len(chunk)
		}
		rd.Close()
		f.Close()
		if got /= int(edgeRecSize); got != written {
			t.Fatalf("prefetch=%v: delivered %d records, disk holds %d", prefetch, got, written)
		}
	}
}

// TestTileReaderPrefetchFaultSurfaces: same contract for the compressed
// layout's decode goroutine — a fault on the prefetched batch surfaces
// through Next and the goroutine exits.
func TestTileReaderPrefetchFaultSurfaces(t *testing.T) {
	inner := storage.NewSim(storage.SSDParams("t", 1, 0))
	const tileRecs = 50
	edges := testEdges(2 * tileRecs)
	var enc tilecodec.Encoder
	buf, _, err := enc.Encode(nil, edges[:tileRecs])
	if err != nil {
		t.Fatal(err)
	}
	b1 := int64(len(buf))
	buf, _, err = enc.Encode(buf, edges[tileRecs:])
	if err != nil {
		t.Fatal(err)
	}
	f0, err := inner.Create("tiles")
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteFull(f0, buf, 0); err != nil {
		t.Fatal(err)
	}
	f0.Close()
	spans := []tileSpan{
		{recs: tileRecs, off: 0, bytes: b1},
		{recs: tileRecs, off: b1, bytes: int64(len(buf)) - b1},
	}

	dev := storage.NewFaulty(inner, storage.FaultyOptions{FailAfterOps: 1})
	f, err := dev.Open("tiles")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := newTileReader(f, spans, true, tileRecs, true, true)
	defer rd.Close()
	chunk, err := rd.Next()
	if err != nil || len(chunk) != tileRecs {
		t.Fatalf("first batch: %d records, err %v", len(chunk), err)
	}
	for i, e := range edges[:tileRecs] {
		if chunk[i] != e {
			t.Fatalf("record %d decoded as %+v, want %+v", i, chunk[i], e)
		}
	}
	if _, err := rd.Next(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("prefetched-batch fault surfaced as %v, want ErrInjected", err)
	}
	drainEnded(t, &rd.pre, "tileReader after fault")
}
