package diskengine

// scratch_test.go pins the run-lived buffer ownership of the iteration
// loop: readers hand their scratch back on every exit path and leave no
// goroutine behind, a scatter batch the transport refuses fails the
// iteration, and a warmed scatter range, a warmed single-tile read and a
// steady-state shared-pass iteration allocate (next to) nothing.

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/partition2ps"
	"repro/internal/pod"
	"repro/internal/storage"
)

// newChunkReader and newTileReader open a reader over a scratch of its own,
// for the tests that exercise one reader in isolation.
func newChunkReader[T any](f storage.File, end int64, chunkRecs int, prefetch bool) *chunkReader[T] {
	return new(readScratch[T]).openChunks(f, 0, end, chunkRecs, prefetch)
}

func newTileReader(f storage.File, tiles []tileSpan, chunkRecs int, prefetch, verify bool) *tileReader {
	return new(edgeScratch).openTiles(f, tiles, chunkRecs, prefetch, verify)
}

// settleGoroutines waits for the goroutine count to fall back to base: a
// reader's Close returns when its goroutine has closed the ready channel,
// a few instructions before the runtime retires it.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the reader was opened", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// faultyFile reopens pf's file through a device that fails every operation
// after the first ops.
func faultyFile(t *testing.T, pf *partFile, ops int64) *partFile {
	t.Helper()
	dev := storage.NewFaulty(pf.dev, storage.FaultyOptions{FailAfterOps: ops})
	f, err := dev.Open(pf.name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	bad := *pf
	bad.dev, bad.f = dev, f
	return &bad
}

// readerLifecycle drives one layout's reader through every way a stream
// can end — normal end, early Close, an injected read error, a cancelled
// context — over one scratch, requiring after each that the scratch is
// free again with the buffers it had, that no goroutine is left, and that
// the next stream over it still delivers the partition's exact records.
func readerLifecycle(t *testing.T, compressed bool) {
	const chunkRecs = 256 // several batches per partition: the prefetch goroutine runs
	files, tiles := shuffleLayout(t, compressed, 128)
	p := 0
	for q := range files {
		if edgeFileRecs(files[q], tiles, q) > edgeFileRecs(files[p], tiles, p) {
			p = q
		}
	}
	pf := files[p]
	fileRecs := edgeFileRecs(pf, tiles, p)
	if fileRecs < 4*chunkRecs {
		t.Fatalf("partition %d holds %d records, too few to keep a prefetch in flight", p, fileRecs)
	}
	segs, _, _ := planSegments(tiles, p, nil, fileRecs)
	want := partitionRecords(t, pf, tiles, p, false)

	sc := new(edgeScratch)
	base := runtime.NumGoroutine()
	var buf0, buf1 *core.Edge
	check := func(what string) {
		t.Helper()
		if sc.busy.Load() {
			t.Fatalf("%s: scratch still lent", what)
		}
		settleGoroutines(t, base, what)
		var got []core.Edge
		_, _, _, err := streamSegments(nil, sc, pf, p, tiles, true, segs, chunkRecs, true, func(chunk []core.Edge) error {
			got = append(got, chunk...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: next stream: %v", what, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: next stream delivered %d records, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: next stream record %d is %+v, want %+v", what, i, got[i], want[i])
			}
		}
		if sc.busy.Load() {
			t.Fatalf("%s: scratch still lent after the next stream", what)
		}
		if buf0 == nil {
			buf0, buf1 = &sc.bufs[0][0], &sc.bufs[1][0]
		} else if buf0 != &sc.bufs[0][0] || buf1 != &sc.bufs[1][0] {
			t.Fatalf("%s: scratch buffers were replaced, not handed back", what)
		}
		settleGoroutines(t, base, what+" (next stream)")
	}
	check("normal end")

	rd := sc.openSegment(pf.f, segs[0], chunkRecs, true, true)
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	rd.Close() // the reader goroutine is mid-flight on the following batches
	rd.Close() // and a second Close must not release somebody else's loan
	check("early close")

	// Batch 0 is read, the prefetch of batch 1 fails.
	_, _, _, err := streamSegments(nil, sc, faultyFile(t, pf, 1), p, tiles, true, segs, chunkRecs, true,
		func([]core.Edge) error { return nil })
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("injected read error surfaced as %v", err)
	}
	check("read error")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, _, err = streamSegments(ctx, sc, pf, p, tiles, true, segs, chunkRecs, true,
		func([]core.Edge) error { cancel(); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream returned %v", err)
	}
	check("cancel")
}

func TestChunkReaderLifecycle(t *testing.T) { readerLifecycle(t, false) }
func TestTileReaderLifecycle(t *testing.T)  { readerLifecycle(t, true) }

// TestSingleBatchSegmentReadsInline: a segment that is one batch has
// nothing for a prefetch to overlap with, so no goroutine is started for
// it in either layout.
func TestSingleBatchSegmentReadsInline(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		files, tiles := shuffleLayout(t, compressed, 128)
		segs, _, _ := planSegments(tiles, 0, nil, edgeFileRecs(files[0], tiles, 0))
		sc := new(edgeScratch)
		base := runtime.NumGoroutine()
		rd := sc.openSegment(files[0].f, segs[0], 1<<20, true, true)
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("compressed=%v: %d goroutines with a single-batch reader open, %d before", compressed, n, base)
		}
		chunk, err := rd.Next()
		if err != nil || int64(len(chunk)) != segs[0].hi-segs[0].lo {
			t.Fatalf("compressed=%v: inline read gave %d records, err %v", compressed, len(chunk), err)
		}
		if chunk, err = rd.Next(); chunk != nil || err != nil {
			t.Fatalf("compressed=%v: stream did not end after its only batch", compressed)
		}
		rd.Close()
	}
}

// sumCombProg is sumProg with a Combiner, so the scatter goes through the
// combining buffers.
type sumCombProg struct{ sumProg }

func (*sumCombProg) Combine(a, b int32) int32 { return a + b }

// stubTransport accepts (or, with refuse set, rejects) every batch — keeping
// a copy when keep is set — and otherwise behaves like an empty transport.
type stubTransport[M any] struct {
	refuse, keep bool
	sent         int64
	recs         []core.Update[M]
}

func (s *stubTransport[M]) Send(src int, batch []core.Update[M]) bool {
	if s.refuse {
		return false
	}
	s.sent += int64(len(batch))
	if s.keep {
		s.recs = append(s.recs, batch...)
	}
	return true
}
func (s *stubTransport[M]) Room() int                                          { return 1 << 30 }
func (s *stubTransport[M]) Flush() error                                       { return nil }
func (s *stubTransport[M]) Seal() (core.IterFlow, error)                       { return core.IterFlow{}, nil }
func (s *stubTransport[M]) Pending(p int) int64                                { return 0 }
func (s *stubTransport[M]) Drain(p int, fn func([]core.Update[M]) error) error { return nil }
func (s *stubTransport[M]) EndIteration() error                                { return nil }
func (s *stubTransport[M]) Close() error                                       { return nil }
func (s *stubTransport[M]) Cap() int                                           { return 7 }
func (s *stubTransport[M]) Counters() core.TransportCounters                   { return core.TransportCounters{} }

// setupEngine runs Run's preamble — prepare the dataset, set a fresh engine
// up under it — and returns both, the engine with tp in place of its
// transport.
func setupEngine[V, M any](t *testing.T, src core.EdgeSource, prog core.Program[V, M], cfg Config, tp core.UpdateTransport[M]) (*engine[V, M], *Prepared) {
	t.Helper()
	pp, err := prepare(src, cfg, int64(pod.Size[V]()), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pp.Close)
	runs, err := soloRuns(pp, prog)()
	if err != nil {
		t.Fatal(err)
	}
	e := runs[0].(*engine[V, M])
	t.Cleanup(e.Close)
	e.tp.Close()
	e.tp = tp
	return e, pp
}

// TestScatterSendRefusedFailsIteration: the scatter reserves room in the
// transport's window before it scatters a range, so a Send that still says
// no means updates would vanish. That must fail the pass with an error
// naming the transport's capacity — never a quietly wrong result — with
// and without a Combiner in front of the transport.
func TestScatterSendRefusedFailsIteration(t *testing.T) {
	src, _ := smallGraph(5)
	cfg := Config{Device: ssd(0), Threads: 2, Partitions: 4, IOUnit: 16 << 10}
	check := func(name string, e core.JobRun, pp *Prepared) {
		t.Helper()
		_, _, err := pp.runPass(nil, time.Now(), name, func() ([]core.JobRun, error) { return []core.JobRun{e}, nil })
		if err == nil {
			t.Fatalf("%s: a refused scatter batch was dropped silently", name)
		}
		if !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), "capacity 7") {
			t.Fatalf("%s: error does not name the refusal and the transport capacity: %v", name, err)
		}
	}
	plain, pp := setupEngine[int32, int32](t, src, &sumProg{rounds: 2}, cfg, &stubTransport[int32]{refuse: true})
	check("append buffers", plain, pp)
	cfg.Prefix = "comb-"
	comb, pp := setupEngine[int32, int32](t, src, &sumCombProg{sumProg{rounds: 2}}, cfg, &stubTransport[int32]{refuse: true})
	check("combining buffers", comb, pp)
}

// partitionEdges reads partition p's (raw, unindexed) edge file whole.
func partitionEdges(t *testing.T, pp *Prepared, p int) (edges []core.Edge) {
	t.Helper()
	pf := pp.edgeFiles[p]
	segs, _, _ := planSegments(nil, p, nil, edgeFileRecs(pf, nil, p))
	if _, _, _, err := streamSegments(nil, new(edgeScratch), pf, p, nil, true, segs, pp.bufEdgeRecs, true, func(chunk []core.Edge) error {
		edges = append(edges, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return edges
}

// TestScatterRangeAllocatesNothingWarm: once a worker has its kernel,
// scattering a range through it — Begin, combine, sweep, send — allocates
// nothing, with or without a Combiner.
func TestScatterRangeAllocatesNothingWarm(t *testing.T) {
	src, _ := smallGraph(9)
	cfg := Config{Device: ssd(0), Threads: 1, Partitions: 1, IOUnit: 64 << 10}
	run := func(name string, e *engine[int32, int32], pp *Prepared) {
		edges := partitionEdges(t, pp, 0)
		sink := e.NewScatter(0, 0, int64(len(edges))).(*soloScatter[int32, int32])
		if e.err != nil {
			t.Fatal(e.err)
		}
		var sent int64
		scatter := func() { sent = e.scatterRange(0, edges, sink.verts, sink.lo, 0, sink.window).Sent }
		scatter() // warm: the worker's kernel is made here
		if allocs := testing.AllocsPerRun(20, scatter); allocs != 0 {
			t.Errorf("%s: a warmed scatterRange allocates %.0f times per call", name, allocs)
		}
		if sent != int64(len(edges)) {
			t.Errorf("%s: scattered %d updates from %d edges", name, sent, len(edges))
		}
	}
	e, pp := setupEngine[int32, int32](t, src, &sumProg{rounds: 1}, cfg, &stubTransport[int32]{})
	run("append buffers", e, pp)
	cfg.Prefix = "comb-"
	e, pp = setupEngine[int32, int32](t, src, &sumCombProg{sumProg{rounds: 1}}, cfg, &stubTransport[int32]{})
	run("combining buffers", e, pp)
}

// TestSingleTileStreamAllocatesNothingWarm: what a selective iteration
// does for a partition whose frontier touches one tile — open the segment,
// read and decode it inline, verify it, close — allocates nothing once the
// scratch's buffers exist, in both layouts.
func TestSingleTileStreamAllocatesNothingWarm(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		files, tiles := shuffleLayout(t, compressed, 128)
		first := tiles.parts[0][0].span
		segs, _, _ := planSegments(tiles, 0, func(sp core.SrcSpan) bool { return sp == first }, edgeFileRecs(files[0], tiles, 0))
		segs = segs[:1]
		if got := segs[0].hi - segs[0].lo; got != 128 {
			t.Fatalf("compressed=%v: planned a %d-record segment, want one 128-record tile", compressed, got)
		}
		sc := new(edgeScratch)
		var recs int64
		var err error
		fn := func(chunk []core.Edge) error { recs += int64(len(chunk)); return nil }
		stream := func() {
			_, _, _, err = streamSegments(nil, sc, files[0], 0, tiles, true, segs, 512, true, fn)
		}
		stream() // warm: the scratch's buffers are made here
		recs = 0
		allocs := testing.AllocsPerRun(20, stream)
		if err != nil {
			t.Fatal(err)
		}
		// The simulated device allocates inside every request it models;
		// a pass is one request, and only that request may allocate.
		probe := make([]byte, 128*edgeRecSize)
		device := testing.AllocsPerRun(20, func() { files[0].f.ReadAt(probe, 0) })
		if allocs > device {
			t.Errorf("compressed=%v: a warmed single-tile pass allocates %.0f times on top of the device's %.0f", compressed, allocs-device, device)
		}
		if recs != 21*128 { // AllocsPerRun calls stream once more than it counts
			t.Errorf("compressed=%v: streamed %d records over 21 passes of one tile", compressed, recs)
		}
	}
}

// allocProbe is bfsProg sampling the heap's cumulative allocation volume
// at the start of every iteration.
type allocProbe struct {
	bfsProg
	total []uint64
}

func (a *allocProbe) StartIteration(iter int) {
	a.bfsProg.StartIteration(iter)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.total = append(a.total, ms.TotalAlloc)
}

// TestSharedPassIterationAllocation: a steady-state iteration of a
// selective BFS shared pass over the benchmark's layout (clique chain, 2PS,
// compressed tiles) borrows every buffer it needs from the pass and the
// job, the pass's run and sink lists included — what it still allocates is
// bookkeeping (the frontier's per-partition counts, the closures handed to
// the partition reader, span-free stats): 1216 bytes, gated at twice that.
// The median over the steady iterations is taken because a few of them pay
// for the amortised growth of the per-iteration stats and of this probe's
// samples.
func TestSharedPassIterationAllocation(t *testing.T) {
	src := graphgen.CliqueChain(96, 24, 3)
	pp, err := Prepare(src, Config{
		Device: ssd(0), Threads: 2, Partitions: 8, IOUnit: 16 << 10,
		Partitioner: partition2ps.New(), Selective: true, CompressTiles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	probe := &allocProbe{bfsProg: bfsProg{root: 0}}
	_, pass, err := pp.RunMany(context.Background(), core.ProgramSet{core.NewJob[bfsState, int32](probe)})
	if err != nil {
		t.Fatal(err)
	}
	if pass.Iterations < 100 || pass.TilesSkipped == 0 {
		t.Fatalf("workload lost its shape: %d iterations, %d tiles skipped", pass.Iterations, pass.TilesSkipped)
	}
	var deltas []uint64
	for i := len(probe.total) / 2; i+1 < len(probe.total); i++ {
		deltas = append(deltas, probe.total[i+1]-probe.total[i])
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
	if med := deltas[len(deltas)/2]; med >= 2432 {
		t.Errorf("a steady shared-pass iteration allocates %d bytes (median of %d), want < 2432", med, len(deltas))
	}
}
