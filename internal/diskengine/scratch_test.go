package diskengine

// scratch_test.go pins the run-lived buffer ownership of the iteration
// loop: readers hand their scratch back on every exit path and leave no
// goroutine behind, a scatter batch the transport refuses fails the
// iteration while a full window is flushed instead, and a warmed partition
// through the scatter sink, a warmed single-tile read and a steady-state
// shared-pass iteration allocate (next to) nothing.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/partition2ps"
	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/tilecodec"
)

// newChunkReader and newTileReader open a reader over a scratch of its own,
// for the tests that exercise one reader in isolation.
func newChunkReader(f storage.File, end int64, chunkBytes int, prefetch bool) *chunkReader {
	return new(chunkScratch).openChunks(f, 0, end, chunkBytes, prefetch)
}

func newTileReader(f storage.File, tiles []tileSpan, encoded bool, chunkRecs int, prefetch, verify bool) *tileReader {
	return new(edgeScratch).openTiles(f, tiles, encoded, chunkRecs, prefetch, verify, nil)
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
		if tiles.totalRecs(q) > tiles.totalRecs(p) {
			p = q
		}
	}
	pf := files[p]
	fileRecs := tiles.totalRecs(p)
	if fileRecs < 4*chunkRecs {
		t.Fatalf("partition %d holds %d records, too few to keep a prefetch in flight", p, fileRecs)
	}
	segs := tiles.whole(p)
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
		_, _, err := streamSegments(nil, sc, pf, compressed, true, segs, chunkRecs, true, nil, func(chunk []core.Edge) error {
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

	rd := sc.openTiles(pf.f, segs[0].tiles, compressed, chunkRecs, true, true, nil)
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	rd.Close() // the reader goroutine is mid-flight on the following batches
	rd.Close() // and a second Close must not release somebody else's loan
	check("early close")

	// Batch 0 is read, the prefetch of batch 1 fails.
	_, _, err := streamSegments(nil, sc, faultyFile(t, pf, 1), compressed, true, segs, chunkRecs, true, nil,
		func([]core.Edge) error { return nil })
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("injected read error surfaced as %v", err)
	}
	check("read error")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err = streamSegments(ctx, sc, pf, compressed, true, segs, chunkRecs, true, nil,
		func([]core.Edge) error { cancel(); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream returned %v", err)
	}
	check("cancel")
}

func TestChunkReaderLifecycle(t *testing.T) { readerLifecycle(t, false) }
func TestTileReaderLifecycle(t *testing.T)  { readerLifecycle(t, true) }

// TestTileReaderChecksumsRawTilesBeforeDelivery: a raw batch is handed out
// only once every tile in it has matched its CRC. With 128-record tiles read
// in batches of two (chunkRecs 300, not a multiple of the tile) and the
// prefetch on, a byte flipped in any tile i of a partition is
// storage.ErrCorrupted, and no record of tile i — nor any later one —
// reaches fn.
func TestTileReaderChecksumsRawTilesBeforeDelivery(t *testing.T) {
	const chunkRecs = 300
	files, tiles := shuffleLayout(t, false, 128)
	p := 0
	for q := range files {
		if tiles.totalRecs(q) > tiles.totalRecs(p) {
			p = q
		}
	}
	pf, parts := files[p], tiles.parts[p]
	if len(parts) < 6 {
		t.Fatalf("partition %d has %d tiles, too few for several two-tile batches", p, len(parts))
	}
	segs := tiles.whole(p)
	sc := new(edgeScratch)
	flip := func(off int64) {
		t.Helper()
		var b [1]byte
		if _, err := pf.f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if _, err := pf.f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	for i, tl := range parts {
		off := (tl.lo+tl.recs)*edgeRecSize - 1 // the tile's last byte: a batch that scattered its head would show it
		flip(off)
		var delivered int64
		_, _, err := streamSegments(nil, sc, pf, false, true, segs, chunkRecs, true, nil, func(chunk []core.Edge) error {
			delivered += int64(len(chunk))
			return nil
		})
		flip(off)
		if !errors.Is(err, storage.ErrCorrupted) {
			t.Fatalf("tile %d flipped: stream returned %v, want ErrCorrupted", i, err)
		}
		if delivered > tl.lo {
			t.Fatalf("tile %d flipped: %d records reached fn, tile %d starts at record %d", i, delivered, i, tl.lo)
		}
	}
}

// TestSkippedBlockStillVerified: a needed tile is checked whole before any
// of it is handed out, the blocks the predicate skips included. With
// 256-record tiles and a predicate that keeps only the first block of a
// tile, a byte flipped in that tile's last block — which the predicate skips
// — is storage.ErrCorrupted and no record of the tile reaches fn, raw and
// encoded; unflipped, the same read delivers the first block and skips the
// rest.
func TestSkippedBlockStillVerified(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		files, tiles := shuffleLayout(t, compressed, 256)
		pf, parts := files[0], tiles.parts[0]
		recs := partitionRecords(t, pf, tiles, 0, false)
		blockSpan := func(from int64) core.SrcSpan {
			span := core.NewSrcSpan(recs[from].Src)
			for _, ed := range recs[from:min(from+tilecodec.BlockRecs, int64(len(recs)))] {
				span.Add(ed.Src)
			}
			return span
		}
		// A full tile whose last block's span differs from its first's.
		i := slices.IndexFunc(parts, func(tl tileSpan) bool {
			return tl.recs == 256 && blockSpan(tl.lo) != blockSpan(tl.lo+256-tilecodec.BlockRecs)
		})
		if i < 0 {
			t.Fatalf("compressed %v: no tile with a first and last block of different spans", compressed)
		}
		tl := parts[i]
		first := blockSpan(tl.lo)
		need := func(s core.SrcSpan) bool { return s == first }
		segs := []edgeSegment{tiles.segment(0, i, i+1)}
		stream := func() (delivered, skipped int64, err error) {
			_, skipped, err = streamSegments(nil, new(edgeScratch), pf, compressed, true, segs, 512, true, need, func(chunk []core.Edge) error {
				delivered += int64(len(chunk))
				return nil
			})
			return delivered, skipped, err
		}
		if delivered, skipped, err := stream(); err != nil || delivered < tilecodec.BlockRecs || delivered+skipped != 256 || skipped < tilecodec.BlockRecs {
			t.Fatalf("compressed %v: clean read delivered %d and skipped %d of 256 records: %v", compressed, delivered, skipped, err)
		}
		// The tile's last byte: a raw tile's last weight, an encoded tile's
		// last payload byte (before its CRC) — both in the last block.
		off := tl.off + tl.bytes - 1
		if compressed {
			off -= 4
		}
		var b [1]byte
		if _, err := pf.f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x20
		if _, err := pf.f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		delivered, _, err := stream()
		if !errors.Is(err, storage.ErrCorrupted) {
			t.Fatalf("compressed %v: a flipped byte in a skipped block read back with error %v, want ErrCorrupted", compressed, err)
		}
		if delivered != 0 {
			t.Fatalf("compressed %v: %d records of the corrupt tile reached fn", compressed, delivered)
		}
	}
}

// TestSingleBatchSegmentReadsInline: a segment that is one batch has
// nothing for a prefetch to overlap with, so no goroutine is started for
// it in either layout. The count is taken once the shuffle's writer
// goroutine has retired: its Finish returns a few instructions before.
func TestSingleBatchSegmentReadsInline(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		before := runtime.NumGoroutine()
		files, tiles := shuffleLayout(t, compressed, 128)
		settleGoroutines(t, before, "the layout's shuffle")
		segs := tiles.whole(0)
		sc := new(edgeScratch)
		base := runtime.NumGoroutine()
		rd := sc.openTiles(files[0].f, segs[0].tiles, compressed, 1<<20, true, true, nil)
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
// With window set it counts the flushes of a spilling transport's windows of
// that many records: a window is flushed once full, when the next record
// needs room, and Seal starts the next iteration's window. It is not safe
// for concurrent sends: the window sink sends from the engine's goroutine
// only, and the race detector says so if it does not.
type stubTransport[M any] struct {
	refuse, keep bool
	window       int
	fill         int
	flushes      int
	sent         int64
	recs         []core.Update[M]
}

func (s *stubTransport[M]) Send(src int, batch []core.Update[M]) bool {
	if s.refuse {
		return false
	}
	s.sent += int64(len(batch))
	if s.window > 0 && len(batch) > 0 {
		full := (s.fill + len(batch) - 1) / s.window
		s.flushes += full
		s.fill += len(batch) - full*s.window
	}
	if s.keep {
		s.recs = append(s.recs, batch...)
	}
	return true
}

func (s *stubTransport[M]) Err() error {
	return fmt.Errorf("stub transport refuses every batch (capacity 7 records)")
}

func (s *stubTransport[M]) Seal() (core.IterFlow, error) {
	s.fill = 0
	return core.IterFlow{}, nil
}
func (s *stubTransport[M]) Pending(p int) int64                                { return 0 }
func (s *stubTransport[M]) Drain(p int, fn func([]core.Update[M]) error) error { return nil }
func (s *stubTransport[M]) EndIteration() error                                { return nil }
func (s *stubTransport[M]) Close() error                                       { return nil }
func (s *stubTransport[M]) Counters() core.TransportCounters                   { return core.TransportCounters{} }

// probedRun is a solo run set up over a stub transport: it, its tally of
// the scatter counts its sink has flushed and EndScatter has not booked, and
// whether its vertex state lives in the vertex files.
type probedRun struct {
	core.JobRun
	it      *core.ScatterCounts
	spilled bool
}

// setupRun runs a solo pass's preamble — prepare the dataset, make its run
// with the stores every run is lent — and returns both, the run with tp in
// place of its transport. The run scatters through the window sink.
func setupRun[V, M any](t *testing.T, src core.EdgeSource, prog core.Program[V, M], cfg Config, tp core.UpdateTransport[M]) (*probedRun, *Prepared) {
	t.Helper()
	pp, err := prepare(src, cfg, int64(pod.Size[V]()), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pp.Close)
	runs, err := core.ProgramSet{core.NewJob(prog)}.NewRuns(pp.jobSetup(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := &probedRun{JobRun: runs[0], it: core.SwapTransport[V, M](runs[0], tp)}
	t.Cleanup(r.Close)
	if f, err := pp.cfg.Device.Open(pp.cfg.Prefix + "r0-p0000.verts"); err == nil {
		f.Close()
		r.spilled = true
	}
	return r, pp
}

// TestScatterSendRefusedFailsIteration: a transport over a store spills its
// full windows itself, and one without a store holds the whole iteration, so
// a Send that says no means updates would vanish. That must fail the pass
// with an error naming the transport's capacity — never a quietly wrong
// result — with and without a Combiner in front of the transport.
func TestScatterSendRefusedFailsIteration(t *testing.T) {
	src, _ := smallGraph(5)
	cfg := Config{Device: ssd(0), Threads: 2, Partitions: 4, IOUnit: 16 << 10}
	check := func(name string, e *probedRun, pp *Prepared) {
		t.Helper()
		_, _, err := pp.runPass(nil, time.Now(), name, func() ([]core.JobRun, error) { return []core.JobRun{e.JobRun}, nil })
		if err == nil {
			t.Fatalf("%s: a refused scatter batch was dropped silently", name)
		}
		if !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), "capacity 7") {
			t.Fatalf("%s: error does not name the refusal and the transport capacity: %v", name, err)
		}
	}
	plain, pp := setupRun[int32, int32](t, src, &sumProg{rounds: 2}, cfg, &stubTransport[int32]{refuse: true})
	check("append buffers", plain, pp)
	cfg.Prefix = "comb-"
	comb, pp := setupRun[int32, int32](t, src, &sumCombProg{sumProg{rounds: 2}}, cfg, &stubTransport[int32]{refuse: true})
	check("combining buffers", comb, pp)
}

// TestScatterRoomProtocol: the window sink's kernel sends its full batches
// straight into the transport, while it scatters and as it sweeps at the
// partition's end, and the transport flushes only full windows: over an
// iteration, ⌈delivered / window⌉ − 1 flushes. Through a window of 64
// records — filled while scattering by the plain append buffer of a kernel
// past the dense bound (over the graph spread by pastBoundGraph), in the
// sweep alone by the dense accumulator — and one of 4500, for destinations
// that never repeat and for sixteen hot ones, at Threads 1, 2 and 4 with
// vertex state in memory and spilled: nothing is
// refused, every update sent is delivered or combined away, and every
// destination receives the total the in-memory engine's per-worker sink
// gathers.
func TestScatterRoomProtocol(t *testing.T) {
	const n = 1 << 15
	distinct, hot := make([]core.Edge, n), make([]core.Edge, n)
	for i := range distinct {
		distinct[i] = core.Edge{Src: core.VertexID(i), Dst: core.VertexID((i*7919 + 13) % n)} // odd stride: a permutation
		hot[i] = core.Edge{Src: core.VertexID(i), Dst: core.VertexID(i % 16 * (n / 16))}
	}
	type graph struct {
		name  string
		dense bool
		src   core.EdgeSource
	}
	var graphs []graph
	for _, g := range []struct {
		name  string
		edges []core.Edge
	}{{"distinct", distinct}, {"hot", hot}} {
		src := core.NewSliceSource(g.edges, n)
		graphs = append(graphs, graph{g.name + "/dense", true, src}, graph{g.name + "/past the bound", false, pastBoundGraph(t, src)})
	}
	for _, g := range graphs {
		for _, window := range []int{64, 4096 + 404} {
			for _, threads := range []int{1, 2, 4} {
				for _, spill := range []bool{false, true} {
					name := fmt.Sprintf("%s/window %d/threads %d/spilled %v", g.name, window, threads, spill)
					cfg := Config{Device: ssd(0), Threads: threads, Partitions: 4, IOUnit: 64 << 10}
					if spill {
						cfg = spilled(cfg)
					}
					tp := &stubTransport[int32]{keep: true, window: window}
					e, pp := setupRun[int32, int32](t, g.src, pushCombProg{}, cfg, tp)
					if e.spilled != spill {
						t.Fatalf("%s: vertex state spilled: %v", name, e.spilled)
					}
					var segFlushes, sweepFlushes int
					for p := 0; p < pp.k; p++ {
						edges := partitionEdges(t, pp, p)
						sink := e.NewScatter(0, p)
						before := tp.flushes
						if err := sink.Edges(edges); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						mid := tp.flushes
						if err := sink.Flush(); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						segFlushes, sweepFlushes = segFlushes+mid-before, sweepFlushes+tp.flushes-mid
					}
					sent := *e.it
					if g.dense && segFlushes != 0 {
						t.Errorf("%s: the dense accumulator filled %d windows while scattering", name, segFlushes)
					}
					if strings.HasPrefix(g.name, "distinct") && window == 64 && (sweepFlushes == 0 || !g.dense && segFlushes == 0) {
						t.Errorf("%s: %d flushes while scattering and %d in sweeps: the window forced too few", name, segFlushes, sweepFlushes)
					}
					if int64(len(tp.recs)) != sent.Sent-sent.Combined {
						t.Errorf("%s: %d records delivered, %d sent − %d combined", name, len(tp.recs), sent.Sent, sent.Combined)
					}
					if want := (len(tp.recs)+window-1)/window - 1; tp.flushes != want {
						t.Errorf("%s: %d flushes for %d records through %d-record windows, want %d", name, tp.flushes, len(tp.recs), window, want)
					}
					got, _ := memSink(t, pp, pushCombProg{})
					want := make([]int32, len(got))
					for v := range want {
						pushProg{}.Init(core.VertexID(v), &want[v])
					}
					for _, u := range tp.recs {
						want[u.Dst] += u.Val
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%s: vertex %d gathered to %d from the mem sink, %d from the disk sink's updates", name, v, got[v], want[v])
						}
					}
				}
			}
		}
	}
}

// partitionEdges reads partition p's raw edge file whole.
func partitionEdges(t *testing.T, pp *Prepared, p int) (edges []core.Edge) {
	t.Helper()
	segs := pp.tilesFwd.whole(p)
	if _, _, err := streamSegments(nil, new(edgeScratch), pp.edgeFiles[p], false, true, segs, pp.readRecs, true, nil, func(chunk []core.Edge) error {
		edges = append(edges, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return edges
}

// TestScatterSinkAllocatesNothingWarm: once the run has its kernels, a
// partition through the window sink — NewScatter Begins it, Edges scatters,
// Flush sweeps — allocates nothing, with or without a Combiner, and also when
// the transport's window is so small that it fills while the sink scatters
// and again mid-sweep, with a Combiner over destinations that fit the dense
// accumulator and over ones past its bound.
func TestScatterSinkAllocatesNothingWarm(t *testing.T) {
	// Spread, its destinations are past the dense bound: the kernel appends
	// and sends while the sink scatters, not only at the partition's end.
	dense := graphgen.RMAT(graphgen.RMATConfig{Scale: 14, EdgeFactor: 2, Seed: 9})
	spread := pastBoundGraph(t, dense)
	for _, c := range []struct {
		name   string
		prog   core.Program[int32, int32]
		src    core.EdgeSource
		window int
	}{
		{"append buffers", &sumProg{rounds: 1}, dense, 0},
		{"combiner past the bound", &sumCombProg{sumProg{rounds: 1}}, spread, 0},
		{"combiner past the bound, 64-record window", &sumCombProg{sumProg{rounds: 1}}, spread, 64},
		{"dense combining", &sumCombProg{sumProg{rounds: 1}}, dense, 0},
		{"dense combining, 64-record window", &sumCombProg{sumProg{rounds: 1}}, dense, 64},
	} {
		cfg := Config{Device: ssd(0), Threads: 1, Partitions: 1, IOUnit: 64 << 10}
		tp := &stubTransport[int32]{window: c.window}
		e, pp := setupRun(t, c.src, c.prog, cfg, tp)
		edges := partitionEdges(t, pp, 0)
		var err error
		var segFlushes, sweepFlushes int
		scatter := func() {
			sink := e.NewScatter(0, 0)
			before := tp.flushes
			if err = sink.Edges(edges); err != nil {
				return
			}
			mid := tp.flushes
			err = sink.Flush()
			segFlushes, sweepFlushes = mid-before, tp.flushes-mid
		}
		scatter() // warm: the kernels are made here
		*e.it = core.ScatterCounts{}
		if allocs := testing.AllocsPerRun(20, scatter); allocs != 0 {
			t.Errorf("%s: a warmed partition through the sink allocates %.0f times", c.name, allocs)
		}
		if err != nil || e.it.Sent != 21*int64(len(edges)) { // AllocsPerRun calls scatter once more than it counts
			t.Errorf("%s: scattered %d updates from 21 × %d edges: %v", c.name, e.it.Sent, len(edges), err)
		}
		// The dense accumulator emits only in its sweep; a kernel past the
		// bound sends full batches while it scatters (and has nothing left
		// to send at the end when they fill it exactly).
		forced := segFlushes > 0
		if c.src == dense {
			forced = segFlushes == 0 && sweepFlushes > 0
		}
		if c.window > 0 && !forced {
			t.Errorf("%s: %d flushes while scattering and %d in the sweep: the window forced no flush, or the dense accumulator emitted while scattering", c.name, segFlushes, sweepFlushes)
		}
	}
}

// TestSingleTileStreamAllocatesNothingWarm: what a selective iteration
// does for a partition whose frontier touches one tile — open the segment,
// read and decode it inline, verify it, close — allocates nothing once the
// scratch's buffers exist, in both layouts.
func TestSingleTileStreamAllocatesNothingWarm(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		files, tiles := shuffleLayout(t, compressed, 128)
		segs := []edgeSegment{tiles.segment(0, 0, 1)}
		if got := segs[0].hi - segs[0].lo; got != 128 {
			t.Fatalf("compressed=%v: planned a %d-record segment, want one 128-record tile", compressed, got)
		}
		sc := new(edgeScratch)
		var recs int64
		var err error
		fn := func(chunk []core.Edge) error { recs += int64(len(chunk)); return nil }
		stream := func() {
			_, _, err = streamSegments(nil, sc, files[0], compressed, true, segs, 512, true, nil, fn)
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
// job, the pass's run and sink lists, the frontier's per-partition counts,
// the tile plan's id and segment lists and the shuffle's chunk indexes
// included — what it still allocates is bookkeeping (the closures handed to
// the partition reader, span-free stats): 216 bytes, gated at 1.5× that.
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
	med := deltas[len(deltas)/2]
	t.Logf("a steady shared-pass iteration allocates %d bytes (median of %d)", med, len(deltas))
	if med >= 324 {
		t.Errorf("a steady shared-pass iteration allocates %d bytes (median of %d), want < 324", med, len(deltas))
	}
}
