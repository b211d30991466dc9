package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pod"
)

// emissions Resets cb, feeds it updates in blocks of step and sweeps it, and
// returns every record emitted, in order. It fails the test when Add emits a
// record, a drained batch exceeds the append buffer or the swept buffer
// still marks a destination.
func emissions[M any](t *testing.T, cb *CombineBuffer[M], step int, updates []Update[M]) []Update[M] {
	t.Helper()
	var log []Update[M]
	cb.Reset()
	for i := 0; i < len(updates); i += step {
		cb.Add(updates[i:min(i+step, len(updates))])
		if len(cb.out) != 0 {
			t.Fatalf("Add of updates %d..%d emitted %d records", i, min(i+step, len(updates)), len(cb.out))
		}
	}
	cb.Sweep(func(recs []Update[M]) {
		if len(recs) > cap(cb.out) {
			t.Fatalf("drained %d records from an append buffer of %d", len(recs), cap(cb.out))
		}
		log = append(log, recs...)
	})
	if len(cb.touched) != 0 || len(cb.out) != 0 {
		t.Fatalf("swept buffer still holds %d touched words, %d records", len(cb.touched), len(cb.out))
	}
	for w, bits := range cb.seen {
		if bits != 0 {
			t.Fatalf("swept buffer still marks word %d: %#x", w, bits)
		}
	}
	return log
}

// destRange is the destination count a buffer taking updates needs: one more
// than the largest destination.
func destRange[M any](updates []Update[M]) int64 {
	nv := int64(1)
	for _, u := range updates {
		nv = max(nv, int64(u.Dst)+1)
	}
	return nv
}

// denseOrder is the order a combining buffer emits the destinations of
// updates in: the bitmap words in the order an update first touched them,
// each word's destinations ascending.
func denseOrder(updates []Update[int64]) []VertexID {
	var words []VertexID
	dsts := map[VertexID][]VertexID{}
	for _, u := range updates {
		w := u.Dst >> 6
		if _, ok := dsts[w]; !ok {
			words = append(words, w)
		}
		if !slices.Contains(dsts[w], u.Dst) {
			dsts[w] = append(dsts[w], u.Dst)
		}
	}
	var order []VertexID
	for _, w := range words {
		slices.Sort(dsts[w])
		order = append(order, dsts[w]...)
	}
	return order
}

// checkCombineBuffer is the combining buffer's contract on one update
// stream: Add emits nothing; Sweep emits one record per destination, in
// denseOrder, and the records carry the per-destination combination of
// everything added; Combined counts exactly the updates merged away; a
// buffer swept, or dirtied by an abandoned stream, and Reset, fed the stream
// in blocks, emits the same records in the same order as a fresh one fed one
// at a time; and every op loop emits what the func loop it replaces does
// (checkOpLoops).
func checkCombineBuffer(t *testing.T, baseRecs int, useMin bool, us []Update[int64]) {
	t.Helper()
	combine := func(a, b int64) int64 { return a + b }
	if useMin {
		combine = func(a, b int64) int64 { return min(a, b) }
	}
	want := map[VertexID]int64{}
	for _, u := range us {
		if old, ok := want[u.Dst]; ok {
			want[u.Dst] = combine(old, u.Val)
		} else {
			want[u.Dst] = u.Val
		}
	}
	nv := destRange(us)
	fresh := NewCombineBuffer[int64](baseRecs, nv, combine, 0)
	got := emissions(t, fresh, 1, us)
	if w := int64(len(us) - len(got)); fresh.Combined != w {
		t.Fatalf("Combined = %d, added %d - emitted %d = %d", fresh.Combined, len(us), len(got), w)
	}
	order := denseOrder(us)
	if len(got) != len(order) {
		t.Fatalf("emitted %d records for %d destinations", len(got), len(order))
	}
	for i, u := range got {
		if u.Dst != order[i] {
			t.Fatalf("record %d went to %d, want %d (touched words first-touched first, ascending within)", i, u.Dst, order[i])
		}
		if u.Val != want[u.Dst] {
			t.Fatalf("dst %d: emitted %d, the added updates combine to %d", u.Dst, u.Val, want[u.Dst])
		}
	}
	// A swept buffer is as good as fresh.
	if again := emissions(t, fresh, scatterBlock, us); !slices.Equal(again, got) {
		t.Fatalf("a swept buffer fed the stream again emitted %d records that differ from its first %d", len(again), len(got))
	}
	// Dirty a second buffer and abandon it mid-stream.
	reused := NewCombineBuffer[int64](baseRecs, nv, combine, 0)
	reused.Add(us[:len(us)/2])
	if again := emissions(t, reused, 1+len(us)/3, us); !slices.Equal(again, got) {
		t.Fatalf("a dirtied buffer Reset emitted %d records that differ from a fresh buffer's %d", len(again), len(got))
	}
	if reused.Combined != fresh.Combined {
		t.Fatalf("Combined %d after Reset, %d fresh", reused.Combined, fresh.Combined)
	}
	checkOpLoops(t, baseRecs, us, f32Of)
	checkOpLoops(t, baseRecs, us, i32Of)
	checkOpLoops(t, baseRecs, us, vidOf)
}

// The value corpora the op loops are held to the func loops on: what a merge
// gets wrong first — NaNs of two payloads, ±0, ±Inf, denormals, the extremes.
var (
	f32Corpus = []float32{float32(math.NaN()), math.Float32frombits(0xFFC00001), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, 1, -1}
	i32Corpus = []int32{math.MinInt32, math.MaxInt32, 0, -1, 1}
	vidCorpus = []VertexID{0, math.MaxUint32, 1, math.MaxUint32 - 1}
)

// f32Of, i32Of and vidOf turn a test stream's value into one of a
// specialised type: a corpus value for every fourth, a spread of ordinary
// ones (overflowing int32 and VertexID sums) otherwise.
func f32Of(v int64) float32 {
	if v%4 == 0 {
		return f32Corpus[v/4%int64(len(f32Corpus))]
	}
	return float32(v)*0.37 - 20
}

func i32Of(v int64) int32 {
	if v%4 == 0 {
		return i32Corpus[v/4%int64(len(i32Corpus))]
	}
	return int32(v * 0x7654321)
}

func vidOf(v int64) VertexID {
	if v%4 == 0 {
		return vidCorpus[v/4%int64(len(vidCorpus))]
	}
	return VertexID(v * 0x9E3779B1)
}

// opFunc is the func an op declares Combine to be.
func opFunc[N numeric](op CombineOp) func(a, b N) N {
	if op == CombineSum {
		return func(a, b N) N { return a + b }
	}
	return func(a, b N) N {
		if a < b {
			return a
		}
		return b
	}
}

// inlineOnly is the combine func of a buffer that must merge inline: calling
// it panics.
func inlineOnly[N any](a, b N) N { panic("an op loop called the combine func") }

// convert gives updates values of type N through val.
func convert[N any](updates []Update[int64], val func(int64) N) []Update[N] {
	us := make([]Update[N], len(updates))
	for i, u := range updates {
		us[i] = Update[N]{Dst: u.Dst, Val: val(u.Val)}
	}
	return us
}

// checkOpLoops holds the combining buffer's op loops to the func loop they
// replace: one stream, its values turned into N by val, through a buffer
// merging by the op's func and through one merging by the op inline, emits
// bitwise the same records in the same order and counts the same Combined.
func checkOpLoops[N numeric](t *testing.T, baseRecs int, updates []Update[int64], val func(int64) N) {
	t.Helper()
	us := convert(updates, val)
	nv := destRange(us)
	for _, op := range []CombineOp{CombineSum, CombineMin} {
		ref := NewCombineBuffer(baseRecs, nv, opFunc[N](op), 0)
		inline := NewCombineBuffer(baseRecs, nv, inlineOnly[N], op)
		want := emissions(t, ref, scatterBlock, us)
		got := emissions(t, inline, scatterBlock, us)
		if !bytes.Equal(pod.AsBytes(got), pod.AsBytes(want)) || inline.Combined != ref.Combined {
			t.Fatalf("op %d over %T: the inline loop emitted %d records and combined %d, the func loop %d and %d",
				op, *new(N), len(got), inline.Combined, len(want), ref.Combined)
		}
	}
}

// TestCombineBufferProperties runs the contract over seeded random streams
// with append buffers of 1 to 64 records and destination ranges from
// all-hits to all-misses.
func TestCombineBufferProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		baseRecs := 1 + rng.Intn(64)
		dsts := 1 + rng.Intn(1<<rng.Intn(13))
		updates := make([]Update[int64], rng.Intn(4*dsts+64))
		for i := range updates {
			updates[i] = Update[int64]{Dst: VertexID(rng.Intn(dsts)), Val: int64(rng.Intn(100))}
		}
		checkCombineBuffer(t, baseRecs, trial%2 == 1, updates)
	}
}

// FuzzCombineBuffer runs the contract on fuzzer-built streams: three bytes
// per update (two of destination, one of value), any append buffer.
func FuzzCombineBuffer(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 0, 3}, uint8(1), false)
	f.Add([]byte{7, 0, 1, 9, 0, 5, 7, 0, 2, 0, 255, 4, 3, 255, 4, 0, 0, 9}, uint8(4), true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(2), false)
	f.Fuzz(func(t *testing.T, data []byte, baseRecs uint8, useMin bool) {
		updates := make([]Update[int64], 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			updates = append(updates, Update[int64]{Dst: VertexID(data[0]) | VertexID(data[1])<<8, Val: int64(data[2])})
		}
		checkCombineBuffer(t, int(baseRecs), useMin, updates)
	})
}

// int64Sum declares CombineSum over int64, a value type with no specialised
// loops, and counts its Combine calls.
type int64Sum struct{ calls *int }

func (int64Sum) Name() string                           { return "int64-sum" }
func (int64Sum) Init(VertexID, *int64)                  {}
func (int64Sum) Scatter(e Edge, _ *int64) (int64, bool) { return int64(e.Src), true }
func (int64Sum) Gather(_ VertexID, v *int64, m int64)   { *v += m }
func (p int64Sum) Combine(a, b int64) int64             { *p.calls++; return a + b }
func (int64Sum) CombineOp() CombineOp                   { return CombineSum }

// TestCombineOpWithoutLoopsRunsFunc: a program that declares an op over a
// value type with no specialised loops resolves to the op, and a combining
// buffer built from that resolution merges through its Combine, emitting
// exactly what a buffer that knows no op does.
func TestCombineOpWithoutLoopsRunsFunc(t *testing.T) {
	calls := 0
	prog := int64Sum{&calls}
	combine, op := Combining[int64, int64](prog, false)
	if combine == nil || op != CombineSum {
		t.Fatalf("Combining resolved combine %v, op %d", combine != nil, op)
	}
	if c, o := Combining[int64, int64](prog, true); c != nil || o != 0 {
		t.Fatal("NoCombine still resolved a merge")
	}
	rng := rand.New(rand.NewSource(7))
	updates := make([]Update[int64], 5000)
	for i := range updates {
		updates[i] = Update[int64]{Dst: VertexID(rng.Intn(64)), Val: rng.Int63()}
	}
	want := emissions(t, NewCombineBuffer(16, 64, func(a, b int64) int64 { return a + b }, 0), scatterBlock, updates)
	got := emissions(t, NewCombineBuffer(16, 64, combine, op), scatterBlock, updates)
	if !slices.Equal(got, want) || calls == 0 {
		t.Fatalf("op buffer emitted %d records through %d Combine calls, the func buffer %d", len(got), calls, len(want))
	}
}

// keepTransport accepts every batch and keeps its records.
type keepTransport[M any] struct {
	UpdateTransport[M]
	recs []Update[M]
}

func (t *keepTransport[M]) Send(_ int, batch []Update[M]) bool {
	t.recs = append(t.recs, batch...)
	return true
}

// TestCombineBufferDenseBoundary: a scatter kernel combines while
// nv·sizeof(M) fits denseCombineBytes — for a 4-byte and an 8-byte M, never
// over an unknown range — and one destination past it appends plainly:
// no combining buffer, every update sent, none combined. Job.MemoryEstimate
// follows the same rule: at the bound it charges each kernel's accumulator
// and windows of min(E, K·|V|) records, past it no accumulator and windows
// of E records.
func TestCombineBufferDenseBoundary(t *testing.T) {
	at32, at64 := int64(denseCombineBytes/4), int64(denseCombineBytes/8)
	if !DenseCombines[float32](at32) || DenseCombines[float32](at32+1) || !DenseCombines[int64](at64) || DenseCombines[int64](at64+1) || DenseCombines[int64](0) {
		t.Fatal("DenseCombines does not follow nv·sizeof(M) ≤ denseCombineBytes")
	}
	sum64 := func(a, b int64) int64 { return a + b }
	verts := make([]int64, 4)
	var edges []Edge
	for i := 0; i < 12; i++ {
		edges = append(edges, Edge{Src: VertexID(i % 4), Dst: []VertexID{0, 5, VertexID(at64 - 1)}[i%3]})
	}
	for _, c := range []struct {
		nv       int64
		combined int64
	}{{at64, 12 - 3}, {at64 + 1, 0}} {
		tp := new(keepTransport[int64])
		k := NewScatterKernel[int64, int64](int64Sum{new(int)}, tp, sum64, CombineSum, 4, c.nv)
		if (k.cb != nil) != (c.combined > 0) {
			t.Fatalf("nv %d: kernel holds a combining buffer: %v", c.nv, k.cb != nil)
		}
		k.Begin(0, NewSplit(c.nv, 1), verts, 0)
		if err := k.Edges(edges); err != nil {
			t.Fatal(err)
		}
		n, err := k.End()
		if err != nil || n.Sent != 12 || n.Combined != c.combined || int64(len(tp.recs)) != n.Sent-n.Combined {
			t.Fatalf("nv %d: counts %+v, %d records delivered, want %d combined: %v", c.nv, n, len(tp.recs), c.combined, err)
		}
	}
	comb := NewJob[int64, int64](int64Sum{new(int)})
	vb, ub := int64(comb.VertexBytes()), int64(comb.UpdateBytes())
	for _, c := range []struct {
		nv, window, acc int64
	}{{at64, at64, DenseCombineFootprint[int64](at64)}, {at64 + 1, 3 * (at64 + 1), 0}} {
		if got, want := comb.MemoryEstimate(c.nv, 3*c.nv, 2, 1), c.nv*vb+2*c.window*ub+c.nv/4+2*c.acc; got != want {
			t.Errorf("nv %d: estimate %d, want %d (windows of %d records, accumulators of %d bytes)", c.nv, got, want, c.window, c.acc)
		}
	}
	if DenseCombineFootprint[int64](at64) == 0 {
		t.Error("no accumulator charged at the bound")
	}
}

// TestMemoryEstimateCountsDenseAccumulators: DenseCombineFootprint is what
// a combining buffer over nv destinations allocates for its accumulator
// (nothing past the bound, where the kernel makes none), and a combining
// job's estimate holds one per scatter kernel, a job that does not combine
// none.
func TestMemoryEstimateCountsDenseAccumulators(t *testing.T) {
	sum64 := func(a, b int64) int64 { return a + b }
	comb, plain := NewJob[int64, int64](int64Sum{new(int)}), NewJob[int64, int64](int64Plain{})
	at64 := int64(denseCombineBytes / 8)
	for _, nv := range []int64{100, at64, at64 + 1} {
		held := int64(0)
		if nv <= at64 {
			cb := NewCombineBuffer(1, nv, sum64, 0)
			held = int64(cap(cb.acc))*8 + int64(cap(cb.seen))*8 + int64(cap(cb.touched))*4
		}
		if got := DenseCombineFootprint[int64](nv); got != held {
			t.Errorf("nv %d: footprint %d, the buffer holds %d", nv, got, held)
		}
		if got := comb.MemoryEstimate(nv, 10, 3, 0) - plain.MemoryEstimate(nv, 10, 3, 0); got != 3*held {
			t.Errorf("nv %d: 3 combining kernels add %d, want %d", nv, got, 3*held)
		}
		if got := plain.MemoryEstimate(nv, 10, 3, 0) - plain.MemoryEstimate(nv, 10, 1, 0); got != 0 {
			t.Errorf("nv %d: kernels that do not combine add %d", nv, got)
		}
	}
	if got, want := DenseCombineFootprint[int64](at64), at64*8+at64/8+at64/16; got != want {
		t.Errorf("footprint at the budget %d, want nv·8 + nv/8 + nv/16 = %d", got, want)
	}
}

// int64Plain is int64Sum without a Combiner.
type int64Plain struct{}

func (int64Plain) Name() string                           { return "int64-plain" }
func (int64Plain) Init(VertexID, *int64)                  {}
func (int64Plain) Scatter(e Edge, _ *int64) (int64, bool) { return int64(e.Src), true }
func (int64Plain) Gather(_ VertexID, v *int64, m int64)   { *v += m }
