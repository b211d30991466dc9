package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pod"
	"repro/internal/streambuf"
)

// emissions feeds updates through cb (Reset to window first) in blocks of
// step, sweeping at the end, and returns every record emitted, in order. It
// fails the test when a block emits more records than it holds updates or a
// drained batch exceeds the append buffer.
func emissions[M any](t *testing.T, cb *CombineBuffer[M], window, step int, updates []Update[M]) []Update[M] {
	t.Helper()
	var log []Update[M]
	drain := func(recs []Update[M]) {
		if len(recs) > cap(cb.out) {
			t.Fatalf("drained %d records from an append buffer of %d", len(recs), cap(cb.out))
		}
		log = append(log, recs...)
	}
	cb.Reset(window)
	for i := 0; i < len(updates); i += step {
		before := len(log) + len(cb.out)
		blk := updates[i:min(i+step, len(updates))]
		cb.Add(blk, drain)
		if got := len(log) + len(cb.out) - before; got < 0 || got > len(blk) {
			t.Fatalf("Add of updates %d..%d emitted %d records", i, i+len(blk), got)
		}
	}
	cb.Sweep(drain)
	if len(cb.occupied) != 0 || len(cb.touched) != 0 || len(cb.out) != 0 {
		t.Fatalf("swept buffer still holds %d residents, %d touched words, %d evicted records", len(cb.occupied), len(cb.touched), len(cb.out))
	}
	for w, bits := range cb.seen {
		if bits != 0 {
			t.Fatalf("swept dense buffer still marks word %d: %#x", w, bits)
		}
	}
	return log
}

// denseStream maps a test stream's destinations into [0, nv), nv being one
// more than its largest two-byte destination, so a dense accumulator can
// take it; the edge keys land wherever the modulus puts them.
func denseStream(updates []Update[int64]) ([]Update[int64], int64) {
	nv := int64(1)
	for _, u := range updates {
		if u.Dst < 1<<16 {
			nv = max(nv, int64(u.Dst)+1)
		}
	}
	us := make([]Update[int64], len(updates))
	for i, u := range updates {
		us[i] = Update[int64]{Dst: VertexID(int64(u.Dst) % nv), Val: u.Val}
	}
	return us, nv
}

// denseOrder is the order a dense accumulator emits the destinations of
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
// stream, held by the cache and, with the stream's destinations mapped into
// [0, nv) (denseStream), by the dense accumulator: whatever the table size and
// eviction pattern, an update added emits at most one record; the
// per-destination combination of everything emitted equals that of
// everything added; Combined counts exactly the records merged away; and a
// buffer swept, or dirtied by an abandoned stream, and Reset, fed the stream
// in blocks, emits the same records in the same order as a fresh one fed one
// at a time;
// and every op loop emits what the func loop it replaces does (checkOpLoops).
// The dense accumulator emits each destination once, in denseOrder.
func checkCombineBuffer(t *testing.T, baseRecs, window int, useMin bool, updates []Update[int64]) {
	t.Helper()
	combine := func(a, b int64) int64 { return a + b }
	if useMin {
		combine = func(a, b int64) int64 { return min(a, b) }
	}
	fold := func(us []Update[int64]) map[VertexID]int64 {
		m := map[VertexID]int64{}
		for _, u := range us {
			if old, ok := m[u.Dst]; ok {
				m[u.Dst] = combine(old, u.Val)
			} else {
				m[u.Dst] = u.Val
			}
		}
		return m
	}
	for _, dense := range []bool{false, true} {
		us, nv := updates, int64(0)
		if dense {
			us, nv = denseStream(updates)
		}
		fresh := newCombineBuffer[int64](baseRecs, nv, dense, combine, 0)
		got := emissions(t, fresh, window, 1, us)
		if want := int64(len(us) - len(got)); fresh.Combined != want {
			t.Fatalf("dense %v: Combined = %d, added %d - emitted %d = %d", dense, fresh.Combined, len(us), len(got), want)
		}
		have, want := fold(got), fold(us)
		if len(have) != len(want) {
			t.Fatalf("dense %v: emitted %d destinations, added %d", dense, len(have), len(want))
		}
		for dst, w := range want {
			if have[dst] != w {
				t.Fatalf("dense %v: dst %d: emitted records combine to %d, added ones to %d", dense, dst, have[dst], w)
			}
		}
		if dense {
			order := denseOrder(us)
			if len(got) != len(order) {
				t.Fatalf("dense: emitted %d records for %d destinations", len(got), len(order))
			}
			for i, u := range got {
				if u.Dst != order[i] {
					t.Fatalf("dense: record %d went to %d, want %d (touched words first-touched first, ascending within)", i, u.Dst, order[i])
				}
			}
		}
		// A swept buffer is as good as fresh.
		if again := emissions(t, fresh, window, scatterBlock, us); !slices.Equal(again, got) {
			t.Fatalf("dense %v: a swept buffer fed the stream again emitted %d records that differ from its first %d", dense, len(again), len(got))
		}
		// Dirty a second buffer at its widest window and abandon it mid-stream.
		reused := newCombineBuffer[int64](baseRecs, nv, dense, combine, 0)
		reused.Add(us[:len(us)/2], func([]Update[int64]) {})
		if again := emissions(t, reused, window, 1+len(us)/3, us); !slices.Equal(again, got) {
			t.Fatalf("dense %v: a dirtied buffer Reset to window %d emitted %d records that differ from a fresh buffer's %d", dense, window, len(again), len(got))
		}
		if reused.Combined != fresh.Combined {
			t.Fatalf("dense %v: Combined %d after Reset, %d fresh", dense, reused.Combined, fresh.Combined)
		}
		checkOpLoops(t, baseRecs, window, nv, dense, us, f32Of)
		checkOpLoops(t, baseRecs, window, nv, dense, us, i32Of)
		checkOpLoops(t, baseRecs, window, nv, dense, us, vidOf)
	}
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
// replace, in one representation: one stream, its values turned into N by
// val, through a buffer merging by the op's func and through one merging by
// the op inline, emits bitwise the same records in the same order and counts
// the same Combined.
func checkOpLoops[N numeric](t *testing.T, baseRecs, window int, nv int64, dense bool, updates []Update[int64], val func(int64) N) {
	t.Helper()
	us := convert(updates, val)
	for _, op := range []CombineOp{CombineSum, CombineMin} {
		ref := newCombineBuffer(baseRecs, nv, dense, opFunc[N](op), 0)
		inline := newCombineBuffer(baseRecs, nv, dense, inlineOnly[N], op)
		want := emissions(t, ref, window, scatterBlock, us)
		got := emissions(t, inline, window, scatterBlock, us)
		if !bytes.Equal(pod.AsBytes(got), pod.AsBytes(want)) || inline.Combined != ref.Combined {
			t.Fatalf("dense %v, op %d over %T: the inline loop emitted %d records and combined %d, the func loop %d and %d",
				dense, op, *new(N), len(got), inline.Combined, len(want), ref.Combined)
		}
	}
}

// edgeKeys are the destinations an empty-slot encoding could get wrong.
var edgeKeys = []VertexID{0, 1, 2, 0xFFFFFFFF, 0xFFFFFFFE, 0x80000000, 0x7FFFFFFF}

// TestCombineBufferProperties runs the contract over seeded random streams at
// every table size from the minimum to the ceiling, with destination ranges
// from all-hits to all-misses and the edge keys mixed in (the cache's; the
// dense accumulator takes the stream mapped into its range).
func TestCombineBufferProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		baseRecs := 1 + rng.Intn(64)
		window := rng.Intn(MaxBufGrowth*baseRecs + 8)
		dsts := 1 + rng.Intn(8*(window+1))
		updates := make([]Update[int64], rng.Intn(8*(window+1)+1))
		for i := range updates {
			dst := VertexID(rng.Intn(dsts))
			if rng.Intn(16) == 0 {
				dst = edgeKeys[rng.Intn(len(edgeKeys))]
			}
			updates[i] = Update[int64]{Dst: dst, Val: int64(rng.Intn(100))}
		}
		checkCombineBuffer(t, baseRecs, window, trial%2 == 1, updates)
	}
}

// FuzzCombineBuffer runs the contract on fuzzer-built streams: three bytes
// per update (two of destination, the top values mapped to the edge keys, one
// of value), any append buffer and window.
func FuzzCombineBuffer(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 0, 3}, uint8(1), uint16(0), false)
	f.Add([]byte{7, 0, 1, 9, 0, 5, 7, 0, 2, 0, 255, 4, 3, 255, 4, 0, 0, 9}, uint8(4), uint16(4), true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(2), uint16(3), false)
	f.Fuzz(func(t *testing.T, data []byte, baseRecs uint8, window uint16, useMin bool) {
		updates := make([]Update[int64], 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			dst := VertexID(data[0]) | VertexID(data[1])<<8
			if data[1] == 255 {
				dst = edgeKeys[int(data[0])%len(edgeKeys)]
			}
			updates = append(updates, Update[int64]{Dst: dst, Val: int64(data[2])})
		}
		checkCombineBuffer(t, int(baseRecs), int(window), useMin, updates)
	})
}

// TestCombineBufferEmptySlotEncoding: an empty slot is told from a resident
// by the key it holds, so the keys that encoding uses (0 and 1) and the
// all-ones VertexID must behave like any other destination at every table
// size — installed on first sight, never merged into an empty slot, emitted
// once with the combined value.
func TestCombineBufferEmptySlotEncoding(t *testing.T) {
	sum := func(a, b int64) int64 { return a + b }
	for _, window := range []int{0, 1, 2, 5, 64, MaxBufGrowth * 8} {
		cb := NewCombineBuffer[int64](8, 0, sum, 0)
		var updates []Update[int64]
		for round := int64(1); round <= 3; round++ {
			for _, k := range edgeKeys {
				updates = append(updates, Update[int64]{Dst: k, Val: round})
			}
		}
		got := map[VertexID]int64{}
		for _, u := range emissions(t, cb, window, 1, updates) {
			got[u.Dst] += u.Val
		}
		for _, k := range edgeKeys {
			if got[k] != 6 {
				t.Errorf("window %d: destination %#x combined to %d, want 6", window, uint32(k), got[k])
			}
		}
		if len(got) != len(edgeKeys) {
			t.Errorf("window %d: %d destinations emitted, %d added", window, len(got), len(edgeKeys))
		}
		for h := range cb.table {
			if e := cb.table[h]; e.Dst != emptyKey(uint32(h)) {
				t.Fatalf("window %d: slot %d holds %#x after a sweep", window, h, uint32(e.Dst))
			}
		}
	}
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
// value type with no specialised loops resolves to the op, and the cache and
// the dense accumulator built from that resolution merge through its Combine,
// emitting exactly what a buffer that knows no op does.
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
	for _, nv := range []int64{0, 64} { // the cache, then the dense accumulator
		calls = 0
		want := emissions(t, NewCombineBuffer(16, nv, func(a, b int64) int64 { return a + b }, 0), 64, scatterBlock, updates)
		got := emissions(t, NewCombineBuffer(16, nv, combine, op), 64, scatterBlock, updates)
		if !slices.Equal(got, want) || calls == 0 {
			t.Fatalf("nv %d: op buffer emitted %d records through %d Combine calls, the func buffer %d", nv, len(got), calls, len(want))
		}
	}
}

// TestCombineBufferDenseBoundary: the representation follows nv·sizeof(M)
// against denseCombineBytes — dense at the budget, the cache one destination
// past it or when the range is unknown — for a 4-byte and an 8-byte M, and
// the scatter kernel builds the buffer the rule selects.
func TestCombineBufferDenseBoundary(t *testing.T) {
	sum32 := func(a, b float32) float32 { return a + b }
	sum64 := func(a, b int64) int64 { return a + b }
	at32, at64 := int64(denseCombineBytes/4), int64(denseCombineBytes/8)
	for _, c := range []struct {
		name  string
		dense bool
		cb    interface{ isDense() bool }
	}{
		{"float32 at the budget", true, NewCombineBuffer(1, at32, sum32, CombineSum)},
		{"float32 past the budget", false, NewCombineBuffer(1, at32+1, sum32, CombineSum)},
		{"int64 at the budget", true, NewCombineBuffer(1, at64, sum64, 0)},
		{"int64 past the budget", false, NewCombineBuffer(1, at64+1, sum64, 0)},
		{"unknown range", false, NewCombineBuffer(1, 0, sum64, 0)},
		{"kernel at the budget", true, NewScatterKernel[int64, int64](int64Sum{new(int)}, nil, sum64, CombineSum, 1, at64).cb},
		{"kernel past the budget", false, NewScatterKernel[int64, int64](int64Sum{new(int)}, nil, sum64, CombineSum, 1, at64+1).cb},
	} {
		if got := c.cb.isDense(); got != c.dense {
			t.Errorf("%s: dense %v, want %v", c.name, got, c.dense)
		}
	}
}

// TestMemoryEstimateCountsDenseAccumulators: DenseCombineFootprint is what
// a combining buffer over nv destinations allocates for its dense
// accumulator (nothing past the budget), and a combining job's estimate
// holds one per scatter kernel, a job that does not combine none.
func TestMemoryEstimateCountsDenseAccumulators(t *testing.T) {
	sum64 := func(a, b int64) int64 { return a + b }
	comb, plain := NewJob[int64, int64](int64Sum{new(int)}), NewJob[int64, int64](int64Plain{})
	at64 := int64(denseCombineBytes / 8)
	for _, nv := range []int64{100, at64, at64 + 1} {
		cb := NewCombineBuffer(1, nv, sum64, 0)
		held := int64(cap(cb.acc))*8 + int64(cap(cb.seen))*8 + int64(cap(cb.touched))*4
		if got := DenseCombineFootprint[int64](nv); got != held {
			t.Errorf("nv %d: footprint %d, the buffer holds %d", nv, got, held)
		}
		if got := comb.MemoryEstimate(nv, 10, 3) - plain.MemoryEstimate(nv, 10, 3); got != 3*held {
			t.Errorf("nv %d: 3 combining kernels add %d, want %d", nv, got, 3*held)
		}
		if got := plain.MemoryEstimate(nv, 10, 3) - plain.MemoryEstimate(nv, 10, 1); got != 0 {
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

// isDense reports the representation, checking that the other one's tables
// were never allocated.
func (c *CombineBuffer[M]) isDense() bool {
	if (c.acc == nil) == (c.table == nil) {
		panic("a combining buffer holds both representations or neither")
	}
	return c.acc != nil
}

func collect[T any](b *streambuf.Buffer[T], p int) []T {
	var out []T
	b.Bucket(p, func(run []T) { out = append(out, run...) })
	return out
}
