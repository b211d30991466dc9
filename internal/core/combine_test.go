package core

import (
	"math/rand"
	"slices"
	"testing"
)

// emissions feeds updates through cb (Reset to window first) in blocks of
// step, sweeping at the end, and returns every record emitted, in order. It
// fails the test when a block emits more records than it holds updates or a
// drained batch exceeds the append buffer.
func emissions(t *testing.T, cb *CombineBuffer[int64], window, step int, updates []Update[int64]) []Update[int64] {
	t.Helper()
	var log []Update[int64]
	drain := func(recs []Update[int64]) {
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
	if len(cb.occupied) != 0 || len(cb.out) != 0 {
		t.Fatalf("swept buffer still holds %d residents, %d evicted records", len(cb.occupied), len(cb.out))
	}
	return log
}

// checkCombineBuffer is the cache's contract on one update stream: whatever
// the table size and eviction pattern, an update added emits at most one
// record; the per-destination combination of everything emitted equals that of
// everything added; Combined counts exactly the records merged away; and a
// buffer dirtied by an abandoned stream and Reset, fed the stream in blocks,
// emits the same records in the same order as a fresh one fed one at a time.
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
	fresh := NewCombineBuffer[int64](baseRecs, combine)
	got := emissions(t, fresh, window, 1, updates)
	if want := int64(len(updates) - len(got)); fresh.Combined != want {
		t.Fatalf("Combined = %d, added %d - emitted %d = %d", fresh.Combined, len(updates), len(got), want)
	}
	have, want := fold(got), fold(updates)
	if len(have) != len(want) {
		t.Fatalf("emitted %d destinations, added %d", len(have), len(want))
	}
	for dst, w := range want {
		if have[dst] != w {
			t.Fatalf("dst %d: emitted records combine to %d, added ones to %d", dst, have[dst], w)
		}
	}
	// Dirty a second buffer at its widest window and abandon it mid-stream.
	reused := NewCombineBuffer[int64](baseRecs, combine)
	reused.Add(updates[:len(updates)/2], func([]Update[int64]) {})
	if again := emissions(t, reused, window, 1+len(updates)/3, updates); !slices.Equal(again, got) {
		t.Fatalf("a dirtied buffer Reset to window %d emitted %d records that differ from a fresh buffer's %d", window, len(again), len(got))
	}
	if reused.Combined != fresh.Combined {
		t.Fatalf("Combined %d after Reset, %d fresh", reused.Combined, fresh.Combined)
	}
}

// edgeKeys are the destinations an empty-slot encoding could get wrong.
var edgeKeys = []VertexID{0, 1, 2, 0xFFFFFFFF, 0xFFFFFFFE, 0x80000000, 0x7FFFFFFF}

// TestCombineBufferProperties runs the contract over seeded random streams at
// every table size from the minimum to the ceiling, with destination ranges
// from all-hits to all-misses and the edge keys mixed in.
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
		cb := NewCombineBuffer[int64](8, sum)
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
