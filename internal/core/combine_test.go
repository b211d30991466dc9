package core

import (
	"math"
	"math/rand"
	"testing"
)

// drainLog feeds updates through cb, draining whenever Add reports full and
// once at the end, and returns every drained batch in order.
func drainLog(cb *CombineBuffer[int64], updates []Update[int64]) [][]Update[int64] {
	var log [][]Update[int64]
	drain := func(recs []Update[int64]) {
		log = append(log, append([]Update[int64](nil), recs...))
	}
	for _, u := range updates {
		if cb.Add(u.Dst, u.Val) {
			cb.Drain(drain)
		}
	}
	cb.Drain(drain)
	return log
}

func sameBatches(a, b [][]Update[int64]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestCombineBufferResetEqualsFresh: a buffer allocated at the ceiling,
// dirtied by an earlier stream and Reset to a capacity is indistinguishable
// from NewCombineBuffer of that capacity — same drained batches in the same
// order, same Combined — over random update streams, capacities and
// destination ranges, including a Reset and a Drain that wrap the epoch.
func TestCombineBufferResetEqualsFresh(t *testing.T) {
	sum := func(a, b int64) int64 { return a + b }
	rng := rand.New(rand.NewSource(15))
	stream := func(n, dsts int) []Update[int64] {
		out := make([]Update[int64], n)
		for i := range out {
			out[i] = Update[int64]{Dst: VertexID(rng.Intn(dsts)), Val: int64(rng.Intn(100))}
		}
		return out
	}
	const ceiling = 16 * 64
	reused := NewCombineBuffer[int64](ceiling, sum)
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(ceiling)
		if trial%10 == 0 {
			capacity = ceiling
		}
		switch trial % 50 {
		case 7: // Reset itself wraps the epoch
			reused.epoch = math.MaxUint32
		case 8: // a Drain in the middle of the stream wraps it
			reused.epoch = math.MaxUint32 - 2
		}
		// Leave staged records and remembered slots behind on purpose: an
		// abandoned scatter must not leak into the next one.
		for _, u := range stream(rng.Intn(ceiling), 1+rng.Intn(4*ceiling)) {
			if reused.Add(u.Dst, u.Val) {
				reused.Drain(func([]Update[int64]) {})
			}
		}
		updates := stream(rng.Intn(8*capacity+1), 1+rng.Intn(4*capacity))

		reused.Reset(capacity)
		fresh := NewCombineBuffer[int64](capacity, sum)
		got, want := drainLog(reused, updates), drainLog(fresh, updates)
		if !sameBatches(got, want) {
			t.Fatalf("trial %d capacity %d: reset buffer drained %d batches that differ from a fresh buffer's %d",
				trial, capacity, len(got), len(want))
		}
		if reused.Combined != fresh.Combined {
			t.Fatalf("trial %d capacity %d: Combined %d after Reset, %d fresh", trial, capacity, reused.Combined, fresh.Combined)
		}
	}
}

// TestCombineBufferResetClampsToCeiling: a request above the allocation is
// served at the allocation's size rather than by growing.
func TestCombineBufferResetClampsToCeiling(t *testing.T) {
	cb := NewCombineBuffer[int64](8, func(a, b int64) int64 { return a + b })
	cb.Reset(1 << 20)
	full := false
	for i := 0; i < 8 && !full; i++ {
		full = cb.Add(VertexID(i), 1)
		if full && i != 7 {
			t.Fatalf("buffer full after %d records, ceiling is 8", i+1)
		}
	}
	if !full {
		t.Fatal("buffer grew past its allocation")
	}
}
