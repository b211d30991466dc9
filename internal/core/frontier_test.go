package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestFrontierAgainstReference drives a Frontier and a reference map with
// the same random mark sequence and checks every read-side method against
// the naive answer.
func TestFrontierAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := int64(rng.Intn(500) + 1)
		f := NewFrontier(n)
		ref := make([]bool, n)
		for marks := rng.Intn(200); marks > 0; marks-- {
			v := VertexID(rng.Int63n(n))
			f.Mark(v)
			ref[v] = true
		}

		if f.Len() != n {
			t.Fatalf("Len = %d, want %d", f.Len(), n)
		}
		var want int64
		for v := int64(0); v < n; v++ {
			if f.Active(VertexID(v)) != ref[v] {
				t.Fatalf("n=%d: Active(%d) = %v, want %v", n, v, f.Active(VertexID(v)), ref[v])
			}
			if ref[v] {
				want++
			}
		}
		if got := f.Count(); got != want {
			t.Fatalf("n=%d: Count = %d, want %d", n, got, want)
		}

		for q := 0; q < 50; q++ {
			lo := rng.Int63n(n + 1)
			hi := rng.Int63n(n + 1)
			var cnt int64
			for v := lo; v < hi && v < n; v++ {
				if ref[v] {
					cnt++
				}
			}
			if got := f.CountRange(lo, hi); got != cnt {
				t.Fatalf("n=%d: CountRange(%d,%d) = %d, want %d", n, lo, hi, got, cnt)
			}
			if got := f.AnyInRange(lo, hi); got != (cnt > 0) {
				t.Fatalf("n=%d: AnyInRange(%d,%d) = %v, want %v", n, lo, hi, got, cnt > 0)
			}
		}

		// Per-partition counts match per-range counts for any power-of-two K.
		k := 1 << rng.Intn(5)
		split := NewSplit(n, k)
		counts := f.CountByPartition(split, nil)
		if len(counts) != k {
			t.Fatalf("CountByPartition returned %d entries, want %d", len(counts), k)
		}
		// Recounting into the same storage reuses it.
		if again := f.CountByPartition(split, counts); &again[0] != &counts[0] {
			t.Fatal("CountByPartition did not reuse a large enough dst")
		}
		var total int64
		for p, c := range counts {
			lo, hi := split.Range(p, n)
			if want := f.CountRange(lo, hi); c != want {
				t.Fatalf("partition %d: count %d, want %d", p, c, want)
			}
			total += c
		}
		if total != want {
			t.Fatalf("partition counts sum to %d, want %d", total, want)
		}
	}
}

// TestFrontierClearMarkAll checks the bulk transitions, including the tail
// word of a non-multiple-of-64 vertex count.
func TestFrontierClearMarkAll(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, 100, 128, 1000} {
		f := NewFrontier(n)
		f.MarkAll()
		if got := f.Count(); got != n {
			t.Fatalf("n=%d: MarkAll then Count = %d", n, got)
		}
		if f.AnyInRange(n, n+100) {
			t.Fatalf("n=%d: active vertices past Len", n)
		}
		f.Clear()
		if got := f.Count(); got != 0 {
			t.Fatalf("n=%d: Clear then Count = %d", n, got)
		}
		if f.AnyInRange(0, n) {
			t.Fatalf("n=%d: AnyInRange true after Clear", n)
		}
	}
}

// TestFrontierConcurrentMark marks from many goroutines — the gather-phase
// access pattern — and checks no mark is lost (run under -race in CI).
func TestFrontierConcurrentMark(t *testing.T) {
	const n = 10000
	f := NewFrontier(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := w; v < n; v += 8 {
				f.Mark(VertexID(v))
				// Overlapping marks with a neighbor stripe: Or must not lose
				// bits set by another goroutine in the same word.
				f.Mark(VertexID((v + 1) % n))
			}
		}(w)
	}
	wg.Wait()
	if got := f.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
}

func TestDegreeAwareBufRecs(t *testing.T) {
	cases := []struct {
		base         int
		edges, verts int64
		want         int
	}{
		{1024, 0, 0, 1024},            // empty partition: base
		{1024, 100, 100, 1024},        // avg degree 1: base
		{1024, 4096, 1024, 4096},      // avg degree 4: 4x base
		{1024, 1 << 30, 64, 16384},    // dense: clamped at 16x base
		{1024, 2000, 1, 2000},         // never beyond the partition's edges
		{0, 10, 10, 1},                // degenerate base
		{1024, 512, 1024, 1024},       // fewer edges than base: floor at base
		{8, 1 << 40, 1 << 20, 8 * 16}, // huge counts do not overflow
	}
	for _, c := range cases {
		if got := DegreeAwareBufRecs(c.base, c.edges, c.verts); got != c.want {
			t.Errorf("DegreeAwareBufRecs(%d, %d, %d) = %d, want %d", c.base, c.edges, c.verts, got, c.want)
		}
	}
}
