package core

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSliceSourceInfersVertices(t *testing.T) {
	src := NewSliceSource([]Edge{{0, 5, 1}, {3, 2, 1}}, 0)
	if src.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", src.NumVertices())
	}
	if src.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", src.NumEdges())
	}
}

func TestSliceSourceRestreamable(t *testing.T) {
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}
	src := NewSliceSource(edges, 3)
	for pass := 0; pass < 3; pass++ {
		var n int
		if err := src.Edges(func(b []Edge) error { n += len(b); return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("pass %d streamed %d edges", pass, n)
		}
	}
}

func TestReverse(t *testing.T) {
	src := NewSliceSource([]Edge{{0, 1, 0.5}, {2, 3, 0.25}}, 4)
	rev, err := Materialize(Reverse(src))
	if err != nil {
		t.Fatal(err)
	}
	if rev[0] != (Edge{1, 0, 0.5}) || rev[1] != (Edge{3, 2, 0.25}) {
		t.Fatalf("reverse = %+v", rev)
	}
	if Reverse(src).NumVertices() != 4 {
		t.Fatal("reverse vertex count")
	}
}

func TestPartitionerRanges(t *testing.T) {
	const n, k = 103, 8
	p := NewSplit(n, k)
	covered := 0
	for i := 0; i < k; i++ {
		lo, hi := p.Range(i, n)
		covered += int(hi - lo)
		for v := lo; v < hi; v++ {
			if got := p.Of(VertexID(v)); got != uint32(i) {
				t.Fatalf("vertex %d in partition %d, want %d", v, got, i)
			}
		}
	}
	if covered != n {
		t.Fatalf("ranges cover %d vertices, want %d", covered, n)
	}
}

func TestPartitionerProperty(t *testing.T) {
	f := func(nRaw uint32, kRaw uint8) bool {
		n := int64(nRaw%1_000_000) + 1
		k := int(kRaw%64) + 1
		p := NewSplit(n, k)
		// Every vertex maps into [0, K); ranges are disjoint and ordered.
		for _, v := range []int64{0, n / 2, n - 1} {
			pid := p.Of(VertexID(v))
			if int(pid) >= p.K {
				return false
			}
			lo, hi := p.Range(int(pid), n)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMemPartitions(t *testing.T) {
	// 1M vertices with a 24-byte footprint in a 2MB cache => 24MB/2MB =
	// 12 -> 16 partitions.
	if got := MemPartitions(1<<20, 24, 2<<20); got != 16 {
		t.Fatalf("MemPartitions = %d, want 16", got)
	}
	// Everything fits in cache -> 1 partition.
	if got := MemPartitions(100, 24, 2<<20); got != 1 {
		t.Fatalf("small graph MemPartitions = %d, want 1", got)
	}
	// Power-of-two invariant.
	for n := int64(1); n < 1e7; n *= 3 {
		k := MemPartitions(n, 24, 1<<20)
		if k&(k-1) != 0 {
			t.Fatalf("MemPartitions(%d) = %d not a power of two", n, k)
		}
	}
}

func TestMemFanout(t *testing.T) {
	if got := MemFanout(2<<20, 64); got != 32768 {
		t.Fatalf("fanout = %d, want 32768 (2MB/64B cache lines)", got)
	}
	if got := MemFanout(64, 64); got != 2 {
		t.Fatalf("degenerate fanout = %d, want 2", got)
	}
	if f := MemFanout(3000, 64); f&(f-1) != 0 {
		t.Fatalf("fanout %d not a power of two", f)
	}
}

func TestDiskPartitionsInequality(t *testing.T) {
	// §3.4's worked example: N = 1 TB of vertex data, S = 16 MB => the
	// minimum memory is 2*sqrt(5NS) ≈ 17 GB with under 120 partitions.
	n := int64(1) << 40
	s := 16 << 20
	k, err := DiskPartitions(n, s, 18<<30)
	if err != nil {
		t.Fatal(err)
	}
	if k > 120 {
		t.Fatalf("K = %d, paper says under 120", k)
	}
	// Inequality must hold for the returned K.
	if lhs := n/int64(k) + 5*int64(s)*int64(k); lhs > 18<<30 {
		t.Fatalf("inequality violated: %d > %d", lhs, 18<<30)
	}
	// An impossible budget errors.
	if _, err := DiskPartitions(n, s, 1<<30); err == nil {
		t.Fatal("expected error for tiny budget")
	}
}

func TestDiskPartitionsProperty(t *testing.T) {
	f := func(nRaw uint32, budgetRaw uint32) bool {
		n := int64(nRaw) + 1
		s := 1 << 20
		budget := int64(budgetRaw)%(1<<30) + 64<<20
		k, err := DiskPartitions(n, s, budget)
		if err != nil {
			// Must genuinely be infeasible at the optimum.
			kstar := int64(1)
			for need(n, s, kstar+1) < need(n, s, kstar) {
				kstar++
			}
			return need(n, s, kstar) > budget
		}
		return k >= 1 && need(n, s, int64(k)) <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func need(n int64, s int, k int64) int64 { return (n+k-1)/k + 5*int64(s)*k }

func TestFootprint(t *testing.T) {
	if got := Footprint(8, 8); got != 28 {
		t.Fatalf("Footprint = %d, want 28", got)
	}
}

func TestStats(t *testing.T) {
	s := Stats{EdgesStreamed: 100, WastedEdges: 63, TotalTime: 2e9, BytesStreamed: 1e9}
	if got := s.WastedFraction(); got != 0.63 {
		t.Fatalf("wasted = %v", got)
	}
	// 1 GB at 1 GB/s = 1 s streaming; ratio = 2.
	if got := s.Ratio(1e9); got < 1.99 || got > 2.01 {
		t.Fatalf("ratio = %v", got)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

// TestCombineBuffer: an update merges into its resident destination, one
// that maps to a taken slot evicts the resident to the append buffer, and a
// sweep emits what is left and forgets it.
func TestCombineBuffer(t *testing.T) {
	cb := NewCombineBuffer[int64](4, func(a, b int64) int64 { return a + b })
	cb.Reset(0) // the minimum, two slots
	slot := func(dst VertexID) uint32 { return uint32(dst) * combineHash >> 31 }
	a, b := VertexID(7), VertexID(8)
	for slot(b) != slot(a) {
		b++
	}
	var got []Update[int64]
	take := func(recs []Update[int64]) { got = append(got, recs...) }
	cb.Add([]Update[int64]{{Dst: a, Val: 1}, {Dst: a, Val: 2}}, take) // the second merges
	if cb.Combined != 1 || len(cb.out) != 0 {
		t.Fatalf("after a hit: combined %d, %d evicted", cb.Combined, len(cb.out))
	}
	cb.Add([]Update[int64]{{Dst: b, Val: 5}}, take) // evicts a
	if len(cb.out) != 1 || cb.out[0] != (Update[int64]{Dst: a, Val: 3}) {
		t.Fatalf("evicted %v, want the combined record of %d", cb.out, a)
	}
	cb.Add([]Update[int64]{{Dst: a, Val: 10}}, take) // a left the cache: evicts b, does not resurrect 3
	cb.Sweep(take)
	want := []Update[int64]{{Dst: a, Val: 3}, {Dst: b, Val: 5}, {Dst: a, Val: 10}}
	if !slices.Equal(got, want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	cb.Sweep(take)
	if len(got) != 3 {
		t.Fatalf("a second sweep emitted %d more records", len(got)-3)
	}
}

// TestPermutationPartitioner: replaying a saved permutation reproduces the
// assignment, and bad permutations surface as errors.
func TestPermutationPartitioner(t *testing.T) {
	src := NewSliceSource([]Edge{{Src: 0, Dst: 3}, {Src: 1, Dst: 2}}, 4)
	perm := []VertexID{2, 3, 0, 1}
	p := NewPermutationPartitioner("saved", perm)
	if p.Name() != "saved" {
		t.Fatalf("name %q", p.Name())
	}
	asg, err := p.Assign(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := asg.Validate(4); err != nil {
		t.Fatal(err)
	}
	if asg.NewID(0) != 2 || asg.OldID(2) != 0 {
		t.Fatalf("translation broken: %v / %v", asg.NewID(0), asg.OldID(2))
	}
	// Identity replay.
	idp := NewPermutationPartitioner("", nil)
	asg, err = idp.Assign(src, 2)
	if err != nil || !asg.Identity() {
		t.Fatalf("identity replay: %v %v", asg, err)
	}
	// Wrong length errors.
	if _, err := NewPermutationPartitioner("x", []VertexID{0, 1}).Assign(src, 2); err == nil {
		t.Fatal("short permutation accepted")
	}
	// Out-of-range entry errors.
	if _, err := NewPermutationPartitioner("x", []VertexID{0, 1, 2, 9}).Assign(src, 2); err == nil {
		t.Fatal("out-of-range permutation accepted")
	}
}
