package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
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

// TestStatsStringSplitsTime: the summary line splits TotalTime into
// pre-processing and iterations, and names the device bytes read and
// written only when there were any.
func TestStatsStringSplitsTime(t *testing.T) {
	s := Stats{Algorithm: "bfs", Engine: "disk", TotalTime: 2 * time.Second, PreprocessTime: 500 * time.Millisecond,
		BytesRead: 3 << 20, BytesWritten: 1 << 10}
	for _, want := range []string{"2s total = 500ms preprocess + 1.5s iterate (", ", 3.0MiB read, 1.0KiB written"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String() = %q, want it to contain %q", s.String(), want)
		}
	}
	s.BytesRead = 0
	if want := ", 0B read, 1.0KiB written"; !strings.Contains(s.String(), want) {
		t.Errorf("String() = %q, want it to contain %q", s.String(), want)
	}
	s.BytesWritten = 0
	if strings.Contains(s.String(), "written") {
		t.Errorf("String() = %q names bytes when none moved", s.String())
	}
}

// TestCombineBuffer: an update to a present destination merges into its
// value and Add emits nothing; Sweep emits one record per destination, the
// bitmap words in first-touch order and each word's destinations ascending,
// and forgets them; a buffer dirtied and then Reset emits like a fresh one.
func TestCombineBuffer(t *testing.T) {
	sum := func(a, b int64) int64 { return a + b }
	stream := []Update[int64]{{Dst: 70, Val: 1}, {Dst: 3, Val: 2}, {Dst: 70, Val: 4}, {Dst: 65, Val: 8}, {Dst: 1, Val: 16}, {Dst: 3, Val: 32}}
	want := []Update[int64]{{Dst: 65, Val: 8}, {Dst: 70, Val: 5}, {Dst: 1, Val: 16}, {Dst: 3, Val: 34}}
	cb := NewCombineBuffer[int64](2, 128, sum, 0)
	var got []Update[int64]
	take := func(recs []Update[int64]) { got = append(got, recs...) }
	cb.Add(stream)
	if cb.Combined != 2 || len(cb.out) != 0 {
		t.Fatalf("after Add: combined %d, %d records emitted", cb.Combined, len(cb.out))
	}
	cb.Sweep(take)
	if !slices.Equal(got, want) {
		t.Fatalf("swept %v, want %v", got, want)
	}
	if cb.Sweep(take); len(got) != len(want) {
		t.Fatalf("a second sweep emitted %d more records", len(got)-len(want))
	}
	cb.Add([]Update[int64]{{Dst: 127, Val: 9}, {Dst: 3, Val: 100}, {Dst: 3, Val: 1}})
	cb.Reset()
	got = got[:0]
	if cb.Add(stream); cb.Combined != 2 {
		t.Fatalf("a dirtied buffer Reset combined %d, a fresh one 2", cb.Combined)
	}
	if cb.Sweep(take); !slices.Equal(got, want) {
		t.Fatalf("a dirtied buffer Reset swept %v, a fresh one %v", got, want)
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
