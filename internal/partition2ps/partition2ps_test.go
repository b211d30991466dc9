package partition2ps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// partitioners under test: every implementation must satisfy the same
// Assignment invariants, whatever its policy.
func partitioners() map[string]core.Partitioner {
	return map[string]core.Partitioner{
		"range":     core.RangePartitioner{},
		"2ps":       New(),
		"2ps-tight": &Partitioner{capFactor: 0.25, passes: 1},
		"2ps-loose": &Partitioner{capFactor: 4, passes: 3},
	}
}

// TestAssignmentInvariants property-checks every Partitioner over random
// R-MAT graphs: the assignment is total (the relabeling is a permutation),
// partitions stay contiguous equal ranges after relabeling, every
// partition holds at most ceil(n/k) vertices, and relabel∘inverse is the
// identity in both directions.
func TestAssignmentInvariants(t *testing.T) {
	for name, p := range partitioners() {
		for _, scale := range []int{4, 7, 10} {
			for _, seed := range []int64{1, 99} {
				src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: seed})
				n := src.NumVertices()
				for _, k := range []int{1, 2, 4, 7, 8, 64, int(2 * n)} {
					asg, err := p.Assign(src, k)
					if err != nil {
						t.Fatalf("%s scale=%d k=%d: %v", name, scale, k, err)
					}
					checkInvariants(t, name, asg, n, k)
				}
			}
		}
	}
}

func checkInvariants(t *testing.T, name string, asg *core.Assignment, n int64, k int) {
	t.Helper()
	// Validate proves totality (permutation of [0,n)), the contiguous
	// equal split, and one direction of the inverse identity.
	if err := asg.Validate(n); err != nil {
		t.Fatalf("%s n=%d k=%d: %v", name, n, k, err)
	}
	if !asg.Identity() {
		// The other direction of the identity.
		for nw := range asg.Inverse {
			if asg.Relabel[asg.Inverse[nw]] != core.VertexID(nw) {
				t.Fatalf("%s n=%d k=%d: relabel[inverse[%d]] != %d", name, n, k, nw, nw)
			}
		}
	}
	// Balance within cap: partition i owns exactly the new IDs in
	// Range(i), which by the split is at most ceil(n/k) vertices; check
	// the per-original-vertex view agrees.
	counts := make([]int64, asg.Split.K)
	for v := int64(0); v < n; v++ {
		pid := asg.Of(core.VertexID(v))
		if int(pid) >= asg.Split.K {
			t.Fatalf("%s n=%d k=%d: vertex %d in partition %d of %d", name, n, k, v, pid, asg.Split.K)
		}
		counts[pid]++
	}
	cap := asg.Split.PerPartition()
	var total int64
	for pid, c := range counts {
		if c > cap {
			t.Fatalf("%s n=%d k=%d: partition %d holds %d vertices, cap %d", name, n, k, pid, c, cap)
		}
		lo, hi := asg.Split.Range(pid, n)
		if c != hi-lo {
			t.Fatalf("%s n=%d k=%d: partition %d holds %d vertices, range is [%d,%d)", name, n, k, pid, c, lo, hi)
		}
		total += c
	}
	if total != n {
		t.Fatalf("%s n=%d k=%d: assignment covers %d of %d vertices", name, n, k, total, n)
	}
}

// TestDeterminism: Assign must be a pure function of (source, k) — two
// fresh partitioner values over the same stream produce identical
// permutations.
func TestDeterminism(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 5, Undirected: true})
	a, err := New().Assign(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().Assign(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Relabel) != len(b.Relabel) {
		t.Fatalf("permutation lengths differ: %d vs %d", len(a.Relabel), len(b.Relabel))
	}
	for v := range a.Relabel {
		if a.Relabel[v] != b.Relabel[v] {
			t.Fatalf("non-deterministic at vertex %d: %d vs %d", v, a.Relabel[v], b.Relabel[v])
		}
	}
	if New().Name() != "2ps" {
		t.Fatalf("partitioner name %q, want 2ps", New().Name())
	}
}

// TestLocalityImprovement: on a scale-free graph whose vertex IDs carry no
// locality (random permutation of an R-MAT), clustering must beat the raw
// range split on cross-partition edge fraction.
func TestLocalityImprovement(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 12, EdgeFactor: 16, Seed: 3})
	const k = 16
	rangeAsg, err := core.RangePartitioner{}.Assign(src, k)
	if err != nil {
		t.Fatal(err)
	}
	twopsAsg, err := New().Assign(src, k)
	if err != nil {
		t.Fatal(err)
	}
	rangeCross, err := rangeAsg.CrossEdgeFraction(src)
	if err != nil {
		t.Fatal(err)
	}
	twopsCross, err := twopsAsg.CrossEdgeFraction(src)
	if err != nil {
		t.Fatal(err)
	}
	if twopsCross >= rangeCross {
		t.Fatalf("2PS cross fraction %.3f not below range %.3f", twopsCross, rangeCross)
	}
	t.Logf("cross-partition edges: range %.1f%%, 2ps %.1f%%", 100*rangeCross, 100*twopsCross)
}

// TestIsolatedVertices: vertices that appear on no edge must still be
// assigned exactly once.
func TestIsolatedVertices(t *testing.T) {
	edges := []core.Edge{{Src: 0, Dst: 2}, {Src: 2, Dst: 4}, {Src: 4, Dst: 0}}
	src := core.NewSliceSource(edges, 100) // 95 isolated vertices
	asg, err := New().Assign(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, "2ps", asg, 100, 8)
}

// TestSingletonAndEmpty: degenerate shapes must not panic or violate
// invariants.
func TestSingletonAndEmpty(t *testing.T) {
	empty := core.NewSliceSource(nil, 0)
	if asg, err := New().Assign(empty, 4); err != nil || !asg.Identity() {
		t.Fatalf("empty graph: asg=%+v err=%v", asg, err)
	}
	one := core.NewSliceSource([]core.Edge{{Src: 0, Dst: 0}}, 1)
	asg, err := New().Assign(one, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, "2ps", asg, 1, 4)
}

// TestBadEdgeRejected: an edge referencing a vertex outside the declared
// count must surface as an error, not a panic.
func TestBadEdgeRejected(t *testing.T) {
	src := core.NewSliceSource([]core.Edge{{Src: 5, Dst: 6}}, 2)
	if _, err := New().Assign(src, 2); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}
