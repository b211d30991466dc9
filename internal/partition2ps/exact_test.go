package partition2ps

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/graphio"
	"repro/internal/storage"
)

// referenceAssign is Assign as a plain streaming clusterer: every edge of
// every pass goes through observe, with no settled-edge check and no
// flattening between passes. Assign must produce its relabeling exactly.
func referenceAssign(p *Partitioner, src core.EdgeSource, k int) (*core.Assignment, error) {
	n := src.NumVertices()
	split := core.NewSplit(n, k)
	c, err := p.newClustering(src, split)
	if err != nil {
		return nil, err
	}
	passes := p.passes
	if passes <= 0 {
		passes = clusteringPasses
	}
	for pass := 0; pass < passes; pass++ {
		err := src.Edges(func(batch []core.Edge) error {
			for _, e := range batch {
				c.observe(e.Src, e.Dst)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	relabel, inverse := pack(c, split, n)
	return &core.Assignment{Split: split, Relabel: relabel, Inverse: inverse}, nil
}

// exactGraph is the seed's graph for TestAssignMatchesReference: one of
// an R-MAT, a clique chain in shuffled edge order, a forest of stars, or
// a sparse random graph, each with some self-loops and duplicate edges
// mixed in at random positions.
func exactGraph(seed int64) (string, core.EdgeSource) {
	rng := rand.New(rand.NewSource(seed))
	var edges []core.Edge
	var n int64
	var name string
	switch seed % 4 {
	case 0:
		scale := 6 + rng.Intn(5)
		src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 4 + rng.Intn(12), Seed: seed, Undirected: rng.Intn(2) == 0})
		edges, _ = core.Materialize(src)
		n, name = src.NumVertices(), fmt.Sprintf("rmat%d", scale)
	case 1:
		cliques, size := 4+rng.Intn(40), 3+rng.Intn(14)
		src := graphgen.CliqueChain(cliques, size, seed)
		edges, _ = core.Materialize(src)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		n, name = src.NumVertices(), fmt.Sprintf("chain%dx%d-shuffled", cliques, size)
	case 2:
		stars, leaves := 1+rng.Intn(6), 5+rng.Intn(200)
		n = int64(stars * (leaves + 1))
		for s := 0; s < stars; s++ {
			hub := core.VertexID(s * (leaves + 1))
			for l := 1; l <= leaves; l++ {
				leaf := hub + core.VertexID(l)
				if rng.Intn(2) == 0 {
					edges = append(edges, core.Edge{Src: hub, Dst: leaf})
				} else {
					edges = append(edges, core.Edge{Src: leaf, Dst: hub})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		name = fmt.Sprintf("stars%dx%d", stars, leaves)
	default:
		n = int64(50 + rng.Intn(2000))
		m := int(n) * (1 + rng.Intn(6))
		for i := 0; i < m; i++ {
			edges = append(edges, core.Edge{Src: core.VertexID(rng.Int63n(n)), Dst: core.VertexID(rng.Int63n(n))})
		}
		name = fmt.Sprintf("uniform%d", n)
	}
	extra := len(edges)/8 + 1
	for i := 0; i < extra; i++ {
		var e core.Edge
		if rng.Intn(2) == 0 {
			v := core.VertexID(rng.Int63n(n))
			e = core.Edge{Src: v, Dst: v}
		} else {
			e = edges[rng.Intn(len(edges))]
		}
		at := rng.Intn(len(edges) + 1)
		edges = append(edges, core.Edge{})
		copy(edges[at+1:], edges[at:])
		edges[at] = e
	}
	return name, core.NewSliceSource(edges, n)
}

// TestAssignMatchesReference holds Assign's settled-edge check and the
// flattening between passes to exactness: over 60 seeded graphs, K from 2
// to 64 and one to three passes at tight, default and loose caps, the
// relabeling equals the reference clusterer's entry for entry.
func TestAssignMatchesReference(t *testing.T) {
	ks := []int{2, 3, 4, 7, 8, 16, 31, 64}
	policies := []*Partitioner{New(), {capFactor: 0.25, passes: 1}, {capFactor: 4, passes: 3}, {capFactor: 0.5, passes: 3}}
	for seed := int64(0); seed < 60; seed++ {
		name, src := exactGraph(seed)
		k := ks[seed%int64(len(ks))]
		for pi, p := range policies {
			got, err := p.Assign(src, k)
			if err != nil {
				t.Fatalf("seed %d %s k=%d policy %d: %v", seed, name, k, pi, err)
			}
			want, err := referenceAssign(p, src, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Relabel) != len(want.Relabel) {
				t.Fatalf("seed %d %s k=%d policy %d: %d relabeled IDs, want %d", seed, name, k, pi, len(got.Relabel), len(want.Relabel))
			}
			for v := range want.Relabel {
				if got.Relabel[v] != want.Relabel[v] {
					t.Fatalf("seed %d %s k=%d policy %d: vertex %d relabeled %d, reference %d", seed, name, k, pi, v, got.Relabel[v], want.Relabel[v])
				}
			}
		}
	}
}

// BenchmarkAssign times Assign at K 8 on the clique chain of the
// selective-BFS benchmark (2 048 cliques of 48, 4.62 M records) and on
// RMAT-16, each read from a binary edge file on the RAM-backed simulated
// SSD pair, so the figure includes the four reads of the input.
func BenchmarkAssign(b *testing.B) {
	for _, tc := range []struct {
		name string
		src  core.EdgeSource
	}{
		{"chain2048x48", graphgen.CliqueChain(2048, 48, 7)},
		{"rmat16", graphgen.RMAT(graphgen.RMATConfig{Scale: 16, EdgeFactor: 16, Seed: 1})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dev := storage.NewSim(storage.SSDParams("b", 2, 0))
			if err := graphio.WriteEdges(dev, "g.xsedge", tc.src); err != nil {
				b.Fatal(err)
			}
			src, err := graphio.OpenEdges(dev, "g.xsedge")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := New().Assign(src, 8); err != nil {
					b.Fatal(err)
				}
			}
			per := time.Since(start) / time.Duration(b.N)
			b.ReportMetric(float64(per)/1e6, "ms/op")
			b.ReportMetric(float64(per)/float64(src.NumEdges()), "ns/edge")
		})
	}
}
