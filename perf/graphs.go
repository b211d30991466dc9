package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// sizes are the input dimensions of one -size setting. "full" is what
// BENCHMARK.json measures; "smoke" runs every code path in well under a
// second per workload for perf_test.go.
type sizes struct {
	name         string
	rmatScale    int // mem_pagerank, disk_pagerank: RMAT 2^scale vertices, edge factor 16
	cliques      int // disk_bfs_selective: CliqueChain(cliques, cliqueSize)
	cliqueSize   int
	webScale     int // serve_mix: directed RMAT
	socialScale  int // serve_mix: undirected RMAT
	bfsRoots     int // serve_mix: distinct bfs roots per dataset
	ssspRoots    int // serve_mix: distinct sssp roots per dataset
	textSample   int // edges of the graphio.ParseText sample
	ioUnit       int // disk engine I/O unit
	membenchMB   int // per-thread buffer of the STREAM-style read
	minReps      int // timed repetitions a batch run makes at least
	setupReps    int // set-up repetitions a run makes at least
	setupBudgetS float64
}

func sizesFor(name string) (sizes, error) {
	switch name {
	case "full":
		return sizes{name: name, rmatScale: 18, cliques: 2048, cliqueSize: 48, webScale: 15, socialScale: 14,
			bfsRoots: 10, ssspRoots: 6, textSample: 1 << 20, ioUnit: 16 << 10, membenchMB: 64,
			minReps: 3, setupReps: 3, setupBudgetS: 3}, nil
	case "smoke":
		return sizes{name: name, rmatScale: 11, cliques: 48, cliqueSize: 12, webScale: 10, socialScale: 9,
			bfsRoots: 3, ssspRoots: 2, textSample: 1 << 12, ioUnit: 16 << 10, membenchMB: 1,
			minReps: 2, setupReps: 1, setupBudgetS: 0}, nil
	}
	return sizes{}, fmt.Errorf("unknown -size %q (full|smoke)", name)
}

// graph is a generated input held in memory: what set-up writes to the
// device or registers as a dataset, and what the references are computed
// from.
type graph struct {
	n        int64
	edges    []core.Edge
	checksum uint64
}

func (g *graph) source() core.EdgeSource { return core.NewSliceSource(g.edges, g.n) }

func materialize(src core.EdgeSource) (*graph, error) {
	edges, err := core.Materialize(src)
	if err != nil {
		return nil, err
	}
	return &graph{n: src.NumVertices(), edges: edges, checksum: checksum(edges)}, nil
}

// checksum is FNV-1a over the edge records, to pin that a seed always
// makes the same graph.
func checksum(edges []core.Edge) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.Src))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.Dst))
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(e.Weight))
		h.Write(b[:])
	}
	return h.Sum64()
}

func genRMAT(scale int, seed int64, undirected bool) (*graph, error) {
	return materialize(graphgen.RMAT(graphgen.RMATScale(scale, seed, undirected)))
}

// genCliqueChain makes the high-diameter input of disk_bfs_selective. The
// seed sets the edge weights and which vertex of the first clique is the
// root, so every seed has the same iteration count within one.
func genCliqueChain(sz sizes, seed int64) (*graph, core.VertexID, error) {
	g, err := materialize(graphgen.CliqueChain(sz.cliques, sz.cliqueSize, seed))
	if err != nil {
		return nil, 0, err
	}
	root := core.VertexID(rand.New(rand.NewSource(seed)).Intn(sz.cliqueSize))
	return g, root, nil
}

// pickRoots draws count distinct vertices with at least one out-edge
// (sources of seeded random edges), so traversals from them do work.
func pickRoots(g *graph, rng *rand.Rand, count int) []core.VertexID {
	seen := map[core.VertexID]bool{}
	var roots []core.VertexID
	for len(roots) < count && len(seen) < int(g.n) {
		v := g.edges[rng.Intn(len(g.edges))].Src
		if !seen[v] {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	return roots
}
