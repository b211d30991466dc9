package graphgen

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func materialize(t *testing.T, src core.EdgeSource) []core.Edge {
	t.Helper()
	edges, err := core.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

func TestRMATDeterministic(t *testing.T) {
	cfg := RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7}
	a := materialize(t, RMAT(cfg))
	b := materialize(t, RMAT(cfg))
	if len(a) != len(b) || len(a) != int(cfg.NumEdges()) {
		t.Fatalf("lens %d %d want %d", len(a), len(b), cfg.NumEdges())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pass divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRMATInRange(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		scale := int(scaleRaw%8) + 4
		cfg := RMATConfig{Scale: scale, EdgeFactor: 4, Seed: seed}
		src := RMAT(cfg)
		n := core.VertexID(cfg.NumVertices())
		ok := true
		count := int64(0)
		src.Edges(func(b []core.Edge) error {
			for _, e := range b {
				count++
				if e.Src >= n || e.Dst >= n || e.Weight < 0 || e.Weight >= 1 {
					ok = false
				}
			}
			return nil
		})
		return ok && count == cfg.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRMATUndirectedPairs(t *testing.T) {
	cfg := RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 3, Undirected: true}
	edges := materialize(t, RMAT(cfg))
	if len(edges)%2 != 0 {
		t.Fatal("odd number of records")
	}
	for i := 0; i < len(edges); i += 2 {
		fwd, bwd := edges[i], edges[i+1]
		if fwd.Src != bwd.Dst || fwd.Dst != bwd.Src || fwd.Weight != bwd.Weight {
			t.Fatalf("pair %d not mirrored: %+v %+v", i, fwd, bwd)
		}
	}
}

func TestRMATSkew(t *testing.T) {
	// Scale-free property: the max out-degree must far exceed the mean.
	cfg := RMATScale(12, 5, false)
	deg := make([]int, cfg.NumVertices())
	RMAT(cfg).Edges(func(b []core.Edge) error {
		for _, e := range b {
			deg[e.Src]++
		}
		return nil
	})
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 16*8 { // mean degree is 16; demand >=8x skew
		t.Fatalf("max degree %d too small for a scale-free graph", max)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5, 1)
	if g.NumVertices() != 20 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// 4*4 horizontal + 3*5 vertical = 31 undirected edges = 62 records.
	if g.NumEdges() != 62 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	edges := materialize(t, g)
	if int64(len(edges)) != g.NumEdges() {
		t.Fatalf("materialized %d", len(edges))
	}
	// Every edge connects lattice neighbours.
	for _, e := range edges {
		r1, c1 := int(e.Src)/5, int(e.Src)%5
		r2, c2 := int(e.Dst)/5, int(e.Dst)%5
		dr, dc := r1-r2, c1-c2
		if dr*dr+dc*dc != 1 {
			t.Fatalf("non-neighbour edge %+v", e)
		}
	}
}

func TestBipartite(t *testing.T) {
	const users, items, ratings = 50, 10, 200
	b := Bipartite(users, items, ratings, 9)
	if b.NumVertices() != users+items {
		t.Fatalf("vertices = %d", b.NumVertices())
	}
	edges := materialize(t, b)
	if len(edges) != 2*ratings {
		t.Fatalf("records = %d", len(edges))
	}
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i].Src, edges[i].Dst
		if int(u) >= users || int(v) < users || int(v) >= users+items {
			t.Fatalf("edge %d crosses sides wrong: %d->%d", i, u, v)
		}
		if edges[i+1].Src != v || edges[i+1].Dst != u {
			t.Fatalf("missing mirror at %d", i)
		}
		if edges[i].Weight < 0.19 || edges[i].Weight > 1.0 {
			t.Fatalf("rating weight %f out of range", edges[i].Weight)
		}
	}
}

func TestUniform(t *testing.T) {
	u := Uniform(100, 1001, 2, false)
	edges := materialize(t, u)
	if len(edges) != 1001 {
		t.Fatalf("len = %d", len(edges))
	}
	ud := Uniform(100, 1001, 2, true)
	if ud.NumEdges() != 1000 {
		t.Fatalf("undirected rounds to even, got %d", ud.NumEdges())
	}
}

func TestChain(t *testing.T) {
	c := Chain(5, 1)
	edges := materialize(t, c)
	if len(edges) != 8 {
		t.Fatalf("len = %d", len(edges))
	}
}

// refBFS computes hop distances with a plain queue — the reference the
// high-diameter generators' eccentricity claims are checked against.
func refBFS(n int64, edges []core.Edge, root core.VertexID) []int32 {
	adj := make([][]core.VertexID, n)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := []core.VertexID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func maxDist(dist []int32) int32 {
	var m int32
	for _, d := range dist {
		if d > m {
			m = d
		}
	}
	return m
}

// TestChainDiameter: the path graph's eccentricity from vertex 0 is
// exactly n-1 — the worst case for scatter-gather iteration counts.
func TestChainDiameter(t *testing.T) {
	const n = 257
	c := Chain(n, 3)
	edges := materialize(t, c)
	if int64(len(edges)) != c.NumEdges() || c.NumEdges() != 2*(n-1) {
		t.Fatalf("records = %d, declared %d", len(edges), c.NumEdges())
	}
	dist := refBFS(n, edges, 0)
	for v := int64(0); v < n; v++ {
		if dist[v] != int32(v) {
			t.Fatalf("vertex %d at distance %d", v, dist[v])
		}
	}
}

// TestGridDiameter: the rows×cols grid has eccentricity rows+cols-2 from a
// corner — the DIMACS-road stand-in's defining property.
func TestGridDiameter(t *testing.T) {
	const rows, cols = 13, 9
	g := Grid(rows, cols, 4)
	edges := materialize(t, g)
	dist := refBFS(g.NumVertices(), edges, 0)
	if got := maxDist(dist); got != rows+cols-2 {
		t.Fatalf("eccentricity %d, want %d", got, rows+cols-2)
	}
	for v, d := range dist {
		if d < 0 {
			t.Fatalf("vertex %d unreachable", v)
		}
		if want := int32(v/cols + v%cols); d != want {
			t.Fatalf("vertex %d at distance %d, want Manhattan %d", v, d, want)
		}
	}
}

// TestCliqueChain checks the frontier stress generator: counts, structure
// (edges stay inside a clique or bridge adjacent cliques), connectivity,
// high diameter (~2·cliques), and determinism.
func TestCliqueChain(t *testing.T) {
	const cliques, size = 20, 5
	c := CliqueChain(cliques, size, 7)
	if c.NumVertices() != cliques*size {
		t.Fatalf("vertices = %d", c.NumVertices())
	}
	wantEdges := int64(cliques*size*(size-1) + 2*(cliques-1))
	if c.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", c.NumEdges(), wantEdges)
	}
	edges := materialize(t, c)
	if int64(len(edges)) != wantEdges {
		t.Fatalf("materialized %d records, declared %d", len(edges), wantEdges)
	}

	intra, bridges := 0, 0
	for _, e := range edges {
		qs, qd := int(e.Src)/size, int(e.Dst)/size
		switch {
		case qs == qd:
			intra++
		case qd == qs+1:
			// Forward bridge: last vertex of qs to first of qd.
			if int(e.Src)%size != size-1 || int(e.Dst)%size != 0 {
				t.Fatalf("malformed bridge %+v", e)
			}
			bridges++
		case qd == qs-1:
			if int(e.Dst)%size != size-1 || int(e.Src)%size != 0 {
				t.Fatalf("malformed bridge %+v", e)
			}
			bridges++
		default:
			t.Fatalf("edge %+v spans non-adjacent cliques", e)
		}
	}
	if bridges != 2*(cliques-1) {
		t.Fatalf("bridge records = %d, want %d", bridges, 2*(cliques-1))
	}
	if intra != cliques*size*(size-1) {
		t.Fatalf("intra records = %d", intra)
	}

	dist := refBFS(c.NumVertices(), edges, 0)
	for v, d := range dist {
		if d < 0 {
			t.Fatalf("vertex %d unreachable", v)
		}
	}
	// The far end of the chain is ~2 hops per clique away (bridge +
	// intra-clique step); size>2 keeps the corner cases away.
	ecc := maxDist(dist)
	if ecc < 2*(cliques-1) {
		t.Fatalf("eccentricity %d, want >= %d (high diameter)", ecc, 2*(cliques-1))
	}

	again := materialize(t, CliqueChain(cliques, size, 7))
	for i := range edges {
		if edges[i] != again[i] {
			t.Fatalf("nondeterministic at record %d", i)
		}
	}
}
