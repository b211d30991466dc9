package algorithms

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
	"repro/internal/memengine"
	"repro/internal/refalgo"
	"repro/internal/storage"
)

var memCfg = memengine.Config{Threads: 2}

func undirected(scale int, seed int64) (core.EdgeSource, []core.Edge) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: seed, Undirected: true})
	edges, _ := core.Materialize(src)
	return src, edges
}

func directed(scale int, seed int64) (core.EdgeSource, []core.Edge) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: seed})
	edges, _ := core.Materialize(src)
	return src, edges
}

func TestWCC(t *testing.T) {
	src, edges := undirected(9, 1)
	res, err := memengine.Run(src, NewWCC(), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.Components(src.NumVertices(), edges)
	got := Labels(res.Vertices)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %d want %d", v, got[v], want[v])
		}
	}
}

func TestBFS(t *testing.T) {
	src, edges := directed(9, 2)
	root := core.VertexID(0)
	res, err := memengine.Run(src, NewBFS(root), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.BFSLevels(src.NumVertices(), edges, root)
	got := Levels(res.Vertices)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: level %d want %d", v, got[v], want[v])
		}
	}
}

func TestSSSP(t *testing.T) {
	src, edges := undirected(9, 3)
	root := core.VertexID(1)
	res, err := memengine.Run(src, NewSSSP(root), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.Dijkstra(src.NumVertices(), edges, root)
	got := Distances(res.Vertices)
	for v := range got {
		if math.IsInf(want[v], 1) {
			if got[v] != Inf32 {
				t.Fatalf("vertex %d reachable? got %f", v, got[v])
			}
			continue
		}
		if math.Abs(float64(got[v])-want[v]) > 1e-3 {
			t.Fatalf("vertex %d: dist %f want %f", v, got[v], want[v])
		}
	}
}

func TestSpMV(t *testing.T) {
	src, edges := directed(8, 4)
	res, err := memengine.Run(src, NewSpMV(), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 1 {
		t.Fatalf("SpMV took %d iterations", res.Stats.Iterations)
	}
	want := make([]float64, src.NumVertices())
	for _, e := range edges {
		want[e.Dst] += float64(res.Vertices[e.Src].X) * float64(e.Weight)
	}
	for v := range want {
		if math.Abs(float64(res.Vertices[v].Y)-want[v]) > 1e-2*(1+math.Abs(want[v])) {
			t.Fatalf("y[%d] = %f, want %f", v, res.Vertices[v].Y, want[v])
		}
	}
}

func TestPageRank(t *testing.T) {
	src, edges := directed(9, 5)
	const iters = 5
	res, err := memengine.Run(src, NewPageRank(iters), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != iters {
		t.Fatalf("iterations = %d", res.Stats.Iterations)
	}
	want := refalgo.PageRank(src.NumVertices(), edges, iters)
	got := Ranks(res.Vertices)
	for v := range got {
		if math.Abs(float64(got[v])-want[v]) > 1e-2*(1+want[v]) {
			t.Fatalf("rank[%d] = %f, want %f", v, got[v], want[v])
		}
	}
}

func TestConductance(t *testing.T) {
	src, edges := undirected(9, 6)
	prog := NewConductance(nil)
	if _, err := memengine.Run(src, prog, memCfg); err != nil {
		t.Fatal(err)
	}
	want := refalgo.Conductance(edges, func(id core.VertexID) bool { return id&1 == 1 })
	if math.Abs(prog.Phi-want) > 1e-9 {
		t.Fatalf("phi = %f, want %f", prog.Phi, want)
	}
	if prog.CutEdges == 0 || prog.VolS == 0 {
		t.Fatalf("degenerate conductance: %+v", prog)
	}
}

func TestMISProperties(t *testing.T) {
	src, edges := undirected(9, 7)
	prog := NewMIS()
	res, err := memengine.Run(src, prog, memCfg)
	if err != nil {
		t.Fatal(err)
	}
	in := InSet(res.Vertices)
	// Every vertex decided.
	for v, s := range res.Vertices {
		if s.Status == MISUndecided {
			t.Fatalf("vertex %d undecided", v)
		}
	}
	// Independence: no edge inside the set.
	for _, e := range edges {
		if e.Src != e.Dst && in[e.Src] && in[e.Dst] {
			t.Fatalf("edge %d-%d inside the set", e.Src, e.Dst)
		}
	}
	// Maximality: every Out vertex has an In neighbour.
	hasInNeighbour := make([]bool, src.NumVertices())
	for _, e := range edges {
		if in[e.Src] {
			hasInNeighbour[e.Dst] = true
		}
	}
	for v := range in {
		if !in[v] && !hasInNeighbour[v] {
			t.Fatalf("vertex %d is Out with no In neighbour", v)
		}
	}
	if prog.Remaining != 0 {
		t.Fatalf("remaining = %d", prog.Remaining)
	}
}

func TestMCSTWeight(t *testing.T) {
	src, edges := undirected(9, 8)
	prog := NewMCST()
	if _, err := memengine.Run(src, prog, memCfg); err != nil {
		t.Fatal(err)
	}
	want := refalgo.KruskalWeight(src.NumVertices(), edges)
	if math.Abs(prog.TotalWeight-want) > 1e-2*(1+want) {
		t.Fatalf("MST weight %f, want %f", prog.TotalWeight, want)
	}
	// Forest edges must exist in the graph.
	exists := make(map[[2]core.VertexID]bool)
	for _, e := range edges {
		exists[[2]core.VertexID{e.Src, e.Dst}] = true
	}
	for _, e := range prog.Edges {
		if !exists[[2]core.VertexID{e.A, e.B}] && !exists[[2]core.VertexID{e.B, e.A}] {
			t.Fatalf("forest edge %v not in graph", e)
		}
	}
}

func TestSCC(t *testing.T) {
	src, edges := directed(8, 9)
	res, err := memengine.Run(src, NewSCC(), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	got := ComponentIDs(res.Vertices)
	want := refalgo.SCC(src.NumVertices(), edges)
	// Same partition: got[u]==got[v] iff want[u]==want[v].
	seen := make(map[uint32]int32)
	for v := range got {
		if got[v] == NoSCC {
			t.Fatalf("vertex %d unassigned", v)
		}
		if w, ok := seen[got[v]]; ok {
			if w != want[v] {
				t.Fatalf("vertex %d: xstream comp %d maps to tarjan %d and %d", v, got[v], w, want[v])
			}
		} else {
			seen[got[v]] = want[v]
		}
	}
	// And the reverse direction: tarjan comps must not be split.
	rev := make(map[int32]uint32)
	for v := range got {
		if g, ok := rev[want[v]]; ok {
			if g != got[v] {
				t.Fatalf("tarjan comp %d split across xstream comps %d and %d", want[v], g, got[v])
			}
		} else {
			rev[want[v]] = got[v]
		}
	}
}

func TestALSImprovesRMSE(t *testing.T) {
	const users = 200
	src := graphgen.Bipartite(users, 40, 3000, 10)
	edges, _ := core.Materialize(src)

	// RMSE at init (0 iterations of solving: run 1 iteration and compare
	// against 3).
	short := NewALS(users, 1)
	resShort, err := memengine.Run(src, short, memCfg)
	if err != nil {
		t.Fatal(err)
	}
	long := NewALS(users, 3)
	resLong, err := memengine.Run(src, long, memCfg)
	if err != nil {
		t.Fatal(err)
	}
	rShort := RMSE(resShort.Vertices, edges, users)
	rLong := RMSE(resLong.Vertices, edges, users)
	if rLong > rShort+1e-6 {
		t.Fatalf("RMSE did not improve: 1 iter %f, 3 iters %f", rShort, rLong)
	}
	if rLong > 0.5 {
		t.Fatalf("training RMSE too high: %f", rLong)
	}
}

func TestBPBeliefs(t *testing.T) {
	src, _ := undirected(8, 11)
	res, err := memengine.Run(src, NewBP(5), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 5 {
		t.Fatalf("iterations = %d", res.Stats.Iterations)
	}
	for v, s := range res.Vertices {
		sum := float64(s.B0) + float64(s.B1)
		if math.Abs(sum-1) > 1e-4 || s.B1 < 0 || s.B1 > 1 {
			t.Fatalf("vertex %d beliefs not normalized: %f + %f", v, s.B0, s.B1)
		}
	}
	// Deterministic across runs.
	res2, _ := memengine.Run(src, NewBP(5), memCfg)
	for v := range res.Vertices {
		if res.Vertices[v].B1 != res2.Vertices[v].B1 {
			t.Fatalf("BP not deterministic at %d", v)
		}
	}
}

func TestHyperANFChainDiameter(t *testing.T) {
	const n = 24
	src := graphgen.Chain(n, 1)
	prog := NewHyperANF()
	res, err := memengine.Run(src, prog, memCfg)
	if err != nil {
		t.Fatal(err)
	}
	// A chain of n vertices has diameter n-1; HyperANF needs about that
	// many steps (HLL collisions can shave a step or two).
	if prog.Steps() < n-4 || prog.Steps() > n+1 {
		t.Fatalf("chain steps = %d, want ≈ %d", prog.Steps(), n-1)
	}
	// Final neighbourhood function ≈ n^2 within HLL tolerance.
	nf := prog.NF[len(prog.NF)-1]
	if nf < 0.5*n*n || nf > 1.7*n*n {
		t.Fatalf("NF = %f, want ≈ %d", nf, n*n)
	}
	if res.Stats.Iterations != prog.Steps() {
		t.Fatalf("iterations %d != steps %d", res.Stats.Iterations, prog.Steps())
	}
}

func TestHyperANFLowDiameterGraph(t *testing.T) {
	src, _ := undirected(10, 12)
	prog := NewHyperANF()
	if _, err := memengine.Run(src, prog, memCfg); err != nil {
		t.Fatal(err)
	}
	if prog.Steps() > 15 {
		t.Fatalf("scale-free graph took %d steps; expected a small diameter", prog.Steps())
	}
	if prog.EffectiveDiameter(0.9) > prog.Steps() {
		t.Fatal("effective diameter exceeds steps")
	}
}

// TestDiskParityAllAlgorithms runs every deterministic algorithm on both
// engines and requires identical vertex state — the strongest cross-engine
// guarantee in the suite.
func TestDiskParityAllAlgorithms(t *testing.T) {
	srcU, _ := undirected(8, 13)
	srcD, _ := directed(8, 13)
	bip := graphgen.Bipartite(100, 20, 1500, 13)

	diskCfg := func() diskengine.Config {
		return diskengine.Config{
			Device:  storage.NewSim(storage.SSDParams("par", 2, 0)),
			Threads: 2, IOUnit: 16 << 10, Partitions: 4,
		}
	}

	runPair := func(name string, src core.EdgeSource, mk func() interface{}) {
		t.Run(name, func(t *testing.T) {
			switch p := mk().(type) {
			case *WCC:
				m, err := memengine.Run(src, p, memCfg)
				if err != nil {
					t.Fatal(err)
				}
				d, err := diskengine.Run(src, mk().(*WCC), diskCfg())
				if err != nil {
					t.Fatal(err)
				}
				for i := range m.Vertices {
					if m.Vertices[i] != d.Vertices[i] {
						t.Fatalf("vertex %d differs", i)
					}
				}
			case *SCC:
				m, err := memengine.Run(src, p, memCfg)
				if err != nil {
					t.Fatal(err)
				}
				d, err := diskengine.Run(src, mk().(*SCC), diskCfg())
				if err != nil {
					t.Fatal(err)
				}
				for i := range m.Vertices {
					if m.Vertices[i].SCCID != d.Vertices[i].SCCID {
						t.Fatalf("vertex %d differs", i)
					}
				}
			case *MIS:
				m, err := memengine.Run(src, p, memCfg)
				if err != nil {
					t.Fatal(err)
				}
				d, err := diskengine.Run(src, mk().(*MIS), diskCfg())
				if err != nil {
					t.Fatal(err)
				}
				for i := range m.Vertices {
					if m.Vertices[i].Status != d.Vertices[i].Status {
						t.Fatalf("vertex %d differs", i)
					}
				}
			case *PageRank:
				m, err := memengine.Run(src, p, memCfg)
				if err != nil {
					t.Fatal(err)
				}
				d, err := diskengine.Run(src, mk().(*PageRank), diskCfg())
				if err != nil {
					t.Fatal(err)
				}
				for i := range m.Vertices {
					if math.Abs(float64(m.Vertices[i].Rank-d.Vertices[i].Rank)) > 1e-4 {
						t.Fatalf("vertex %d rank differs: %f vs %f", i, m.Vertices[i].Rank, d.Vertices[i].Rank)
					}
				}
			case *ALS:
				m, err := memengine.Run(src, p, memCfg)
				if err != nil {
					t.Fatal(err)
				}
				d, err := diskengine.Run(src, mk().(*ALS), diskCfg())
				if err != nil {
					t.Fatal(err)
				}
				for i := range m.Vertices {
					for k := 0; k < ALSK; k++ {
						if math.Abs(float64(m.Vertices[i].F[k]-d.Vertices[i].F[k])) > 1e-3 {
							t.Fatalf("vertex %d factor %d differs", i, k)
						}
					}
				}
			case *HyperANF:
				m, err := memengine.Run(src, p, memCfg)
				if err != nil {
					t.Fatal(err)
				}
				d, err := diskengine.Run(src, mk().(*HyperANF), diskCfg())
				if err != nil {
					t.Fatal(err)
				}
				for i := range m.Vertices {
					if m.Vertices[i].C != d.Vertices[i].C {
						t.Fatalf("vertex %d sketch differs", i)
					}
				}
			default:
				t.Fatalf("unhandled program type %T", p)
			}
		})
	}

	runPair("wcc", srcU, func() interface{} { return NewWCC() })
	runPair("scc", srcD, func() interface{} { return NewSCC() })
	runPair("mis", srcU, func() interface{} { return NewMIS() })
	runPair("pagerank", srcD, func() interface{} { return NewPageRank(3) })
	runPair("als", bip, func() interface{} { return NewALS(100, 2) })
	runPair("hyperanf", srcU, func() interface{} { return NewHyperANF() })
}
