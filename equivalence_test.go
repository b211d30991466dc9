package xstream_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"testing"

	xstream "repro"
	"repro/internal/refalgo"
	"repro/internal/xstreamtest"
)

// Cross-engine equivalence: for every partitioner, every engine, and with
// the update combiner both enabled and disabled, the engines and the
// textbook reference implementations must agree — after the engines have
// mapped relabeled results back to input IDs — on PageRank, BFS, WCC and
// SSSP. Running each algorithm across all eight combinations is what
// proves the Combiner contract: pre-aggregating the update stream never
// changes gather results.

// equivCase is one (engine, partitioner, combining) combination under test.
// threads overrides the suite's standard thread count when set.
type equivCase struct {
	name      string
	mem       bool
	part      xstream.Partitioner
	noCombine bool
	threads   int
}

func equivCases() []equivCase {
	return []equivCase{
		{"mem/range", true, xstream.NewRangePartitioner(), false, 0},
		{"mem/2ps", true, xstream.New2PSPartitioner(), false, 0},
		{"disk/range", false, xstream.NewRangePartitioner(), false, 0},
		{"disk/2ps", false, xstream.New2PSPartitioner(), false, 0},
		{"mem/range/nocombine", true, xstream.NewRangePartitioner(), true, 0},
		{"mem/2ps/nocombine", true, xstream.New2PSPartitioner(), true, 0},
		{"disk/range/nocombine", false, xstream.NewRangePartitioner(), true, 0},
		{"disk/2ps/nocombine", false, xstream.New2PSPartitioner(), true, 0},
	}
}

// runEquiv executes prog on the case's engine with its partitioner.
func runEquiv[V, M any](t *testing.T, c equivCase, src xstream.EdgeSource, prog xstream.Program[V, M]) []V {
	t.Helper()
	res, stats := runEquivStats(t, c, src, prog)
	if !c.noCombine {
		if _, ok := prog.(xstream.Combiner[M]); ok && stats.UpdatesSent > 0 && stats.UpdatesCombined == 0 {
			t.Fatalf("%s: combiner enabled for %s but nothing was combined", c.name, stats.Algorithm)
		}
	} else if stats.UpdatesCombined != 0 {
		t.Fatalf("%s: NoCombine run still combined %d updates", c.name, stats.UpdatesCombined)
	}
	return res
}

func runEquivStats[V, M any](t *testing.T, c equivCase, src xstream.EdgeSource, prog xstream.Program[V, M]) ([]V, xstream.Stats) {
	t.Helper()
	if c.mem {
		cfg := xstreamtest.MemConfig()
		cfg.Partitioner, cfg.NoCombine = c.part, c.noCombine
		cfg.Threads = cmp.Or(c.threads, cfg.Threads)
		res, err := xstream.RunMemory(src, prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res.Vertices, res.Stats
	}
	cfg := xstreamtest.DiskConfig("equiv")
	cfg.Partitioner, cfg.NoCombine = c.part, c.noCombine
	cfg.Threads = cmp.Or(c.threads, cfg.Threads)
	res, err := xstream.RunDisk(src, prog, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res.Vertices, res.Stats
}

func TestEquivalenceBFS(t *testing.T) {
	src := xstreamtest.RMAT(10, 21)
	edges := xstreamtest.Materialize(t, src)
	const root = 3
	want := refalgo.BFSLevels(src.NumVertices(), edges, root)
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			got := xstream.BFSLevels(runEquiv(t, c, src, xstream.NewBFS(root)))
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: level %d, want %d", v, got[v], want[v])
				}
			}
		})
	}
}

// TestEquivalencePageRank: a one-thread run agrees with the float64
// reference within reduction-order tolerance, and the suite's three-thread
// run with the one-thread run bit for bit: no float sum depends on the
// thread count.
func TestEquivalencePageRank(t *testing.T) {
	src := xstreamtest.RMAT(10, 22)
	edges := xstreamtest.Materialize(t, src)
	const iters = 5
	want := refalgo.PageRank(src.NumVertices(), edges, iters)
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			one := c
			one.threads = 1
			got := xstream.PageRankValues(runEquiv(t, one, src, xstream.NewPageRank(iters)))
			for v := range want {
				diff := math.Abs(float64(got[v]) - want[v])
				if diff > 1e-3*(1+math.Abs(want[v])) {
					t.Fatalf("vertex %d: rank %g, want %g", v, got[v], want[v])
				}
			}
			checkBitIdentical(t, xstream.PageRankValues(runEquiv(t, c, src, xstream.NewPageRank(iters))), got, "threads 3 vs 1")
		})
	}
}

// TestMemPageRankIndependentOfThreads: in memory, a float-sum program's
// result is a function of the graph and the configuration, not of the
// thread count or the scheduling: each partition's updates reach their
// bucket in partition order, whichever worker sent them first. PageRank and
// SpMV on RMAT-12 in 16 partitions, twice at each of 1, 2 and 4 threads,
// are all bit-identical.
func TestMemPageRankIndependentOfThreads(t *testing.T) {
	src := xstreamtest.RMAT(12, 91)
	var ranks, ys []float32
	for _, threads := range []int{1, 2, 4} {
		for run := 0; run < 2; run++ {
			cfg := xstream.MemConfig{Threads: threads, Partitions: 16}
			what := fmt.Sprintf("threads %d run %d", threads, run)
			pr, err := xstream.RunMemory(src, xstream.NewPageRank(5), cfg)
			if err != nil {
				t.Fatal(err)
			}
			spmv, err := xstream.RunMemory(src, xstream.NewSpMV(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			y := make([]float32, len(spmv.Vertices))
			for v, s := range spmv.Vertices {
				y[v] = s.Y
			}
			if ranks == nil {
				ranks, ys = xstream.PageRankValues(pr.Vertices), y
				continue
			}
			checkBitIdentical(t, xstream.PageRankValues(pr.Vertices), ranks, "PageRank "+what)
			checkBitIdentical(t, y, ys, "SpMV "+what)
		}
	}
}

// checkBitIdentical compares two float vectors bit by bit.
func checkBitIdentical(t *testing.T, got, want []float32, context string) {
	t.Helper()
	for v := range want {
		if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
			t.Fatalf("%s: vertex %d: %g, want %g (bitwise)", context, v, got[v], want[v])
		}
	}
}

func TestEquivalenceWCC(t *testing.T) {
	src := xstreamtest.RMATUndirected(10, 23)
	edges := xstreamtest.Materialize(t, src)
	want := refalgo.Components(src.NumVertices(), edges)
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			got := xstream.WCCLabels(runEquiv(t, c, src, xstream.NewWCC()))
			// Labels are representatives: under a relabeling partitioner
			// the representative may be any member of the component, so
			// compare the component *partitions* canonically.
			if err := xstreamtest.SameComponents(got, want); err != nil {
				t.Fatalf("%v", err)
			}
		})
	}
}

// TestEquivalenceSSSP rides along: root translation through VertexMapper
// is the same machinery BFS uses, but with float distances.
func TestEquivalenceSSSP(t *testing.T) {
	src := xstreamtest.RMAT(9, 24)
	edges := xstreamtest.Materialize(t, src)
	const root = 7
	want := refalgo.Dijkstra(src.NumVertices(), edges, root)
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			got := xstream.SSSPDistances(runEquiv(t, c, src, xstream.NewSSSP(root)))
			for v := range want {
				if math.IsInf(want[v], 1) {
					if got[v] != float32(math.Inf(1)) {
						t.Fatalf("vertex %d: reached at %g, want unreachable", v, got[v])
					}
					continue
				}
				if math.Abs(float64(got[v])-want[v]) > 1e-4*(1+want[v]) {
					t.Fatalf("vertex %d: dist %g, want %g", v, got[v], want[v])
				}
			}
		})
	}
}

// TestPartitionerIndependentSeeding: programs that seed per-vertex state
// from the vertex ID (SpMV's x vector, Conductance's subset, MCST's
// forest) must seed from *input* IDs, so range and 2ps runs agree.
func TestPartitionerIndependentSeeding(t *testing.T) {
	src := xstreamtest.RMATUndirected(10, 26)
	t.Run("spmv", func(t *testing.T) {
		var want []xstream.SpMVState
		for _, c := range equivCases()[:2] { // mem/range, mem/2ps
			got := runEquiv(t, c, src, xstream.NewSpMV())
			if want == nil {
				want = got
				continue
			}
			for v := range want {
				if math.Abs(float64(got[v].Y-want[v].Y)) > 1e-3*(1+math.Abs(float64(want[v].Y))) {
					t.Fatalf("%s: vertex %d: y %g, want %g", c.name, v, got[v].Y, want[v].Y)
				}
			}
		}
	})
	t.Run("conductance", func(t *testing.T) {
		var phi float64
		for i, c := range equivCases()[:2] {
			prog := xstream.NewConductance(nil)
			runEquiv(t, c, src, prog)
			if i == 0 {
				phi = prog.Phi
				continue
			}
			if math.Abs(prog.Phi-phi) > 1e-9 {
				t.Fatalf("%s: phi %g, want %g", c.name, prog.Phi, phi)
			}
		}
	})
	t.Run("mcst", func(t *testing.T) {
		var weight float64
		var n int64
		for i, c := range equivCases()[:2] {
			prog := xstream.NewMCST()
			runEquiv(t, c, src, prog)
			if i == 0 {
				weight, n = prog.TotalWeight, src.NumVertices()
				continue
			}
			if math.Abs(prog.TotalWeight-weight) > 1e-6*(1+weight) {
				t.Fatalf("%s: forest weight %g, want %g", c.name, prog.TotalWeight, weight)
			}
			for _, e := range prog.Edges {
				if int64(e.A) >= n || int64(e.B) >= n {
					t.Fatalf("%s: forest edge (%d,%d) outside input ID space", c.name, e.A, e.B)
				}
			}
		}
	})
}

// TestRelabeledRootOutOfRange: a nonsensical root must degrade the same
// way under both partitioners (all-unreached) instead of panicking in the
// relabel translation.
func TestRelabeledRootOutOfRange(t *testing.T) {
	src := xstreamtest.RMAT(8, 27)
	badRoot := xstream.VertexID(src.NumVertices() + 999)
	for _, c := range equivCases()[:2] {
		levels := xstream.BFSLevels(runEquiv(t, c, src, xstream.NewBFS(badRoot)))
		for v, l := range levels {
			if l != -1 {
				t.Fatalf("%s: vertex %d reached at level %d from out-of-range root", c.name, v, l)
			}
		}
	}
}

// TestDeterminism2PS: identical runs with the 2PS partitioner must be
// bit-identical — the assignment and the engine are both deterministic.
func TestDeterminism2PS(t *testing.T) {
	src := xstreamtest.RMATUndirected(10, 25)
	var want []xstream.WCCState
	for run := 0; run < 3; run++ {
		res, err := xstream.RunMemory(src, xstream.NewWCC(), xstream.MemConfig{
			Threads: 4, Partitioner: xstream.New2PSPartitioner(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Vertices
			continue
		}
		for v := range want {
			if res.Vertices[v] != want[v] {
				t.Fatalf("run %d: vertex %d: %+v vs %+v", run, v, res.Vertices[v], want[v])
			}
		}
	}
}

// TestCombinerParitySpMV: the sum semigroup over float32. Combining
// changes the order float additions reduce in, so parity is checked within
// the same relative tolerance the PageRank equivalence test uses.
func TestCombinerParitySpMV(t *testing.T) {
	src := xstreamtest.RMAT(10, 28)
	var want []xstream.SpMVState
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			got := runEquiv(t, c, src, xstream.NewSpMV())
			if want == nil {
				want = got
				return
			}
			for v := range want {
				diff := math.Abs(float64(got[v].Y - want[v].Y))
				if diff > 1e-3*(1+math.Abs(float64(want[v].Y))) {
					t.Fatalf("vertex %d: y %g, want %g", v, got[v].Y, want[v].Y)
				}
			}
		})
	}
}

// TestCombinerParityHyperANF: sketch union is idempotent as well as
// commutative and associative, so combined runs must be bit-identical to
// uncombined ones — the strictest parity the suite can ask for.
func TestCombinerParityHyperANF(t *testing.T) {
	src := xstream.Symmetrize(xstreamtest.RMAT(9, 29))
	var want []xstream.ANFState
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			got := runEquiv(t, c, src, xstream.NewHyperANF())
			if want == nil {
				want = got
				return
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: sketch state diverged", v)
				}
			}
		})
	}
}

// TestCombineGroupingInvariance is the property behind the Combiner
// contract: for a random multiset of updates to one destination, gathering
// them one at a time must leave the vertex in the same state as gathering
// any random grouping of them pre-reduced through Combine, in any order.
// The sum semigroup is exercised with dyadic values small enough that
// float32 addition is exact, so even it can be compared bit-for-bit.
func TestCombineGroupingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))

	// group partitions vals into random contiguous-free groups, reduces
	// each through combine (in random internal order), and returns the
	// group values shuffled.
	group := func(vals []float32, combine func(a, b float32) float32) []float32 {
		var groups [][]float32
		for _, v := range vals {
			if len(groups) > 0 && rng.Intn(2) == 0 {
				g := rng.Intn(len(groups))
				groups[g] = append(groups[g], v)
			} else {
				groups = append(groups, []float32{v})
			}
		}
		out := make([]float32, 0, len(groups))
		for _, g := range groups {
			rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
			acc := g[0]
			for _, v := range g[1:] {
				acc = combine(acc, v)
			}
			out = append(out, acc)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}

	t.Run("sum/pagerank", func(t *testing.T) {
		prog := xstream.NewPageRank(1)
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(30)
			vals := make([]float32, n)
			for i := range vals {
				vals[i] = float32(rng.Intn(512)) / 16 // dyadic: exact addition
			}
			var direct, grouped xstream.PRState
			for _, v := range vals {
				prog.Gather(0, &direct, v)
			}
			for _, v := range group(vals, prog.Combine) {
				prog.Gather(0, &grouped, v)
			}
			if direct != grouped {
				t.Fatalf("trial %d: direct %+v, grouped %+v", trial, direct, grouped)
			}
		}
	})

	t.Run("min/sssp", func(t *testing.T) {
		prog := xstream.NewSSSP(0)
		prog.StartIteration(0)
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(30)
			vals := make([]float32, n)
			for i := range vals {
				vals[i] = rng.Float32() * 100
			}
			direct := xstream.SSSPState{Dist: xstream.Inf32, Updated: -1}
			grouped := direct
			for _, v := range vals {
				prog.Gather(1, &direct, v)
			}
			for _, v := range group(vals, prog.Combine) {
				prog.Gather(1, &grouped, v)
			}
			if direct != grouped {
				t.Fatalf("trial %d: direct %+v, grouped %+v", trial, direct, grouped)
			}
		}
	})

	t.Run("min/wcc", func(t *testing.T) {
		prog := xstream.NewWCC()
		prog.StartIteration(0)
		combine := func(a, b float32) float32 {
			return float32(prog.Combine(xstream.VertexID(a), xstream.VertexID(b)))
		}
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(30)
			vals := make([]float32, n)
			for i := range vals {
				vals[i] = float32(rng.Intn(1 << 20)) // vertex labels, exact in float32
			}
			var direct, grouped xstream.WCCState
			prog.Init(1<<21, &direct)
			prog.Init(1<<21, &grouped)
			for _, v := range vals {
				prog.Gather(0, &direct, xstream.VertexID(v))
			}
			for _, v := range group(vals, combine) {
				prog.Gather(0, &grouped, xstream.VertexID(v))
			}
			if direct != grouped {
				t.Fatalf("trial %d: direct %+v, grouped %+v", trial, direct, grouped)
			}
		}
	})
}

// ---- selective (frontier-aware) streaming equivalence ----

// selectiveCase is one (engine, partitioner, selective) combination. The
// full matrix — both engines x both partitioners x selective on/off — run
// over every frontier algorithm is what proves the FrontierProgram
// contract: skipping partitions and tiles whose sources are inactive never
// changes a result.
type selectiveCase struct {
	name      string
	mem       bool
	part      func() xstream.Partitioner
	selective bool
}

func selectiveCases() []selectiveCase {
	var out []selectiveCase
	for _, mem := range []bool{true, false} {
		for _, part := range []struct {
			name string
			mk   func() xstream.Partitioner
		}{
			{"range", xstream.NewRangePartitioner},
			{"2ps", xstream.New2PSPartitioner},
		} {
			for _, sel := range []bool{false, true} {
				eng := "disk"
				if mem {
					eng = "mem"
				}
				mode := "dense"
				if sel {
					mode = "selective"
				}
				out = append(out, selectiveCase{
					name:      eng + "/" + part.name + "/" + mode,
					mem:       mem,
					part:      part.mk,
					selective: sel,
				})
			}
		}
	}
	return out
}

// runSelective executes prog on the case's engine, returning states and
// stats.
func runSelective[V, M any](t *testing.T, c selectiveCase, src xstream.EdgeSource, prog xstream.Program[V, M]) ([]V, xstream.Stats) {
	t.Helper()
	if c.mem {
		// Partitions forced: the auto-sizer picks K=1 on test-size graphs,
		// which would leave the partition-skip path unexercised.
		cfg := xstreamtest.MemConfig()
		cfg.Partitions, cfg.Partitioner, cfg.Selective, cfg.TileEdges = 16, c.part(), c.selective, 128
		res, err := xstream.RunMemory(src, prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res.Vertices, res.Stats
	}
	cfg := xstreamtest.DiskConfig("sel-equiv")
	cfg.Partitioner, cfg.Selective, cfg.TileEdges = c.part(), c.selective, 128
	res, err := xstream.RunDisk(src, prog, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res.Vertices, res.Stats
}

// checkSelectiveStats asserts the workload bookkeeping: selective runs must
// reconcile exactly to the dense edge workload and actually skip something
// on these inputs; dense runs must report no skips. denseStreamed is 0 when
// the paired dense subtest was filtered out (go test -run of a single
// selective case), in which case the reconciliation is skipped rather than
// compared against a value that never ran.
func checkSelectiveStats(t *testing.T, c selectiveCase, s xstream.Stats, denseStreamed int64) {
	t.Helper()
	if !c.selective {
		if s.EdgesSkipped != 0 || s.PartitionsSkipped != 0 || s.TilesSkipped != 0 {
			t.Fatalf("%s: dense run reported skips: %+v", c.name, s)
		}
		return
	}
	if denseStreamed > 0 && s.EdgesStreamed+s.EdgesSkipped != denseStreamed {
		t.Fatalf("%s: streamed %d + skipped %d != dense %d",
			c.name, s.EdgesStreamed, s.EdgesSkipped, denseStreamed)
	}
	if s.EdgesSkipped == 0 {
		t.Fatalf("%s: selective run skipped nothing", c.name)
	}
}

// TestSelectiveEquivalenceBFS: the flagship frontier algorithm on the
// flagship input — a high-diameter clique chain — plus a scale-free graph,
// against the reference implementation.
func TestSelectiveEquivalenceBFS(t *testing.T) {
	for _, g := range []struct {
		name string
		src  xstream.EdgeSource
	}{
		{"clique-chain", xstream.CliqueChain(48, 8, 51)},
		{"rmat", xstreamtest.RMAT(10, 52)},
	} {
		edges := xstreamtest.Materialize(t, g.src)
		const root = 2
		want := refalgo.BFSLevels(g.src.NumVertices(), edges, root)
		var denseStreamed int64
		for _, c := range selectiveCases() {
			t.Run(g.name+"/"+c.name, func(t *testing.T) {
				verts, stats := runSelective(t, c, g.src, xstream.NewBFS(root))
				got := xstream.BFSLevels(verts)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("vertex %d: level %d, want %d", v, got[v], want[v])
					}
				}
				if !c.selective {
					denseStreamed = stats.EdgesStreamed
				}
				checkSelectiveStats(t, c, stats, denseStreamed)
			})
		}
	}
}

// TestSelectiveEquivalenceSSSP: float distances through the same matrix.
func TestSelectiveEquivalenceSSSP(t *testing.T) {
	src := xstreamtest.RMAT(9, 53)
	edges := xstreamtest.Materialize(t, src)
	const root = 5
	want := refalgo.Dijkstra(src.NumVertices(), edges, root)
	var denseStreamed int64
	for _, c := range selectiveCases() {
		t.Run(c.name, func(t *testing.T) {
			verts, stats := runSelective(t, c, src, xstream.NewSSSP(root))
			got := xstream.SSSPDistances(verts)
			for v := range want {
				if math.IsInf(want[v], 1) {
					if got[v] != float32(math.Inf(1)) {
						t.Fatalf("vertex %d: reached at %g, want unreachable", v, got[v])
					}
					continue
				}
				if math.Abs(float64(got[v])-want[v]) > 1e-4*(1+want[v]) {
					t.Fatalf("vertex %d: dist %g, want %g", v, got[v], want[v])
				}
			}
			if !c.selective {
				denseStreamed = stats.EdgesStreamed
			}
			checkSelectiveStats(t, c, stats, denseStreamed)
		})
	}
}

// TestSelectiveEquivalenceWCC: all-active start converging to a narrow
// tail; labels are compared canonically as in TestEquivalenceWCC.
func TestSelectiveEquivalenceWCC(t *testing.T) {
	src := xstream.CliqueChain(32, 8, 54)
	edges := xstreamtest.Materialize(t, src)
	want := refalgo.Components(src.NumVertices(), edges)
	var denseStreamed int64
	for _, c := range selectiveCases() {
		t.Run(c.name, func(t *testing.T) {
			verts, stats := runSelective(t, c, src, xstream.NewWCC())
			got := xstream.WCCLabels(verts)
			if err := xstreamtest.SameComponents(got, want); err != nil {
				t.Fatalf("%v", err)
			}
			if !c.selective {
				denseStreamed = stats.EdgesStreamed
			}
			checkSelectiveStats(t, c, stats, denseStreamed)
		})
	}
}

// TestSelectiveBitParity: within one engine+partitioner, selective on and
// off must agree bit-for-bit — stronger than reference equality, and the
// most direct statement of "skips are pure elision".
func TestSelectiveBitParity(t *testing.T) {
	src := xstream.CliqueChain(40, 8, 55)
	cases := selectiveCases()
	for i := 0; i < len(cases); i += 2 {
		dense, sel := cases[i], cases[i+1]
		if dense.selective || !sel.selective || dense.mem != sel.mem {
			t.Fatalf("selectiveCases() no longer pairs dense/selective adjacently: %s / %s", dense.name, sel.name)
		}
		t.Run(sel.name, func(t *testing.T) {
			dv, _ := runSelective(t, dense, src, xstream.NewBFS(0))
			sv, _ := runSelective(t, sel, src, xstream.NewBFS(0))
			for v := range dv {
				if dv[v] != sv[v] {
					t.Fatalf("vertex %d: dense %+v, selective %+v", v, dv[v], sv[v])
				}
			}
		})
	}
}

// ---- compressed edge tiles equivalence ----

// compressCase is one (partitioner, selective) combination run twice on
// the disk engine — raw tiles and block-compressed tiles. Compression is
// a storage-layer change below the reader, so every pair must agree
// bit-for-bit; the matrix across partitioners (block coding leans on the
// 2PS relabeling, but must also hold for range) and selective on/off
// (planned segments interact with tile skipping) is what proves decode
// placement never leaks into results.
type compressCase struct {
	name      string
	part      func() xstream.Partitioner
	selective bool
}

func compressCases() []compressCase {
	var out []compressCase
	for _, part := range []struct {
		name string
		mk   func() xstream.Partitioner
	}{
		{"range", xstream.NewRangePartitioner},
		{"2ps", xstream.New2PSPartitioner},
	} {
		for _, sel := range []bool{false, true} {
			mode := "dense"
			if sel {
				mode = "selective"
			}
			out = append(out, compressCase{
				name:      part.name + "/" + mode,
				part:      part.mk,
				selective: sel,
			})
		}
	}
	return out
}

// runCompress executes prog out of core with raw or compressed tiles.
func runCompress[V, M any](t *testing.T, c compressCase, threads int, compress bool, src xstream.EdgeSource, prog xstream.Program[V, M]) ([]V, xstream.Stats) {
	t.Helper()
	cfg := xstreamtest.DiskConfig("cmp-equiv")
	cfg.Threads, cfg.Partitioner = threads, c.part()
	cfg.Selective, cfg.TileEdges, cfg.CompressTiles = c.selective, 128, compress
	res, err := xstream.RunDisk(src, prog, cfg)
	if err != nil {
		t.Fatalf("%s (compress=%v): %v", c.name, compress, err)
	}
	return res.Vertices, res.Stats
}

// checkCompressStats asserts the codec bookkeeping for one raw/compressed
// pair: the compressed run must actually block-code tiles and read fewer
// physical bytes, while its logical volume matches the raw run's reads
// exactly — the byte-level statement that both runs streamed the same
// records.
func checkCompressStats(t *testing.T, c compressCase, raw, cmp xstream.Stats) {
	t.Helper()
	if raw.TilesCompressed != 0 || raw.CompressedRatio != 0 {
		t.Fatalf("%s: raw run reports compression: %d tiles, ratio %v", c.name, raw.TilesCompressed, raw.CompressedRatio)
	}
	if raw.BytesReadLogical != raw.BytesRead {
		t.Fatalf("%s: raw run logical %d != physical %d", c.name, raw.BytesReadLogical, raw.BytesRead)
	}
	if cmp.TilesCompressed == 0 {
		t.Fatalf("%s: compressed run block-coded no tiles", c.name)
	}
	if cmp.CompressedRatio <= 0 || cmp.CompressedRatio >= 1 {
		t.Fatalf("%s: compressed ratio %v outside (0, 1)", c.name, cmp.CompressedRatio)
	}
	if cmp.BytesRead >= raw.BytesRead {
		t.Fatalf("%s: compressed run read %d physical bytes, raw read %d", c.name, cmp.BytesRead, raw.BytesRead)
	}
	if cmp.BytesReadLogical != raw.BytesReadLogical {
		t.Fatalf("%s: compressed run logical volume %d, raw run's %d", c.name, cmp.BytesReadLogical, raw.BytesReadLogical)
	}
}

// TestCompressedTilesEquivalenceBFS: frontier algorithm over min — bit
// parity at Threads 3 across the full matrix.
func TestCompressedTilesEquivalenceBFS(t *testing.T) {
	src := xstreamtest.RMAT(10, 71)
	for _, c := range compressCases() {
		t.Run(c.name, func(t *testing.T) {
			raw, rs := runCompress(t, c, 3, false, src, xstream.NewBFS(3))
			cmp, cs := runCompress(t, c, 3, true, src, xstream.NewBFS(3))
			checkCompressStats(t, c, rs, cs)
			for v := range raw {
				if raw[v] != cmp[v] {
					t.Fatalf("vertex %d: raw %+v, compressed %+v", v, raw[v], cmp[v])
				}
			}
		})
	}
}

// TestCompressedTilesEquivalenceWCC: all-active label propagation, bit
// parity at Threads 3 (integer min is reduction-order independent).
func TestCompressedTilesEquivalenceWCC(t *testing.T) {
	src := xstreamtest.RMATUndirected(10, 72)
	for _, c := range compressCases() {
		t.Run(c.name, func(t *testing.T) {
			raw, rs := runCompress(t, c, 3, false, src, xstream.NewWCC())
			cmp, cs := runCompress(t, c, 3, true, src, xstream.NewWCC())
			checkCompressStats(t, c, rs, cs)
			for v := range raw {
				if raw[v] != cmp[v] {
					t.Fatalf("vertex %d: raw %+v, compressed %+v", v, raw[v], cmp[v])
				}
			}
		})
	}
}

// TestCompressedTilesEquivalencePageRank: float sums, bit parity at
// Threads 3 across the full matrix: the record order the decoder
// reproduces is the accumulation order, and the scatter merges a
// destination's updates in edge order however the readers chunk the file.
func TestCompressedTilesEquivalencePageRank(t *testing.T) {
	src := xstreamtest.RMAT(10, 73)
	for _, c := range compressCases() {
		t.Run(c.name, func(t *testing.T) {
			raw, rs := runCompress(t, c, 3, false, src, xstream.NewPageRank(5))
			cmp, cs := runCompress(t, c, 3, true, src, xstream.NewPageRank(5))
			checkCompressStats(t, c, rs, cs)
			for v := range raw {
				if raw[v] != cmp[v] {
					t.Fatalf("vertex %d: raw %+v, compressed %+v", v, raw[v], cmp[v])
				}
			}
		})
	}
}

// ---- partitioner equivalence ----

// partCase is one (engine, partitioner) combination of the partitioner
// matrix: both engines x range and 2ps, at 8 partitions. A relabeling partitioner must never change a min-lattice
// result, and sum-based programs agree within reduction-order tolerance.
type partCase struct {
	name string
	mem  bool
	part func() xstream.Partitioner
}

func partCases() []partCase {
	var out []partCase
	for _, mem := range []bool{true, false} {
		for _, part := range []struct {
			name string
			mk   func() xstream.Partitioner
		}{
			{"range", xstream.NewRangePartitioner},
			{"2ps", xstream.New2PSPartitioner},
		} {
			eng := "disk"
			if mem {
				eng = "mem"
			}
			out = append(out, partCase{name: eng + "/" + part.name, mem: mem, part: part.mk})
		}
	}
	return out
}

// runPart executes prog on the case's engine with threads workers,
// returning states and stats. Partitions are forced to 8 on the in-memory
// engine, whose auto-sizer picks K=1 on test-size graphs.
func runPart[V, M any](t *testing.T, c partCase, threads int, src xstream.EdgeSource, prog xstream.Program[V, M]) ([]V, xstream.Stats) {
	t.Helper()
	if c.mem {
		cfg := xstreamtest.MemConfig()
		cfg.Threads, cfg.Partitions, cfg.Partitioner = threads, 8, c.part()
		res, err := xstream.RunMemory(src, prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res.Vertices, res.Stats
	}
	cfg := xstreamtest.DiskConfig("part-equiv")
	cfg.Threads, cfg.Partitioner = threads, c.part()
	res, err := xstream.RunDisk(src, prog, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res.Vertices, res.Stats
}

// checkPartStats asserts the run was partitioned: with one partition
// nothing could cross, and the matrix would prove nothing.
func checkPartStats(t *testing.T, c partCase, s xstream.Stats) {
	t.Helper()
	if s.Partitions < 2 || s.CrossPartitionUpdates == 0 {
		t.Fatalf("%s: %d partitions, %d cross-partition updates", c.name, s.Partitions, s.CrossPartitionUpdates)
	}
}

// TestPartitionerEquivalenceBFS: min-lattice, so every case must be
// bit-exact against the reference.
func TestPartitionerEquivalenceBFS(t *testing.T) {
	src := xstreamtest.RMAT(10, 61)
	edges := xstreamtest.Materialize(t, src)
	const root = 3
	want := refalgo.BFSLevels(src.NumVertices(), edges, root)
	for _, c := range partCases() {
		t.Run(c.name, func(t *testing.T) {
			verts, stats := runPart(t, c, 3, src, xstream.NewBFS(root))
			checkPartStats(t, c, stats)
			got := xstream.BFSLevels(verts)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: level %d, want %d", v, got[v], want[v])
				}
			}
		})
	}
}

// TestPartitionerEquivalenceSSSP: float min is exact (no rounding), so the
// engines agree with the float64 reference up to float32 precision.
func TestPartitionerEquivalenceSSSP(t *testing.T) {
	src := xstreamtest.RMAT(10, 62)
	edges := xstreamtest.Materialize(t, src)
	const root = 1
	want := refalgo.Dijkstra(src.NumVertices(), edges, root)
	for _, c := range partCases() {
		t.Run(c.name, func(t *testing.T) {
			verts, stats := runPart(t, c, 3, src, xstream.NewSSSP(root))
			checkPartStats(t, c, stats)
			got := xstream.SSSPDistances(verts)
			for v := range want {
				diff := math.Abs(float64(got[v]) - want[v])
				if diff > 1e-4*(1+math.Abs(want[v])) {
					t.Fatalf("vertex %d: dist %g, want %g", v, got[v], want[v])
				}
			}
		})
	}
}

// TestPartitionerEquivalenceWCC: label propagation over min — component
// membership must match the reference partition exactly.
func TestPartitionerEquivalenceWCC(t *testing.T) {
	src := xstreamtest.RMATUndirected(10, 63)
	edges := xstreamtest.Materialize(t, src)
	want := refalgo.Components(src.NumVertices(), edges)
	for _, c := range partCases() {
		t.Run(c.name, func(t *testing.T) {
			verts, stats := runPart(t, c, 3, src, xstream.NewWCC())
			checkPartStats(t, c, stats)
			got := xstream.WCCLabels(verts)
			if err := xstreamtest.SameComponents(got, want); err != nil {
				t.Fatalf("%v", err)
			}
		})
	}
}

// TestPartitionerParityPageRank: sum-based, so a relabeling regroups float
// additions. At Threads=1 every case must agree with the reference within
// reduction-order tolerance, and at Threads=3 with its Threads=1 run bit
// for bit.
func TestPartitionerParityPageRank(t *testing.T) {
	src := xstreamtest.RMAT(10, 64)
	edges := xstreamtest.Materialize(t, src)
	const iters = 5
	want := refalgo.PageRank(src.NumVertices(), edges, iters)
	for _, c := range partCases() {
		t.Run(c.name, func(t *testing.T) {
			verts, stats := runPart(t, c, 1, src, xstream.NewPageRank(iters))
			checkPartStats(t, c, stats)
			got := xstream.PageRankValues(verts)
			for v := range want {
				diff := math.Abs(float64(got[v]) - want[v])
				if diff > 1e-3*(1+math.Abs(want[v])) {
					t.Fatalf("vertex %d: rank %g, want %g", v, got[v], want[v])
				}
			}
			verts, _ = runPart(t, c, 3, src, xstream.NewPageRank(iters))
			checkBitIdentical(t, xstream.PageRankValues(verts), got, "threads 3 vs 1")
		})
	}
}
