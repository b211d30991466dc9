package memengine

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/partition2ps"
	"repro/internal/pod"
	"repro/internal/streambuf"
)

// TestDeterministicAcrossConfigs: integer-state programs must produce
// identical results whatever the parallelism or partitioning, because the
// synchronous scatter-gather model is order-insensitive for commutative
// gathers.
func TestDeterministicAcrossConfigs(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 31, Undirected: true})
	var want []wccState
	def := privateBufBytes
	defer func() { privateBufBytes = def }()
	for i, row := range []struct {
		cfg     Config
		privBuf int // 0: the engine's 8 KiB
	}{
		{cfg: Config{Threads: 1, Partitions: 1}},
		{cfg: Config{Threads: 1, Partitions: 256, Fanout: 4}},
		{cfg: Config{Threads: 4, Partitions: 16}},
		{cfg: Config{Threads: 3, Partitions: 64, Fanout: 8}},
		{cfg: Config{Threads: 4, Partitions: 16, NoWorkStealing: true}},
		{cfg: Config{Threads: 2}, privBuf: 64}, // tiny private buffers: many flushes
	} {
		privateBufBytes = cmp.Or(row.privBuf, def)
		res, err := Run(src, &wccProg{}, row.cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if want == nil {
			want = res.Vertices
			continue
		}
		for v := range want {
			if res.Vertices[v].Label != want[v].Label {
				t.Fatalf("cfg %d: vertex %d: %d vs %d", i, v, res.Vertices[v].Label, want[v].Label)
			}
		}
	}
}

// twoPassTranspose is the reference transpose build: every edge copied,
// transposed, into a buffer of its own in the forward buffer's bucket order,
// then that copy shuffled by the new source's partition under the plan.
// transpose must give its layout in one placement pass.
func twoPassTranspose(fwd *streambuf.Buffer[core.Edge], plan streambuf.Plan, part core.Split, threads int) *streambuf.Buffer[core.Edge] {
	a := streambuf.New[core.Edge](fwd.Cap())
	for _, ed := range fwd.Records() {
		a.Append([]core.Edge{{Src: ed.Dst, Dst: ed.Src, Weight: ed.Weight}})
	}
	return streambuf.Shuffle(a, streambuf.New[core.Edge](a.Cap()), plan, threads, func(ed core.Edge) uint32 {
		return part.Of(ed.Src)
	})
}

// TestTransposeIndependentOfThreads: the transpose is the two-pass build's
// layout — every bucket the same edges in the same order — for any thread
// count, partition count,
// partitioner and shuffle plan, on graphs with empty partitions, with no
// edges and with fewer edges than threads. Every partition's chunk has a
// fixed place in it, so each partition streams the same edges in the same
// order whatever the worker count that built it.
func TestTransposeIndependentOfThreads(t *testing.T) {
	rmat := graphgen.RMAT(graphgen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 33})
	// Edges among the first 40 of 4096 vertices: most partitions are empty.
	var low []core.Edge
	for i := 0; i < 300; i++ {
		low = append(low, core.Edge{Src: core.VertexID(i * 7 % 40), Dst: core.VertexID(i * 13 % 40), Weight: float32(i)})
	}
	graphs := []struct {
		name string
		src  core.EdgeSource
	}{
		{"rmat", rmat},
		{"empty-partitions", core.NewSliceSource(low, 4096)},
		{"edgeless", core.NewSliceSource(nil, 100)},
		{"three-edges", core.NewSliceSource([]core.Edge{{Src: 5, Dst: 1, Weight: 1}, {Src: 1, Dst: 9, Weight: 2}, {Src: 9, Dst: 5, Weight: 3}}, 10)},
	}
	type layout struct {
		k, fanout   int
		partitioner core.Partitioner
	}
	var layouts []layout
	for _, k := range []int{1, 2, 8, 64} {
		layouts = append(layouts, layout{k: k}, layout{k: k, partitioner: partition2ps.New()})
	}
	layouts = append(layouts, layout{k: 64, fanout: 4}) // a three-stage plan
	for _, g := range graphs {
		for _, l := range layouts {
			var first [][]core.Edge // per partition, the one-thread build's stream
			for _, threads := range []int{1, 2, 3, 8} {
				pp, err := Prepare(g.src, Config{Threads: threads, Partitions: l.k, Fanout: l.fanout, Partitioner: l.partitioner})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s K=%d fanout=%d %s threads=%d", g.name, l.k, l.fanout, pp.partName, threads)
				got, want := transpose(pp.fwd, pp.part, threads), twoPassTranspose(pp.fwd, pp.plan, pp.part, threads)
				if got.Len() != want.Len() || got.Cap() != want.Cap() {
					t.Fatalf("%s: Len/Cap %d/%d, want %d/%d", name, got.Len(), got.Cap(), want.Len(), want.Cap())
				}
				if int64(got.Len()) != pp.ne {
					t.Fatalf("%s: transpose holds %d of %d edges", name, got.Len(), pp.ne)
				}
				for p := 0; p < pp.part.K; p++ {
					stream := got.Bucket(p)
					if !slices.Equal(stream, want.Bucket(p)) {
						t.Fatalf("%s: partition %d streams %d edges unlike the two-pass build's %d", name, p, len(stream), len(want.Bucket(p)))
					}
					for _, ed := range stream {
						if int(pp.part.Of(ed.Src)) != p {
							t.Fatalf("%s: partition %d holds transposed edge %v", name, p, ed)
						}
					}
					// The forward buffer streams each partition the same at
					// any thread count, and so does its transpose.
					if threads == 1 {
						first = append(first, stream)
					} else if !slices.Equal(stream, first[p]) {
						t.Fatalf("%s: partition %d streams %d edges unlike the %d of one thread", name, p, len(stream), len(first[p]))
					}
				}
			}
		}
	}
}

// TestTransposeAllocatesOneEdgeList: building the transpose allocates the
// edge buffer it returns and a few hundred bytes of counts and run lists —
// at most 1.1 × 12·E bytes, where a transposed copy to shuffle from
// allocated a second 12·E.
func TestTransposeAllocatesOneEdgeList(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 14, EdgeFactor: 8, Seed: 35})
	pp, err := Prepare(src, Config{Threads: 2, Partitions: 64, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bwd, _ := pp.edges(core.Backward, false)
	runtime.ReadMemStats(&after)
	edgeList := float64(pp.ne) * float64(pod.Size[core.Edge]())
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*edgeList {
		t.Errorf("one transpose build allocated %.0f bytes, %.2f × the %.0f of one edge list", got, got/edgeList, edgeList)
	}
	if int64(bwd.Len()) != pp.ne {
		t.Fatalf("transpose holds %d of %d edges", bwd.Len(), pp.ne)
	}
}

// BenchmarkTranspose times one transpose build of an RMAT-16 edge list on
// two threads, 64 partitions: ns/edge, and B/op against 12·E.
func BenchmarkTranspose(b *testing.B) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 16, EdgeFactor: 8, Seed: 36})
	pp, err := Prepare(src, Config{Threads: 2, Partitions: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transposeSink = transpose(pp.fwd, pp.part, pp.cfg.Threads)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*pp.ne), "ns/edge")
}

// transposeSink keeps BenchmarkTranspose's result live.
var transposeSink *streambuf.Buffer[core.Edge]

// TestConcurrentIndependentRuns: engine instances must not share state.
func TestConcurrentIndependentRuns(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 32, Undirected: true})
	ref, err := Run(src, &wccProg{}, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Run(src, &wccProg{}, Config{Threads: 2, Partitions: 8})
			if err != nil {
				errs[i] = err
				return
			}
			for v := range ref.Vertices {
				if res.Vertices[v].Label != ref.Vertices[v].Label {
					errs[i] = &mismatchError{v}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

type mismatchError struct{ v int }

func (e *mismatchError) Error() string { return "vertex mismatch" }

// TestHugePartitionCount: more partitions than vertices must still work
// (empty partitions are the common case in the tail).
func TestHugePartitionCount(t *testing.T) {
	edges := []core.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}}
	src := core.NewSliceSource(edges, 2)
	res, err := Run(src, &wccProg{}, Config{Threads: 2, Partitions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Vertices[0].Label != 0 || res.Vertices[1].Label != 0 {
		t.Fatalf("labels: %+v", res.Vertices)
	}
}
