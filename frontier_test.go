package xstream_test

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"testing"

	xstream "repro"
	"repro/internal/xstreamtest"
)

// changeProbe is a frontier program that records, per iteration, the
// sources its Scatter is called for and the receivers its Gather changes.
// It propagates the largest label without a combiner, so a vertex receives
// every update sent to it and most of them — a smaller label, or one an
// earlier update already brought — leave it unchanged.
type changeProbe struct {
	n                   int64
	iter                int
	scattered, received [][]atomic.Uint64
	changed             [][]atomic.Uint64
}

type probeState struct{ Label, Stamp int32 }

func (p *changeProbe) Name() string { return "change-probe" }

func (p *changeProbe) Init(id xstream.VertexID, v *probeState) {
	*v = probeState{Label: int32(uint32(id) * 2654435761 >> 22)}
}

func (p *changeProbe) InitiallyActive(xstream.VertexID, *probeState) bool { return true }

func (p *changeProbe) StartIteration(iter int) {
	p.iter = iter
	for _, sets := range []*[][]atomic.Uint64{&p.scattered, &p.received, &p.changed} {
		*sets = append(*sets, make([]atomic.Uint64, (p.n+63)/64))
	}
}

func mark(set []atomic.Uint64, v xstream.VertexID) { set[v>>6].Or(1 << (v & 63)) }

func (p *changeProbe) Scatter(e xstream.Edge, src *probeState) (int32, bool) {
	mark(p.scattered[p.iter], e.Src)
	return src.Label, src.Stamp == int32(p.iter)
}

func (p *changeProbe) Gather(dst xstream.VertexID, v *probeState, m int32) {
	mark(p.received[p.iter], dst)
	if m > v.Label {
		*v = probeState{Label: m, Stamp: int32(p.iter) + 1}
		mark(p.changed[p.iter], dst)
	}
}

func words(set []atomic.Uint64) []uint64 {
	out := make([]uint64, len(set))
	for i := range set {
		out[i] = set[i].Load()
	}
	return out
}

// TestFrontierHoldsOnlyChangedVertices: with one-record tiles a selective
// run calls Scatter for exactly the sources of its frontier, so the sources
// scattered in iteration i+1 are the frontier the gather of iteration i
// built. On an undirected graph, where every receiver has out-edges, that
// set must be exactly the receivers whose state the gather changed — not
// every receiver — on both engines, out of core with vertex state in memory
// and spilled (whose partitions gather through the sub-shuffled gather when
// a chunk holds 8192 updates or more).
func TestFrontierHoldsOnlyChangedVertices(t *testing.T) {
	src := xstreamtest.RMATUndirected(12, 5)
	n := src.NumVertices()
	for _, engine := range []string{"mem", "disk", "disk-spilled"} {
		t.Run(engine, func(t *testing.T) {
			p := &changeProbe{n: n}
			var st xstream.Stats
			if engine == "mem" {
				cfg := xstreamtest.MemConfig()
				cfg.Threads, cfg.Partitions, cfg.Selective, cfg.TileEdges = 2, 8, true, 1
				res, err := xstream.RunMemory(src, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st = res.Stats
			} else {
				cfg := xstreamtest.DiskConfig("frontier-" + engine)
				cfg.Threads, cfg.Partitions, cfg.IOUnit, cfg.Selective, cfg.TileEdges = 2, 2, 128<<10, true, 1
				if engine == "disk-spilled" {
					cfg.MemoryBudget = 5 * int64(cfg.IOUnit) * int64(cfg.Partitions)
				}
				res, err := xstream.RunDisk(src, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st = res.Stats
			}
			unchanged := 0
			for i := 1; i < st.Iterations; i++ {
				got, want := words(p.scattered[i]), words(p.changed[i-1])
				if !slices.Equal(got, want) {
					t.Fatalf("iteration %d scattered %d sources, want the %d vertices iteration %d changed",
						i, popcount(got), popcount(want), i-1)
				}
				unchanged += popcount(words(p.received[i-1])) - popcount(want)
			}
			if st.Iterations < 3 || unchanged == 0 {
				t.Fatalf("workload lost its shape: %d iterations, %d unchanged receivers", st.Iterations, unchanged)
			}
			t.Logf("%d iterations, %d receivers left unchanged", st.Iterations, unchanged)
		})
	}
}

func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}
