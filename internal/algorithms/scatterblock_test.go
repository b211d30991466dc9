package algorithms

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/pod"
)

// TestScatterBlockMatchesScatter pins which algorithms implement
// core.BlockScatterer, and holds each that does to its Scatter: the engines
// call ScatterBlock instead of Scatter, so on seeded blocks of 0 to 256
// edges at nonzero window offsets it must write the updates the per-edge
// loop writes — the same count, the same records in the same order, bit for
// bit — and leave the vertex window untouched. Weights and float states are
// drawn from a corpus of NaNs, ±0, ±Inf, negatives and extremes as well as
// from random bits; PageRank sources include out-degree 0, and BFS, SSSP and
// WCC sources are both fresh and stale in the current iteration.
func TestScatterBlockMatchesScatter(t *testing.T) {
	hooked := map[string]bool{"pagerank": true, "bfs": true, "sssp": true, "wcc": true}
	progs := registryPrograms(t)
	for _, name := range Names() {
		prog := progs[name]
		_, pr := prog.(core.BlockScatterer[PRState, float32])
		_, bfs := prog.(core.BlockScatterer[BFSState, int32])
		_, sssp := prog.(core.BlockScatterer[SSSPState, float32])
		_, wcc := prog.(core.BlockScatterer[WCCState, core.VertexID])
		if has := pr || bfs || sssp || wcc; has != hooked[name] {
			t.Errorf("%s implements ScatterBlock: %v, want %v", name, has, hooked[name])
		}
	}

	t.Run("pagerank", func(t *testing.T) {
		checkScatterBlock(t, NewPageRank(1), nil, func(rng *rand.Rand, _ int32) PRState {
			deg := uint32(0)
			switch rng.Intn(4) {
			case 1:
				deg = 1 + uint32(rng.Intn(100))
			case 2:
				deg = rng.Uint32()
			case 3:
				deg = math.MaxUint32
			}
			return PRState{Rank: randFloat(rng), Sum: randFloat(rng), Deg: deg}
		})
	})
	t.Run("bfs", func(t *testing.T) {
		p := NewBFS(0)
		checkScatterBlock(t, p, p.StartIteration, func(rng *rand.Rand, iter int32) BFSState {
			return BFSState{Dist: []int32{-1, 0, 1, int32(rng.Uint32()), math.MaxInt32, math.MinInt32}[rng.Intn(6)], Updated: randUpdated(rng, iter)}
		})
	})
	t.Run("sssp", func(t *testing.T) {
		p := NewSSSP(0)
		checkScatterBlock(t, p, p.StartIteration, func(rng *rand.Rand, iter int32) SSSPState {
			return SSSPState{Dist: randFloat(rng), Updated: randUpdated(rng, iter)}
		})
	})
	t.Run("wcc", func(t *testing.T) {
		p := NewWCC()
		checkScatterBlock(t, p, p.StartIteration, func(rng *rand.Rand, iter int32) WCCState {
			return WCCState{Label: core.VertexID(rng.Uint32()), Updated: randUpdated(rng, iter)}
		})
	})
}

// randFloat is a corpus value half the time, random bits otherwise.
func randFloat(rng *rand.Rand) float32 {
	if rng.Intn(2) == 0 {
		return floatCorpus[rng.Intn(len(floatCorpus))]
	}
	return math.Float32frombits(rng.Uint32())
}

// randUpdated is iter half the time, otherwise a neighbouring iteration or
// the never-updated -1.
func randUpdated(rng *rand.Rand, iter int32) int32 {
	if rng.Intn(2) == 0 {
		return iter
	}
	return []int32{-1, iter - 1, iter + 1}[rng.Intn(3)]
}

// checkScatterBlock compares prog's ScatterBlock with a Scatter call per
// edge over 500 seeded blocks, each at a fresh iteration (started through
// start, when the program has one) over a fresh window of vertex states.
func checkScatterBlock[V, M any](t *testing.T, prog core.Program[V, M], start func(int), vert func(*rand.Rand, int32) V) {
	t.Helper()
	bs, ok := prog.(core.BlockScatterer[V, M])
	if !ok {
		t.Fatalf("%s has no ScatterBlock", prog.Name())
	}
	const window = 97
	rng := rand.New(rand.NewSource(int64(len(prog.Name()))))
	verts := make([]V, window)
	got, want := make([]core.Update[M], 256), make([]core.Update[M], 0, 256)
	for round := range 500 {
		iter := int32(rng.Intn(5))
		if start != nil {
			start(int(iter))
		}
		for i := range verts {
			verts[i] = vert(rng, iter)
		}
		before := bytes.Clone(pod.AsBytes(verts))
		base := core.VertexID(1 + rng.Intn(1<<20))
		if round%7 == 0 {
			base = math.MaxUint32 - window + 1
		}
		size := rng.Intn(257)
		if round < 8 {
			size = []int{0, 1, 255, 256}[round%4]
		}
		blk := make([]core.Edge, size)
		for i := range blk {
			w := randFloat(rng)
			if rng.Intn(4) == 0 {
				w = -float32(rng.Intn(8))
			}
			blk[i] = core.Edge{Src: base + core.VertexID(rng.Intn(window)), Dst: core.VertexID(rng.Uint32()), Weight: w}
		}

		want = want[:0]
		for _, e := range blk {
			if m, ok := prog.Scatter(e, &verts[e.Src-base]); ok {
				want = append(want, core.Update[M]{Dst: e.Dst, Val: m})
			}
		}
		for i := range got {
			got[i] = core.Update[M]{Dst: 0xDEADBEEF}
		}
		n := bs.ScatterBlock(blk, verts, base, got[:len(blk)])
		where := fmt.Sprintf("%s round %d (%d edges, base %d, iteration %d)", prog.Name(), round, len(blk), base, iter)
		if n != len(want) {
			t.Fatalf("%s: ScatterBlock wrote %d updates, Scatter %d", where, n, len(want))
		}
		if gb, wb := pod.AsBytes(got[:n]), pod.AsBytes(want); !bytes.Equal(gb, wb) {
			for i := range want {
				if !bytes.Equal(pod.AsBytes(got[i:i+1]), pod.AsBytes(want[i:i+1])) {
					t.Fatalf("%s: update %d is %+v, Scatter's %+v", where, i, got[i], want[i])
				}
			}
		}
		if !bytes.Equal(pod.AsBytes(verts), before) {
			t.Fatalf("%s: ScatterBlock modified the vertex window", where)
		}
	}
}
