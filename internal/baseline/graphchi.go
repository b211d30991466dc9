package baseline

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

// shardEdge is the on-disk record of the GraphChi-like engine: the edge
// plus its mutable value (GraphChi communicates through edge values that
// are written back in place each iteration).
type shardEdge struct {
	Src, Dst core.VertexID
	W        float32 // immutable input weight
	Val      float32 // mutable edge value
}

// GraphChi is a GraphChi-like out-of-core vertex-centric engine (Kyrola &
// Blelloch [37], compared against in Figures 22 and 23) built on parallel
// sliding windows:
//
//   - Pre-processing sorts the edges into P shards — shard p holds the
//     edges whose destination falls in vertex interval p, sorted by source
//     — where P is chosen so a shard's *edges* fit in memory. This is the
//     "pre-sort" cost of Figure 22, and because shards must hold edges
//     (not just vertex state, as X-Stream's partitions do) P exceeds
//     X-Stream's partition count.
//   - Each iteration executes interval by interval: the memory shard is
//     loaded and re-sorted by destination so in-edges can be enumerated
//     per vertex (the "re-sort" cost of Figure 22), the sliding window of
//     every other shard is read (P reads per interval, P² per iteration —
//     the fragmented I/O visible in Figure 23), vertices update, and
//     changed out-edge values are written back in place.
//
// Algorithms are expressed as FloatKernel: scalar vertex state, scalar
// edge values. Note the float32 label limitation for WCC-style kernels:
// exact only for graphs under 2^24 vertices, which all stand-ins satisfy.
type GraphChi struct {
	dev    storage.Device
	prefix string

	n        int64
	perIvl   int64
	P        int
	files    []storage.File
	shardLen []int64   // records per shard
	windows  [][]int64 // windows[q][p] = first record in shard q with Src >= interval p start
	outDeg   []int32

	// PreSortTime is the shard construction (sort) time; ReSortTime
	// accumulates the per-interval in-memory re-sort by destination.
	PreSortTime time.Duration
	ReSortTime  time.Duration
	// Iterations is the executed iteration count.
	Iterations int
}

// NewGraphChi shards the input onto dev. memBudget bounds the edge bytes
// of one shard (the defining GraphChi constraint).
func NewGraphChi(dev storage.Device, src core.EdgeSource, memBudget int64, prefix string) (*GraphChi, error) {
	t0 := time.Now()
	edges, err := core.Materialize(src)
	if err != nil {
		return nil, err
	}
	n := src.NumVertices()
	recSize := int64(pod.Size[shardEdge]())
	shardBudget := memBudget / 4
	if shardBudget < recSize*16 {
		shardBudget = recSize * 16
	}
	p := int((int64(len(edges))*recSize + shardBudget - 1) / shardBudget)
	if p < 1 {
		p = 1
	}
	g := &GraphChi{
		dev:    dev,
		prefix: prefix,
		n:      n,
		P:      p,
		perIvl: (n + int64(p) - 1) / int64(p),
		outDeg: make([]int32, n),
	}
	if g.perIvl < 1 {
		g.perIvl = 1
	}

	// Bucket edges by destination interval, sort each bucket by source,
	// write shard files and window offsets.
	buckets := make([][]shardEdge, p)
	for _, e := range edges {
		ivl := int(int64(e.Dst) / g.perIvl)
		buckets[ivl] = append(buckets[ivl], shardEdge{Src: e.Src, Dst: e.Dst, W: e.Weight})
		g.outDeg[e.Src]++
	}
	g.files = make([]storage.File, p)
	g.shardLen = make([]int64, p)
	g.windows = make([][]int64, p)
	for q := 0; q < p; q++ {
		b := buckets[q]
		sort.Slice(b, func(i, j int) bool { return b[i].Src < b[j].Src })
		f, err := dev.Create(fmt.Sprintf("%sshard%04d", prefix, q))
		if err != nil {
			return nil, err
		}
		if err := storage.WriteFull(f, pod.AsBytes(b), 0); err != nil {
			return nil, err
		}
		g.files[q] = f
		g.shardLen[q] = int64(len(b))
		// Window offsets: first record with Src in interval >= i.
		w := make([]int64, p+1)
		idx := 0
		for i := 0; i <= p; i++ {
			bound := core.VertexID(int64(i) * g.perIvl)
			for idx < len(b) && b[idx].Src < bound {
				idx++
			}
			w[i] = int64(idx)
		}
		g.windows[q] = w
	}
	g.PreSortTime = time.Since(t0)
	return g, nil
}

// Close removes the shard files.
func (g *GraphChi) Close() {
	for q, f := range g.files {
		if f != nil {
			f.Close()
			g.dev.Remove(fmt.Sprintf("%sshard%04d", g.prefix, q))
		}
	}
}

// EdgeVal is an in-edge as seen by a vertex kernel.
type EdgeVal struct {
	Val float32 // current edge value
	W   float32 // immutable weight
}

// FloatKernel is a vertex-centric program with scalar state and scalar
// edge values.
type FloatKernel struct {
	Name string
	// Init produces the initial vertex state.
	Init func(id core.VertexID) float32
	// Apply folds the in-edge values into a new state.
	Apply func(id core.VertexID, state float32, in []EdgeVal) float32
	// Out computes the new value for the vertex's out-edges.
	Out func(id core.VertexID, state float32, outDeg int32) float32
	// Converged, if non-nil, stops when an iteration changes no state by
	// more than its tolerance; otherwise Iters bounds the run.
	Converged func(delta float64) bool
	Iters     int
}

// recSize is the shard record size.
var gcRecSize = pod.Size[shardEdge]()

// Run executes the kernel and returns the final vertex states.
func (g *GraphChi) Run(k FloatKernel) ([]float32, error) {
	state := make([]float32, g.n)
	for v := int64(0); v < g.n; v++ {
		state[v] = k.Init(core.VertexID(v))
	}
	// Seed edge values from initial states so iteration 1 sees them.
	if err := g.seedValues(k, state); err != nil {
		return nil, err
	}

	maxIters := k.Iters
	if maxIters <= 0 {
		maxIters = 1 << 20
	}
	inBuf := make([]EdgeVal, 0, 256)
	for it := 0; it < maxIters; it++ {
		var delta float64
		for p := 0; p < g.P; p++ {
			// Load the memory shard (in-edges of interval p) and re-sort
			// by destination.
			mem, err := g.readRange(p, 0, g.shardLen[p])
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			sort.Slice(mem, func(i, j int) bool { return mem[i].Dst < mem[j].Dst })
			g.ReSortTime += time.Since(t0)

			// Apply the kernel to every vertex of the interval, with its
			// (possibly empty) in-edge list.
			loV := int64(p) * g.perIvl
			hiV := loV + g.perIvl
			if hiV > g.n {
				hiV = g.n
			}
			idx := 0
			for v := loV; v < hiV; v++ {
				inBuf = inBuf[:0]
				for idx < len(mem) && int64(mem[idx].Dst) == v {
					inBuf = append(inBuf, EdgeVal{Val: mem[idx].Val, W: mem[idx].W})
					idx++
				}
				old := state[v]
				state[v] = k.Apply(core.VertexID(v), old, inBuf)
				if diff := float64(state[v]) - float64(old); diff > delta {
					delta = diff
				} else if -diff > delta {
					delta = -diff
				}
			}

			// Scatter: rewrite the out-edge values of interval p in every
			// shard's sliding window (P fragmented read+write pairs).
			for q := 0; q < g.P; q++ {
				lo, hi := g.windows[q][p], g.windows[q][p+1]
				if lo == hi {
					continue
				}
				win, err := g.readRange(q, lo, hi)
				if err != nil {
					return nil, err
				}
				for i := range win {
					win[i].Val = k.Out(win[i].Src, state[win[i].Src], g.outDeg[win[i].Src])
				}
				if err := storage.WriteFull(g.files[q], pod.AsBytes(win), lo*int64(gcRecSize)); err != nil {
					return nil, err
				}
			}
		}
		g.Iterations = it + 1
		if k.Converged != nil && k.Converged(delta) {
			break
		}
	}
	return state, nil
}

// seedValues initializes all edge values from the initial vertex states.
func (g *GraphChi) seedValues(k FloatKernel, state []float32) error {
	for q := 0; q < g.P; q++ {
		recs, err := g.readRange(q, 0, g.shardLen[q])
		if err != nil {
			return err
		}
		for i := range recs {
			recs[i].Val = k.Out(recs[i].Src, state[recs[i].Src], g.outDeg[recs[i].Src])
		}
		if err := storage.WriteFull(g.files[q], pod.AsBytes(recs), 0); err != nil {
			return err
		}
	}
	return nil
}

// readRange reads records [lo, hi) of shard q.
func (g *GraphChi) readRange(q int, lo, hi int64) ([]shardEdge, error) {
	recs := make([]shardEdge, hi-lo)
	if err := storage.ReadFull(g.files[q], pod.AsBytes(recs), lo*int64(gcRecSize)); err != nil {
		return nil, fmt.Errorf("baseline: shard %d: %w", q, err)
	}
	return recs, nil
}

// PageRankKernel is damped PageRank with the shared conventions.
func PageRankKernel(iters int) FloatKernel {
	return FloatKernel{
		Name: "pagerank",
		Init: func(id core.VertexID) float32 { return 1 },
		Apply: func(id core.VertexID, state float32, in []EdgeVal) float32 {
			sum := float32(0)
			for _, e := range in {
				sum += e.Val
			}
			return 0.15 + 0.85*sum
		},
		Out: func(id core.VertexID, state float32, outDeg int32) float32 {
			if outDeg == 0 {
				return 0
			}
			return state / float32(outDeg)
		},
		Iters: iters,
	}
}

// WCCKernel is min-label propagation with float32 labels (exact for
// graphs under 2^24 vertices).
func WCCKernel() FloatKernel {
	return FloatKernel{
		Name: "wcc",
		Init: func(id core.VertexID) float32 { return float32(id) },
		Apply: func(id core.VertexID, state float32, in []EdgeVal) float32 {
			m := state
			for _, e := range in {
				if e.Val < m {
					m = e.Val
				}
			}
			return m
		},
		Out:       func(id core.VertexID, state float32, outDeg int32) float32 { return state },
		Converged: func(delta float64) bool { return delta == 0 },
	}
}

// BPKernel is a scalar belief-propagation-style smoothing kernel matching
// the X-Stream BP's communication pattern.
func BPKernel(iters int) FloatKernel {
	return FloatKernel{
		Name: "bp",
		Init: func(id core.VertexID) float32 {
			h := uint64(id)*0x9E3779B97F4A7C15 + 17
			h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
			return 0.3 + 0.4*float32(h>>40)/float32(1<<24)
		},
		Apply: func(id core.VertexID, state float32, in []EdgeVal) float32 {
			if len(in) == 0 {
				return state
			}
			sum := float32(0)
			for _, e := range in {
				sum += e.Val
			}
			return 0.5*state + 0.5*sum/float32(len(in))
		},
		Out:   func(id core.VertexID, state float32, outDeg int32) float32 { return 0.9*state + 0.05 },
		Iters: iters,
	}
}

// ALSLikeKernel is a rank-1 matrix factorization sweep: the same
// communication and I/O pattern as ALS with scalar factors.
func ALSLikeKernel(iters int) FloatKernel {
	return FloatKernel{
		Name: "als-like",
		Init: func(id core.VertexID) float32 {
			h := uint64(id)*0x9E3779B97F4A7C15 + 5
			h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
			return 0.1 + 0.8*float32(h>>40)/float32(1<<24)
		},
		Apply: func(id core.VertexID, state float32, in []EdgeVal) float32 {
			// Least-squares fit of scalar factor: argmin Σ (r - x·f)².
			var num, den float32
			for _, e := range in {
				num += e.W * e.Val
				den += e.Val * e.Val
			}
			if den == 0 {
				return state
			}
			return num / (den + 0.05)
		},
		Out:   func(id core.VertexID, state float32, outDeg int32) float32 { return state },
		Iters: iters,
	}
}
