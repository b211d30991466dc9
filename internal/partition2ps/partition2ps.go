// Package partition2ps is a locality-aware streaming partitioner in the
// style of 2PS ("2PS: High-Quality Edge Partitioning with Two-Phase
// Streaming", Mayer et al.) adapted to X-Stream's contiguous-range
// constraint.
//
// X-Stream fixes streaming partitions as equal contiguous vertex-ID
// ranges, so shuffle traffic — the updates that must hop between
// partitions — is entirely determined by the input's vertex ordering. Two
// cheap streaming phases over the unordered edge list recover most of the
// locality a heavyweight offline partitioner would find:
//
//   - Phase 1 (clustering) streams the edge list twice and greedily grows
//     degree-weighted vertex clusters under a per-cluster volume cap: the
//     endpoints of each edge join or merge clusters whenever the cap
//     allows, so clusters trace the graph's community structure in stream
//     order. Degrees come from one prior counting pass (EdgeSource is
//     re-streamable by contract; no sorting, no index, O(V) state). A
//     pass skips a settled edge, whose endpoints hold one cluster slot,
//     without touching degrees or the union-find, and between passes
//     every vertex's slot is replaced by its root, so the second pass
//     skips every edge inside a cluster. Both leave the result exactly
//     what observing every edge gives.
//
//   - Phase 2 (packing) never touches the edge list: clusters are packed
//     whole into the K equal-sized partitions, and the packing is emitted
//     as a vertex *relabeling permutation*. Packing is best-fit
//     decreasing on vertex count, which on core-periphery graphs
//     concentrates the dense core into few partitions and wins the most
//     cross-partition traffic. The partitions stay contiguous ID ranges —
//     X-Stream's sequential vertex-state access, partition files and
//     shuffle plans are all untouched — but now a range boundary is a
//     cluster boundary, not an accident of input order.
//
// The result plugs into engines through core.Partitioner; Assign streams
// the input three times (degrees, two clustering passes) plus an
// O(V log V) sort, the engine's relabeling pre-processing shuffle streams
// it a fourth time, and the engines remap results back so callers never
// see relabeled IDs.
package partition2ps

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Clustering defaults. The per-cluster volume cap is volumeCapFactor times
// the average partition volume 2·E/K: a cluster may grow to one
// partition's worth of edge volume. Smaller caps give the packer more,
// smaller clusters to place; larger ones chase bigger communities at the
// risk of fragmenting the packing. Each of the clusteringPasses passes
// revisits every edge with the previous pass's clusters in place, so early
// edges can join clusters that did not exist yet when they first streamed
// by.
const (
	volumeCapFactor  = 1.0
	clusteringPasses = 2
)

// Partitioner implements core.Partitioner with two-phase streaming
// clustering. The zero value is the policy; values are safe to reuse
// across Assign calls but not concurrently.
type Partitioner struct {
	// capFactor and passes override volumeCapFactor and clusteringPasses
	// when positive. Only this package's tests set them, to reach the
	// cap-fragmenting and one- and three-pass paths.
	capFactor float64
	passes    int
}

// New returns a 2PS partitioner.
func New() *Partitioner { return &Partitioner{} }

// Name implements core.Partitioner.
func (p *Partitioner) Name() string { return "2ps" }

// noCluster marks a vertex not yet claimed by any cluster.
const noCluster = int32(-1)

// Assign implements core.Partitioner: degree pass, clustering pass(es),
// pack, emit permutation.
func (p *Partitioner) Assign(src core.EdgeSource, k int) (*core.Assignment, error) {
	n := src.NumVertices()
	if k < 1 {
		k = 1
	}
	split := core.NewSplit(n, k)
	if n == 0 || k == 1 {
		// Nothing to rearrange: a single partition holds everything.
		return &core.Assignment{Split: split}, nil
	}
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("partition2ps: %d vertices exceed the 32-bit ID space", n)
	}

	c, err := p.newClustering(src, split)
	if err != nil {
		return nil, err
	}

	// Phase 1: grow clusters along the edge stream. Re-streaming is free
	// of any ordering assumptions: whatever order the source yields,
	// endpoints sharing many edges tend to end up sharing a cluster.
	passes := p.passes
	if passes <= 0 {
		passes = clusteringPasses
	}
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			c.flatten()
		}
		err = src.Edges(func(batch []core.Edge) error {
			for _, e := range batch {
				// A settled edge, both endpoints in one slot, is one that
				// observe would leave alone: equal slots have equal roots.
				if cu := c.cluster[e.Src]; cu != noCluster && cu == c.cluster[e.Dst] {
					continue
				}
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

// newClustering streams src once for per-vertex degrees (undirected
// degree: each record counts at both endpoints, matching the volume an
// edge contributes to the partitions of its two vertices) and returns the
// empty clustering with its caps set.
func (p *Partitioner) newClustering(src core.EdgeSource, split core.Split) (*clustering, error) {
	n := src.NumVertices()
	k := split.K
	deg := make([]uint32, n)
	var totalVol int64
	err := src.Edges(func(batch []core.Edge) error {
		for _, e := range batch {
			if int64(e.Src) >= n || int64(e.Dst) >= n {
				return fmt.Errorf("partition2ps: edge (%d,%d) references a vertex outside [0,%d)", e.Src, e.Dst, n)
			}
			deg[e.Src]++
			deg[e.Dst]++
		}
		totalVol += 2 * int64(len(batch))
		return nil
	})
	if err != nil {
		return nil, err
	}

	capFactor := p.capFactor
	if capFactor <= 0 {
		capFactor = volumeCapFactor
	}
	capVol := int64(float64(totalVol) / float64(k) * capFactor)
	if capVol < 2 {
		capVol = 2
	}
	capCnt := split.PerPartition()

	c := &clustering{
		cluster: make([]int32, n),
		deg:     deg,
		capVol:  capVol,
		capCnt:  capCnt,
	}
	for i := range c.cluster {
		c.cluster[i] = noCluster
	}
	return c, nil
}

// clustering is the O(V) phase-1 state: a union-find forest over cluster
// slots plus per-root volume (sum of member degrees) and member counts.
type clustering struct {
	cluster []int32 // vertex -> cluster slot, or noCluster
	deg     []uint32
	parent  []int32 // cluster slot -> parent slot (union-find)
	vol     []int64 // root slot -> volume
	cnt     []int64 // root slot -> member count
	capVol  int64
	capCnt  int64
}

func (c *clustering) find(x int32) int32 {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]] // path halving
		x = c.parent[x]
	}
	return x
}

// flatten points every clustered vertex's slot at its root, so the next
// pass's settled-edge check sees every edge inside one cluster. Roots,
// volumes and counts are unchanged.
func (c *clustering) flatten() {
	for v, slot := range c.cluster {
		if slot != noCluster {
			c.cluster[v] = c.find(slot)
		}
	}
}

func (c *clustering) newCluster(vol int64, cnt int64) int32 {
	id := int32(len(c.parent))
	c.parent = append(c.parent, id)
	c.vol = append(c.vol, vol)
	c.cnt = append(c.cnt, cnt)
	return id
}

// observe processes one edge: join unassigned endpoints to the other
// endpoint's cluster, start a fresh cluster for a fresh pair, or merge two
// clusters — always subject to the volume and member-count caps.
func (c *clustering) observe(u, v core.VertexID) {
	du, dv := int64(c.deg[u]), int64(c.deg[v])
	cu, cv := c.cluster[u], c.cluster[v]
	if cu != noCluster {
		cu = c.find(cu)
	}
	if cv != noCluster {
		cv = c.find(cv)
	}
	switch {
	case u == v:
		if cu == noCluster {
			c.cluster[u] = c.newCluster(du, 1)
		}
	case cu == noCluster && cv == noCluster:
		if du+dv <= c.capVol && c.capCnt >= 2 {
			id := c.newCluster(du+dv, 2)
			c.cluster[u], c.cluster[v] = id, id
		} else {
			c.cluster[u] = c.newCluster(du, 1)
			c.cluster[v] = c.newCluster(dv, 1)
		}
	case cu == noCluster:
		if c.vol[cv]+du <= c.capVol && c.cnt[cv] < c.capCnt {
			c.cluster[u] = cv
			c.vol[cv] += du
			c.cnt[cv]++
		} else {
			c.cluster[u] = c.newCluster(du, 1)
		}
	case cv == noCluster:
		if c.vol[cu]+dv <= c.capVol && c.cnt[cu] < c.capCnt {
			c.cluster[v] = cu
			c.vol[cu] += dv
			c.cnt[cu]++
		} else {
			c.cluster[v] = c.newCluster(dv, 1)
		}
	case cu != cv:
		if c.vol[cu]+c.vol[cv] <= c.capVol && c.cnt[cu]+c.cnt[cv] <= c.capCnt {
			// Merge the smaller cluster into the larger; ties by lower
			// slot for determinism.
			if c.cnt[cu] < c.cnt[cv] || (c.cnt[cu] == c.cnt[cv] && cv < cu) {
				cu, cv = cv, cu
			}
			c.parent[cv] = cu
			c.vol[cu] += c.vol[cv]
			c.cnt[cu] += c.cnt[cv]
		}
	}
}

// pack lays clusters out into the K contiguous ranges and returns the
// relabeling permutation: best-fit decreasing on member count. Bins fill
// snuggest-first, which keeps scan-order-adjacent clusters together and —
// on core-periphery graphs like R-MAT — piles the cap-sized fragments of
// the dense core back into few partitions. That concentration is where
// most of 2PS's cross-traffic win comes from, at the price of skewed
// per-partition edge volume (4x the mean is common).
//
// The hard constraint is the ID room — every bin holds exactly one
// partition's worth of vertex IDs. A cluster that fits nowhere whole is
// split over the bins with remaining room in bin order — the correctness
// fallback that makes the packing total — and isolated vertices (degree 0,
// never seen on an edge) pad the remaining room.
func pack(c *clustering, split core.Split, n int64) (relabel, inverse []core.VertexID) {
	// Dense cluster indices in vertex-scan order (deterministic).
	denseOf := make(map[int32]int32, 64)
	var counts []int64
	clusterOf := make([]int32, n) // vertex -> dense cluster index, -1 isolated
	var isolated int64
	for v := int64(0); v < n; v++ {
		slot := c.cluster[v]
		if slot == noCluster {
			clusterOf[v] = -1
			isolated++
			continue
		}
		root := c.find(slot)
		idx, ok := denseOf[root]
		if !ok {
			idx = int32(len(counts))
			denseOf[root] = idx
			counts = append(counts, 0)
		}
		clusterOf[v] = idx
		counts[idx]++
	}

	// Bucket members by cluster, ascending vertex ID within each.
	starts := make([]int64, len(counts)+1)
	for i, cnt := range counts {
		starts[i+1] = starts[i] + cnt
	}
	members := make([]core.VertexID, n-isolated)
	fill := append([]int64(nil), starts[:len(counts)]...)
	isolatedVerts := make([]core.VertexID, 0, isolated)
	for v := int64(0); v < n; v++ {
		if idx := clusterOf[v]; idx >= 0 {
			members[fill[idx]] = core.VertexID(v)
			fill[idx]++
		} else {
			isolatedVerts = append(isolatedVerts, core.VertexID(v))
		}
	}

	k := split.K
	room := make([]int64, k)
	next := make([]int64, k) // next relabeled ID to hand out per bin
	for i := 0; i < k; i++ {
		lo, hi := split.Range(i, n)
		room[i], next[i] = hi-lo, lo
	}
	relabel = make([]core.VertexID, n)
	place := func(bin int, verts []core.VertexID) {
		for _, v := range verts {
			relabel[v] = core.VertexID(next[bin])
			next[bin]++
		}
		room[bin] -= int64(len(verts))
	}
	// fragment splits a cluster that fits nowhere whole over the bins
	// with remaining room, in bin order.
	fragment := func(verts []core.VertexID) {
		for i := 0; i < k && len(verts) > 0; i++ {
			take := room[i]
			if take > int64(len(verts)) {
				take = int64(len(verts))
			}
			if take > 0 {
				place(i, verts[:take])
				verts = verts[take:]
			}
		}
	}

	// Best-fit decreasing: the biggest clusters claim the snuggest bins.
	order := make([]int32, len(counts))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := counts[order[a]], counts[order[b]]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	for _, idx := range order {
		cnt := counts[idx]
		verts := members[starts[idx]:starts[idx+1]]
		best := -1
		for i := 0; i < k; i++ {
			if room[i] >= cnt && (best < 0 || room[i] < room[best]) {
				best = i
			}
		}
		if best >= 0 {
			place(best, verts)
		} else {
			fragment(verts)
		}
	}
	// Isolated vertices pad the remaining room in bin order.
	vi := 0
	for i := 0; i < k && vi < len(isolatedVerts); i++ {
		for room[i] > 0 && vi < len(isolatedVerts) {
			place(i, isolatedVerts[vi:vi+1])
			vi++
		}
	}

	inverse = make([]core.VertexID, n)
	for old, nw := range relabel {
		inverse[nw] = core.VertexID(old)
	}
	return relabel, inverse
}
