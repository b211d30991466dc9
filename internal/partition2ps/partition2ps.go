// Package partition2ps is a locality-aware streaming partitioner in the
// style of 2PS ("2PS: High-Quality Edge Partitioning with Two-Phase
// Streaming", Mayer et al.) adapted to X-Stream's contiguous-range
// constraint.
//
// X-Stream fixes streaming partitions as equal contiguous vertex-ID
// ranges, so shuffle traffic — the updates that must hop between
// partitions — is entirely determined by the input's vertex ordering. Two
// cheap streaming passes over the unordered edge list recover most of the
// locality a heavyweight offline partitioner would find:
//
//   - Phase 1 (clustering) re-streams the edge list once and greedily
//     grows degree-weighted vertex clusters under a per-cluster volume
//     cap: the endpoints of each edge join or merge clusters whenever the
//     cap allows, so clusters trace the graph's community structure in
//     stream order. Degrees come from one prior counting pass (EdgeSource
//     is re-streamable by contract; no sorting, no index, O(V) state).
//
//   - Phase 2 (packing) never touches the edge list: clusters are packed
//     whole into the K equal-sized partitions, and the packing is emitted
//     as a vertex *relabeling permutation*. Two packing policies exist:
//     the default best-fit decreasing on vertex count ("2ps"), which on
//     core-periphery graphs concentrates the dense core into few
//     partitions and wins the most cross-partition traffic, and HEP-style
//     volume-balanced packing ("2psv", Config.VolumeBalance), which evens
//     partitions out by degree sum instead. Either way the partitions
//     stay contiguous ID ranges — X-Stream's sequential vertex-state
//     access, partition files and shuffle plans are all untouched — but
//     now a range boundary is a cluster boundary, not an accident of
//     input order.
//
// The result plugs into engines through core.Partitioner; preprocessing
// cost is two edge streams plus an O(V log V) sort, and the engines remap
// results back so callers never see relabeled IDs.
package partition2ps

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Config tunes the clustering phase.
type Config struct {
	// VolumeCapFactor scales the per-cluster volume cap relative to the
	// average partition volume 2·E/K. Smaller caps give the packer more,
	// smaller clusters to balance with; larger caps chase bigger
	// communities at the risk of fragmenting the packing. 0 means 1.0,
	// i.e. a cluster may grow to one partition's worth of edge volume.
	VolumeCapFactor float64
	// Passes is the number of clustering passes over the edge list.
	// Later passes revisit every edge with the cluster structure of the
	// previous pass in place, letting early edges join clusters that did
	// not exist yet when they first streamed by. 0 means 2.
	Passes int
	// VolumeBalance switches phase 2 to HEP-style volume-balanced packing:
	// partitions are evened out by degree sum (the work a partition
	// causes) instead of best-fit on vertex count. On power-law graphs
	// this spreads the dense core and *raises* the cross-edge fraction.
	// The partitioner reports itself as "2psv" in this mode.
	VolumeBalance bool
}

// Partitioner implements core.Partitioner with two-phase streaming
// clustering. The zero value uses default tuning; values are safe to reuse
// across Assign calls but not concurrently.
type Partitioner struct {
	cfg Config
}

// New returns a 2PS partitioner with default tuning.
func New() *Partitioner { return &Partitioner{} }

// NewVolumeBalanced returns a 2PS partitioner with volume-balanced
// packing ("2psv").
func NewVolumeBalanced() *Partitioner {
	return &Partitioner{cfg: Config{VolumeBalance: true}}
}

// Name implements core.Partitioner.
func (p *Partitioner) Name() string {
	if p.cfg.VolumeBalance {
		return "2psv"
	}
	return "2ps"
}

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

	// Pass 1: per-vertex degrees (undirected degree: each record counts
	// at both endpoints, matching the volume an edge contributes to the
	// partitions of its two vertices).
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

	capFactor := p.cfg.VolumeCapFactor
	if capFactor <= 0 {
		capFactor = 1.0
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

	// Phase 1: grow clusters along the edge stream. Re-streaming is free
	// of any ordering assumptions: whatever order the source yields,
	// endpoints sharing many edges tend to end up sharing a cluster.
	passes := p.cfg.Passes
	if passes <= 0 {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		err = src.Edges(func(batch []core.Edge) error {
			for _, e := range batch {
				c.observe(e.Src, e.Dst)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	relabel, inverse := pack(c, split, n, p.cfg.VolumeBalance)
	return &core.Assignment{Split: split, Relabel: relabel, Inverse: inverse}, nil
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
// relabeling permutation. Two policies share the machinery:
//
//   - Count packing (the default): best-fit decreasing on member count.
//     Bins fill snuggest-first, which keeps scan-order-adjacent clusters
//     together and — on core-periphery graphs like R-MAT — piles the
//     cap-sized fragments of the dense core back into few partitions.
//     That concentration is where most of 2PS's cross-traffic win comes
//     from, at the price of heavily skewed per-partition edge volume
//     (4x the mean is common).
//
//   - Volume packing (HEP-style, volumeBalance=true): heavy clusters go
//     largest-degree-sum first into the least-volume bin with ID room
//     (LPT scheduling); the light tail then pours sequentially, hopping
//     bins only toward under-target volume, so partitions end up even in
//     the work they cause — edges streamed, updates received — not
//     merely in vertex count. Spreading the dense core this way raises
//     the cross-*edge* fraction on power-law graphs.
//
// In both policies the hard constraint is the ID room — every bin holds
// exactly one partition's worth of vertex IDs. Clusters that fit nowhere
// whole are split across the bins with remaining room — the correctness
// fallback that makes the packing total — and isolated vertices (degree
// 0, never seen on an edge) pad the remaining room.
func pack(c *clustering, split core.Split, n int64, volumeBalance bool) (relabel, inverse []core.VertexID) {
	// Dense cluster indices in vertex-scan order (deterministic).
	denseOf := make(map[int32]int32, 64)
	var counts []int64
	var vols []int64              // degree sum of each dense cluster
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
			vols = append(vols, 0)
		}
		clusterOf[v] = idx
		counts[idx]++
		vols[idx] += int64(c.deg[v])
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
	for i := 0; i < k; i++ {
		lo, hi := split.Range(i, n)
		room[i] = hi - lo
	}
	binVol := make([]int64, k) // accumulated degree volume per bin
	next := make([]int64, k)   // next relabeled ID to hand out per bin
	for i := 0; i < k; i++ {
		next[i], _ = split.Range(i, n)
	}
	relabel = make([]core.VertexID, n)
	place := func(bin int, verts []core.VertexID) {
		for _, v := range verts {
			relabel[v] = core.VertexID(next[bin])
			next[bin]++
			binVol[bin] += int64(c.deg[v])
		}
		room[bin] -= int64(len(verts))
	}
	// emptiest returns the least-volume bin with ID room for cnt more
	// vertices (ties to the lower index, for determinism), or -1.
	emptiest := func(cnt int64) int {
		best := -1
		for i := 0; i < k; i++ {
			if room[i] >= cnt && (best < 0 || binVol[i] < binVol[best]) {
				best = i
			}
		}
		return best
	}
	// fragment splits a cluster that fits nowhere whole over the bins
	// with remaining room — the correctness fallback. The volume policy
	// spreads emptiest-volume-first; the count policy keeps its historic
	// bin-index order, so default "2ps" permutations are unchanged by
	// the volume-balancing refactor.
	fragment := func(verts []core.VertexID) {
		if !volumeBalance {
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
			return
		}
		for len(verts) > 0 {
			bin := -1
			for i := 0; i < k; i++ {
				if room[i] > 0 && (bin < 0 || binVol[i] < binVol[bin]) {
					bin = i
				}
			}
			if bin < 0 {
				return // cannot happen: total room always covers all vertices
			}
			take := room[bin]
			if take > int64(len(verts)) {
				take = int64(len(verts))
			}
			place(bin, verts[:take])
			verts = verts[take:]
		}
	}

	if volumeBalance {
		// Volume packing in two tiers. Heavy clusters — the ones whose
		// placement decides the volume balance, or whose member count
		// makes them a fragmentation risk — go first, largest volume
		// first, each into the least-volume bin with ID room (LPT). The
		// light tail then pours sequentially: consecutive clusters in
		// vertex-scan order share the community adjacency of the input,
		// so the packer keeps pouring into one bin until it reaches the
		// per-bin volume target (or runs out of ID room) before hopping
		// to the then-emptiest bin.
		var totalVol int64
		for _, v := range vols {
			totalVol += v
		}
		targetVol := (totalVol + int64(k) - 1) / int64(k)
		heavy := make([]int32, 0, k)
		light := make([]int32, 0, len(counts))
		for i := range counts {
			if vols[i] >= targetVol/2 || counts[i] >= split.PerPartition()/2 {
				heavy = append(heavy, int32(i))
			} else {
				light = append(light, int32(i))
			}
		}
		sort.SliceStable(heavy, func(a, b int) bool {
			va, vb := vols[heavy[a]], vols[heavy[b]]
			if va != vb {
				return va > vb
			}
			ca, cb := counts[heavy[a]], counts[heavy[b]]
			if ca != cb {
				return ca > cb
			}
			return heavy[a] < heavy[b]
		})
		for _, idx := range heavy {
			verts := members[starts[idx]:starts[idx+1]]
			if bin := emptiest(counts[idx]); bin >= 0 {
				place(bin, verts)
			} else {
				fragment(verts)
			}
		}
		cur := -1
		for _, idx := range light {
			cnt := counts[idx]
			verts := members[starts[idx]:starts[idx+1]]
			switch {
			case cur < 0 || room[cur] < cnt:
				cur = emptiest(cnt)
			case binVol[cur] >= targetVol:
				// Hop only when an under-target bin can take the cluster;
				// bouncing between over-target bins would shred the scan-
				// order adjacency of the tail for no balance gain.
				if cand := emptiest(cnt); cand >= 0 && binVol[cand] < targetVol {
					cur = cand
				}
			}
			if cur >= 0 {
				place(cur, verts)
			} else {
				fragment(verts)
			}
		}
	} else {
		// Count packing: best-fit decreasing — biggest clusters claim the
		// snuggest bins.
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
