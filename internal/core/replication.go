package core

// replication.go is the vertex-replication (mirror) subsystem of the
// partitioner layer.
//
// On power-law graphs the shuffle traffic X-Stream pays every iteration is
// dominated by a handful of hub vertices: a vertex of in-degree d receives
// up to d updates per iteration, and almost all of them cross streaming
// partitions. Streaming edge partitioners built for such graphs — HDRF
// ("HDRF: Stream-Based Partitioning for Power-Law Graphs", Petroni et al.)
// and the Hybrid Edge Partitioner (Mayer & Jacobsen) — win precisely by
// treating high-degree vertices specially: they *replicate* them, placing a
// mirror next to every partition that touches their edges, so per-edge
// communication becomes per-mirror communication.
//
// The adaptation to X-Stream's model: edges stay bucketed by source
// partition (scatter always reads the source vertex locally), so the only
// cross-partition traffic is the update stream. For a selected hub vertex
// each scattering partition keeps a partition-local *mirror accumulator*;
// every update addressed to the hub is merged into it with the program's
// Combiner instead of entering the update stream, and when the partition's
// edges are exhausted the accumulator is flushed as a single master-mirror
// sync update. A hub of in-degree d thus costs at most one update per
// scattering partition per iteration instead of d — the flood of
// cross-partition updates collapses to K-1 syncs. Because the merge is the
// program's own Combiner, results are unchanged (the Combiner contract);
// programs without a Combiner simply fall back to no replication.
//
// Selection is degree-based, in the HDRF/HEP spirit: one streaming pass
// counts in-degrees and the vertices above a threshold (a multiple of the
// mean, with an absolute floor and a top-k cap) become hubs. Any
// Partitioner can be wrapped with NewReplicatingPartitioner; the resulting
// Assignment carries the hub set and both engines honor it.

import (
	"fmt"
	"slices"
	"sort"
)

// Replication is the mirror set of a partitioning assignment: the hub
// vertices whose cross-partition updates the engines absorb into
// partition-local mirror accumulators and flush as per-partition sync
// updates. Build one with NewReplication; the zero value means "no
// vertex is mirrored".
type Replication struct {
	// Hubs lists the mirrored vertices as execution (relabeled) IDs in
	// ascending order. Mirror accumulators are indexed by position in
	// this slice.
	Hubs []VertexID
	// slot maps every execution vertex ID to its hub slot, or -1.
	slot []int32
}

// NewReplication builds the mirror set for an n-vertex graph from a list
// of hub execution IDs (order and duplicates are normalized away).
func NewReplication(n int64, hubs []VertexID) *Replication {
	uniq := append(make([]VertexID, 0, len(hubs)), hubs...) // non-nil even when empty: see Assign
	slices.Sort(uniq)
	r := &Replication{Hubs: slices.Compact(uniq), slot: make([]int32, n)}
	for i := range r.slot {
		r.slot[i] = -1
	}
	for i, h := range r.Hubs {
		if int64(h) < n {
			r.slot[h] = int32(i)
		}
	}
	return r
}

// Len returns the number of mirrored vertices.
func (r *Replication) Len() int {
	if r == nil {
		return 0
	}
	return len(r.Hubs)
}

// SlotOf returns the hub slot of execution vertex v, or -1 when v is not
// mirrored. This is the per-update test on the scatter hot path.
func (r *Replication) SlotOf(v VertexID) int32 {
	if int(v) >= len(r.slot) {
		return -1
	}
	return r.slot[v]
}

// Validate checks the replication invariants for an n-vertex graph: hubs
// are strictly ascending, in range, and the slot table matches.
func (r *Replication) Validate(n int64) error {
	if int64(len(r.slot)) != n {
		return fmt.Errorf("core: replication slot table has %d entries for %d vertices", len(r.slot), n)
	}
	for i, h := range r.Hubs {
		if int64(h) >= n {
			return fmt.Errorf("core: mirrored vertex %d out of range [0,%d)", h, n)
		}
		if i > 0 && h <= r.Hubs[i-1] {
			return fmt.Errorf("core: mirror hubs not strictly ascending at index %d", i)
		}
		if r.slot[h] != int32(i) {
			return fmt.Errorf("core: slot[%d] = %d, want hub slot %d", h, r.slot[h], i)
		}
	}
	hubs := 0
	for _, s := range r.slot {
		if s >= 0 {
			hubs++
		}
	}
	if hubs != len(r.Hubs) {
		return fmt.Errorf("core: slot table marks %d hubs, Hubs lists %d", hubs, len(r.Hubs))
	}
	return nil
}

// MirrorBuffer is the partition-local mirror accumulator one scatter task
// keeps over the assignment's hub set. Updates addressed to a hub are
// merged in with the program's Combiner (Absorb); when the task's edges
// are exhausted, Flush emits one sync update per touched hub — the
// master-mirror sync that replaces the hub's flood of cross-partition
// updates. A MirrorBuffer belongs to one goroutine.
type MirrorBuffer[M any] struct {
	rep     *Replication
	combine func(a, b M) M
	vals    []M
	touched []bool
	order   []int32 // touched slots in first-touch order

	// Merged counts updates merged into an already-touched mirror since
	// the last Flush — they are pre-aggregation work exactly like
	// CombineBuffer merges, and engines count them into
	// Stats.UpdatesCombined.
	Merged int64
}

// NewMirrorBuffer returns a mirror accumulator over rep using the
// program's Combiner. A flushed buffer is clean and is reused for the next
// scatter task (a ScatterKernel keeps one for the run).
func NewMirrorBuffer[M any](rep *Replication, combine func(a, b M) M) *MirrorBuffer[M] {
	return &MirrorBuffer[M]{
		rep:     rep,
		combine: combine,
		vals:    make([]M, rep.Len()),
		touched: make([]bool, rep.Len()),
	}
}

// Absorb merges an update into the destination's mirror accumulator and
// reports whether it did; false means dst is not mirrored and the update
// must take the normal path.
func (b *MirrorBuffer[M]) Absorb(dst VertexID, m M) bool {
	s := b.rep.SlotOf(dst)
	if s < 0 {
		return false
	}
	if b.touched[s] {
		b.vals[s] = b.combine(b.vals[s], m)
		b.Merged++
		return true
	}
	b.vals[s] = m
	b.touched[s] = true
	b.order = append(b.order, s)
	return true
}

// Flush emits one sync update per touched hub, in ascending hub order,
// and resets the buffer (Merged is reset too — read it before flushing).
// Cost is proportional to the hubs actually touched, not the mirror set
// size, so sparse tasks over large hub sets flush cheaply. The number of
// emissions is what engines count into Stats.MirrorSyncUpdates.
func (b *MirrorBuffer[M]) Flush(emit func(Update[M])) (synced int64) {
	slices.Sort(b.order)
	for _, s := range b.order {
		emit(Update[M]{Dst: b.rep.Hubs[s], Val: b.vals[s]})
		b.touched[s] = false
		synced++
	}
	b.order = b.order[:0]
	b.Merged = 0
	return synced
}

// ReplicationConfig tunes hub selection for NewReplicatingPartitioner.
// The zero value selects vertices whose in-degree is at least
// 4× the mean (and at least twice the partition count — below that a
// mirror cannot beat sending the updates directly), capped at the
// max(1024, n/64) highest-degree vertices: on power-law graphs the hub
// mass needing mirrors grows with the graph, so a fixed cap would
// silently stop paying off at scale. A mirror costs one accumulator
// slot per concurrent scatter task plus up to K-1 sync updates per
// iteration — a few bytes per hub.
type ReplicationConfig struct {
	// MaxMirrors caps the number of mirrored vertices (the highest
	// in-degree candidates win). 0 means max(1024, numVertices/64).
	MaxMirrors int
	// DegreeFactor sets the selection threshold as a multiple of the mean
	// in-degree. 0 means 4.
	DegreeFactor float64
	// MinInDegree is an absolute floor on a hub's in-degree. 0 means 2·K:
	// a hub receiving fewer updates than it would cost sync flushes is
	// not worth a mirror.
	MinInDegree int64
}

func (c ReplicationConfig) withDefaults(k int, n int64) ReplicationConfig {
	if c.MaxMirrors <= 0 {
		c.MaxMirrors = 1024
		if byShare := int(n / 64); byShare > c.MaxMirrors {
			c.MaxMirrors = byShare
		}
	}
	if c.DegreeFactor <= 0 {
		c.DegreeFactor = 4
	}
	if c.MinInDegree <= 0 {
		c.MinInDegree = 2 * int64(k)
	}
	return c
}

// ReplicatingPartitioner wraps any Partitioner with an HDRF/HEP-style hub
// selection pass: after the inner policy plans its assignment, one extra
// streaming pass counts in-degrees in execution-ID space and the vertices
// above the configured threshold become the assignment's mirror set.
// Engines then absorb updates addressed to those hubs into partition-local
// mirror accumulators (see Replication) — for programs with a Combiner;
// others run exactly as the inner policy alone would.
type ReplicatingPartitioner struct {
	inner Partitioner
	cfg   ReplicationConfig
}

// NewReplicatingPartitioner wraps inner with hub selection under cfg.
func NewReplicatingPartitioner(inner Partitioner, cfg ReplicationConfig) *ReplicatingPartitioner {
	return &ReplicatingPartitioner{inner: inner, cfg: cfg}
}

// Name implements Partitioner: the inner policy's name with a "+rep"
// suffix.
func (p *ReplicatingPartitioner) Name() string { return p.inner.Name() + "+rep" }

// Assign implements Partitioner: plan the inner assignment, then select
// hubs by in-degree and attach the replication set. A single partition
// has no cross traffic to save, so k == 1 skips selection.
func (p *ReplicatingPartitioner) Assign(src EdgeSource, k int) (*Assignment, error) {
	asg, err := p.inner.Assign(src, k)
	if err != nil {
		return nil, err
	}
	n := src.NumVertices()
	if n == 0 || k <= 1 {
		return asg, nil
	}
	cfg := p.cfg.withDefaults(k, n)

	// In-degree census in execution-ID space: the update stream is
	// addressed to relabeled IDs, so hubs must be selected there.
	indeg := make([]int64, n)
	var total int64
	err = src.Edges(func(batch []Edge) error {
		for _, e := range batch {
			d := asg.NewID(e.Dst)
			if int64(d) >= n {
				return fmt.Errorf("core: edge destination %d relabels to %d, outside [0,%d)", e.Dst, d, n)
			}
			indeg[d]++
		}
		total += int64(len(batch))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return asg, nil
	}

	threshold := int64(cfg.DegreeFactor * float64(total) / float64(n))
	if threshold < cfg.MinInDegree {
		threshold = cfg.MinInDegree
	}
	var cands []VertexID
	for v, d := range indeg {
		if d >= threshold {
			cands = append(cands, VertexID(v))
		}
	}
	if len(cands) > cfg.MaxMirrors {
		// Highest in-degree first; ties by lower ID for determinism.
		sort.Slice(cands, func(i, j int) bool {
			di, dj := indeg[cands[i]], indeg[cands[j]]
			if di != dj {
				return di > dj
			}
			return cands[i] < cands[j]
		})
		cands = cands[:cfg.MaxMirrors]
	}
	// Attach the set even when empty: "selection ran, nothing qualified"
	// must persist differently from "no selection" (a hub-less version-2
	// permutation file vs a version-1 one), or caches re-cluster forever.
	// Engines treat an empty set as no replication.
	asg.Mirrors = NewReplication(n, cands)
	return asg, nil
}
