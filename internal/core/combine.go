package core

import (
	"math/bits"

	"repro/internal/streambuf"
)

// MaxFoldSlots bounds the per-worker dense slot tables of the
// post-shuffle fold: beyond ~4M vertices per partition the tables stop
// being worth their footprint and engines skip the fold (scatter-side
// combining still applies).
const MaxFoldSlots = 4 << 20

// NewUpdateFolder builds the per-partition combining fold both engines
// apply to shuffled update buffers: within each partition's chunk, updates
// to the same destination merge through combine. The slot of an update is
// its destination's offset inside the partition's contiguous vertex range.
// Returns nil when the partitions are too wide for dense slot tables
// (MaxFoldSlots); the folder's tables are cached, so one folder should be
// reused for every fold of a run.
func NewUpdateFolder[M any](split Split, workers int, combine func(a, b M) M) *streambuf.Folder[Update[M]] {
	per := split.PerPartition()
	if per > MaxFoldSlots {
		return nil
	}
	return streambuf.NewFolder(workers, int(per), func(p int, u Update[M]) uint32 {
		return uint32(u.Dst) - uint32(p)*uint32(per)
	}, func(dst *Update[M], src Update[M]) {
		dst.Val = combine(dst.Val, src.Val)
	})
}

// CombineBuffer is the thread-private combining buffer the scatter kernel
// puts in front of the shared update stream when the program implements
// Combiner: a write-back, direct-mapped cache of update records keyed by
// destination vertex, in front of the small append buffer of §4.1. An update
// whose destination is resident merges in place (one memory access: entries
// are inline {Dst, Val} records); one that maps to a slot held by another
// destination evicts that record to the append buffer and takes the slot, so
// every update added emits at most one record and a hot destination stays
// resident until something displaces it. Sweep evicts what is left when the
// scatter task ends. The slots in use are listed in the order they were first
// taken, which makes Sweep and Reset cost O(residents), never O(table), and
// the emission order a pure function of the Add sequence. An empty slot holds
// a destination that cannot hash to it (emptyKey), so emptiness costs no tag
// and every VertexID, 0xFFFFFFFF included, is a valid key.
//
// A CombineBuffer belongs to one goroutine. The kernel holds one per scatter
// worker for the whole run and Resets it at the start of every scatter task
// to the window that task calls for, so the combining it performs is a
// deterministic function of the task's edge order, independent of thread
// scheduling and of what the buffer held before.
type CombineBuffer[M any] struct {
	table    []Update[M] // sized for the widest window; table[:1<<(32-shift)] is in use
	occupied []uint32    // slots holding a resident, in first-taken order
	out      []Update[M] // evicted records awaiting the next drain
	shift    uint8
	combine  func(a, b M) M

	// Combined counts updates merged away since construction or Reset.
	Combined int64
}

// combineSlotsPerRec is the cache's slot count per record of window. At 4 the
// table of a MaxBufGrowth window of 8-byte updates is 512 KiB, a quarter of
// the L2 share the partition's vertices are sized for; see CHANGES.md (PR 20)
// for what 1, 2 and 8 measured.
const combineSlotsPerRec = 4

const combineHash = 0x9E3779B1 // 2^32/φ, odd: the top bits of dst·combineHash spread any stride

// emptyKey is the destination an empty slot h holds: 0 hashes to slot 0 and
// 1 to the table's upper half (combineHash's top bit is set) whatever the
// table's size ≥ 2, so neither can be a resident of the slot it marks.
func emptyKey(h uint32) VertexID {
	if h == 0 {
		return 1
	}
	return 0
}

// NewCombineBuffer returns a combining buffer whose append buffer holds
// baseRecs records and whose cache serves windows of up to
// MaxBufGrowth·baseRecs records, readied for the widest.
func NewCombineBuffer[M any](baseRecs int, combine func(a, b M) M) *CombineBuffer[M] {
	baseRecs = max(baseRecs, 1)
	slots := NextPow2(combineSlotsPerRec * MaxBufGrowth * baseRecs)
	c := &CombineBuffer[M]{
		table:    make([]Update[M], slots),
		occupied: make([]uint32, 0, slots),
		out:      make([]Update[M], 0, baseRecs),
		combine:  combine,
	}
	c.table[0].Dst = emptyKey(0) // the zero value already marks every other slot
	c.Reset(MaxBufGrowth * baseRecs)
	return c
}

// Reset forgets every resident and evicted record, zeroes Combined and sizes
// the cache for a window of up to window records (clamped to what
// NewCombineBuffer allocated), in O(residents) — O(1) after a Sweep. A Reset
// buffer combines and emits exactly like a fresh one Reset to that window.
func (c *CombineBuffer[M]) Reset(window int) {
	for _, h := range c.occupied {
		c.table[h].Dst = emptyKey(h)
	}
	c.occupied, c.out, c.Combined = c.occupied[:0], c.out[:0], 0
	slots := min(NextPow2(max(combineSlotsPerRec*window, 2)), len(c.table))
	c.shift = uint8(32 - bits.TrailingZeros(uint(slots)))
}

// MaxBufGrowth is the ceiling of DegreeAwareBufRecs' growth over the base
// capacity: NewCombineBuffer(baseRecs) serves any window DegreeAwareBufRecs
// returns for that base.
const MaxBufGrowth = 16

// DegreeAwareBufRecs sizes the combining window (records; the cache gets
// combineSlotsPerRec slots for each) of one scatter task from the average
// out-degree of the partition it scatters. baseRecs is the configured
// private buffer capacity (PrivateBufBytes / record size); edges and verts
// describe the partition. A vertex of out-degree d emits up to d updates
// whose destinations repeat across the partition's edge chunk, so a window
// proportional to the average degree keeps correspondingly more destinations
// resident; dense partitions grow it up to MaxBufGrowth× the base, growth is
// capped at the edge count (a task cannot make more residents than it has
// edges — a caller that Resets per sub-range of the chunk caps at the
// range's length as well), and the result never shrinks below baseRecs. It
// is a pure function of (baseRecs, edges, verts), so combining stays a
// deterministic function of the task's edge order.
func DegreeAwareBufRecs(baseRecs int, edges, verts int64) int {
	if baseRecs < 1 {
		baseRecs = 1
	}
	if edges <= 0 || verts <= 0 {
		return baseRecs
	}
	avg := (edges + verts - 1) / verts
	if avg < 1 {
		avg = 1
	}
	recs := int64(baseRecs) * avg
	if lim := int64(baseRecs) * MaxBufGrowth; recs > lim {
		recs = lim
	}
	if recs > edges {
		recs = edges
	}
	if recs < int64(baseRecs) {
		recs = int64(baseRecs)
	}
	return int(recs)
}

// Add merges a block of updates into the cache, one at a time, handing the
// evicted records to fn (the slice aliases the buffer and is only valid
// within fn) whenever the append buffer fills.
func (c *CombineBuffer[M]) Add(us []Update[M], fn func([]Update[M])) {
	table, shift := c.table, c.shift&31
	for _, u := range us {
		h := uint32(u.Dst) * combineHash >> shift
		e := &table[h]
		if e.Dst == u.Dst {
			e.Val = c.combine(e.Val, u.Val)
			c.Combined++
			continue
		}
		if e.Dst == emptyKey(h) {
			c.occupied = append(c.occupied, h)
		} else if c.out = append(c.out, *e); len(c.out) == cap(c.out) {
			c.drain(fn)
		}
		*e = u
	}
}

// drain hands the evicted records to fn and empties the append buffer;
// residents stay. An empty buffer skips fn.
func (c *CombineBuffer[M]) drain(fn func([]Update[M])) {
	if len(c.out) > 0 {
		fn(c.out)
	}
	c.out = c.out[:0]
}

// Sweep evicts every resident, in the order their slots were first taken,
// draining through fn as the append buffer fills and once at the end. It
// leaves the buffer empty; Combined is kept for the caller to read.
func (c *CombineBuffer[M]) Sweep(fn func([]Update[M])) {
	for _, h := range c.occupied {
		c.out = append(c.out, c.table[h])
		c.table[h].Dst = emptyKey(h)
		if len(c.out) == cap(c.out) {
			c.drain(fn)
		}
	}
	c.occupied = c.occupied[:0]
	c.drain(fn)
}
