// Package dataset is the serving layer's registry of ingested graphs. A
// production graph service answers many queries against few datasets, so
// everything about a dataset that is job-independent should be paid once at
// ingest and shared by every job thereafter: the parse/generation of the
// edge source, the 2PS clustering permutation (persisted on the device via
// graphio so even process restarts skip the clustering passes), the
// in-memory engine's shuffled edge chunks (memengine.Prepared), and the
// out-of-core engine's pre-processing shuffle into partition edge files
// plus tile index (diskengine.Prepared). The registry hands out cached,
// immutable handles; internal/jobs schedules shared passes over them.
//
// Engine state is built lazily, once, on first use: a dataset that only
// ever serves in-memory jobs never touches the device, and vice versa.
//
// Unlike the immutable handles, the registry's *residency* is bounded: a
// memory cap (SetMemoryCap) turns the registry into an LRU over prepared
// engine state. Callers that stream a pass pin their dataset with
// Acquire/Release; a background sweeper evicts the least-recently-used
// unpinned datasets — dropping the in-memory chunks and closing the
// out-of-core partition files — until residency is back under the cap.
// Evicted datasets stay registered and rebuild lazily on next use, so
// admission is a memory *cap*, not a one-way admission budget that only
// ever grows. All methods are safe for concurrent use.
package dataset

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphio"
	"repro/internal/memengine"
	"repro/internal/partition2ps"
	"repro/internal/storage"
)

// Options configures how a dataset is ingested.
type Options struct {
	// Partitioner is the partitioning policy: "range" (default) or "2ps"
	// (locality-aware clustering). With "2ps" the clustering permutation
	// is computed once per dataset — and, when a Device is set, persisted
	// there so later processes replay it for free.
	Partitioner string
	// Undirected records that the source already stores both directions
	// of every edge. Algorithms that require a symmetrized input
	// (hyperanf) are admitted only on such datasets.
	Undirected bool
	// Threads bounds the engines' internal parallelism (0 = GOMAXPROCS).
	Threads int
	// MemPartitions forces the in-memory partition count (0 = auto).
	MemPartitions int
	// TileEdges is the selective-streaming tile granularity (0 = default).
	TileEdges int

	// Device holds the out-of-core partition files and the persisted 2PS
	// permutation. nil means the dataset serves the in-memory engine only.
	Device storage.Device
	// DiskPartitions forces the out-of-core partition count (0 = auto).
	DiskPartitions int
	// IOUnit is the out-of-core request size (0 = default).
	IOUnit int
	// MemoryBudget sizes the out-of-core stream buffers (0 = default).
	MemoryBudget int64
	// CompressTiles stores the out-of-core partition edge files as
	// compressed tiles: results are bit-identical while
	// physical edge reads shrink (see core.Config.CompressTiles).
	CompressTiles bool
}

// Info is a dataset's JSON-encodable description, served by GET /datasets.
type Info struct {
	Name         string `json:"name"`
	Version      int64  `json:"version"`
	Vertices     int64  `json:"vertices"`
	Edges        int64  `json:"edges"`
	Undirected   bool   `json:"undirected"`
	Partitioner  string `json:"partitioner"`
	Disk         bool   `json:"disk"`
	MemPrepared  bool   `json:"mem_prepared"`
	DiskPrepared bool   `json:"disk_prepared"`
	// ResidentBytes is the prepared engine state currently charged
	// against the registry's memory cap (0 when evicted or never built).
	ResidentBytes int64 `json:"resident_bytes"`
}

// Dataset is one ingested graph and its cached engine state: a prepared
// handle per edge placement, each in a slot of its own.
type Dataset struct {
	name    string
	src     core.EdgeSource
	opts    Options
	nv, ne  int64
	version int64
	reg     *Registry

	permOnce sync.Once
	perm     []core.VertexID
	permErr  error

	// lastUse is the registry's LRU clock tick of the most recent
	// Acquire/Mem/Disk; the sweeper evicts in ascending order.
	lastUse atomic.Int64

	// mu guards the evictable engine state below. Builds run outside the
	// lock under a slot's building flag (cond signals completion), so
	// status snapshots and pin operations never block behind a
	// multi-second prepare.
	mu     sync.Mutex
	cond   *sync.Cond
	pins   int
	slots  [2]slot // indexed by memSlot, diskSlot
	closed bool    // by Registry.Close: nothing builds again
}

// The placements a dataset prepares its graph for.
const (
	memSlot  = iota // in memory: memengine.Prepared
	diskSlot        // out of core: diskengine.Prepared on Options.Device
)

// slot is one placement's prepared handle, built lazily, at most once at a
// time, and evictable. A build error is sticky until the slot is emptied.
type slot struct {
	building bool
	pp       core.Prepared
	err      error
	bytes    int64 // pp's footprint as last charged to the registry
}

// Name returns the registry name.
func (d *Dataset) Name() string { return d.name }

// Version identifies the dataset's contents: result caches key on it so a
// future mutation path (delta ingest) invalidates cached results by
// bumping it. Today datasets are immutable after Add, so it is constant.
func (d *Dataset) Version() int64 { return d.version }

// NumVertices returns the vertex count.
func (d *Dataset) NumVertices() int64 { return d.nv }

// NumEdges returns the edge record count.
func (d *Dataset) NumEdges() int64 { return d.ne }

// Threads returns the engines' thread count: Options.Threads, GOMAXPROCS
// when unset, as core.Config.Defaults resolves it.
func (d *Dataset) Threads() int { return core.Config{Threads: d.opts.Threads}.Defaults(0).Threads }

// MemPartitions returns the partition count of the dataset's in-memory
// handle, built or not (memengine.Partitions).
func (d *Dataset) MemPartitions() int {
	return memengine.Partitions(d.nv, memengine.Config{Partitions: d.opts.MemPartitions})
}

// Undirected reports whether the source stores both edge directions.
func (d *Dataset) Undirected() bool { return d.opts.Undirected }

// HasDevice reports whether the dataset can serve the out-of-core engine.
func (d *Dataset) HasDevice() bool { return d.opts.Device != nil }

// Info snapshots the dataset's description.
func (d *Dataset) Info() Info {
	part := d.opts.Partitioner
	if part == "" {
		part = "range"
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return Info{
		Name: d.name, Version: d.version, Vertices: d.nv, Edges: d.ne,
		Undirected: d.opts.Undirected, Partitioner: part,
		Disk:        d.opts.Device != nil,
		MemPrepared: d.slots[memSlot].pp != nil, DiskPrepared: d.slots[diskSlot].pp != nil,
		ResidentBytes: d.slots[memSlot].bytes + d.slots[diskSlot].bytes,
	}
}

// permFile names the persisted partitioning plan on the device. The name
// keys the policy, so changing it across restarts recomputes the plan
// instead of silently replaying a stale one under the new label.
func (d *Dataset) permFile() string {
	return fmt.Sprintf("xserve-%s-%s.xsperm", d.name, d.opts.Partitioner)
}

// partitioner returns the policy engines prepare with. The clustering
// passes of "2ps" run at most once per dataset per process (the
// plan survives eviction), and not at all when a plan persisted by an
// earlier process under the same policy is on the device. Add has checked
// the policy name.
func (d *Dataset) partitioner() (core.Partitioner, error) {
	if d.opts.Partitioner == "" || d.opts.Partitioner == "range" {
		return core.RangePartitioner{}, nil
	}
	d.permOnce.Do(d.plan)
	if d.permErr != nil {
		return nil, d.permErr
	}
	return core.NewPermutationPartitioner(d.opts.Partitioner, d.perm), nil
}

// plan computes (or reloads) the persisted partitioning plan: the 2PS
// relabeling permutation. A plan file that does not read back — corrupt,
// of a retired format, or for another vertex count — is planned again and
// rewritten.
func (d *Dataset) plan() {
	if d.opts.Device != nil {
		if perm, err := graphio.ReadPermutation(d.opts.Device, d.permFile()); err == nil && int64(len(perm)) == d.nv {
			d.perm = perm
			return
		}
	}
	var pr core.Partitioner = partition2ps.New()
	if d.opts.Device != nil {
		// Persist through the same wrapper the CLI's -save-permutation
		// uses, so the file formats interoperate.
		pr = graphio.SavingPartitioner(pr, d.opts.Device, d.permFile())
	}
	k := core.NextPow2(d.opts.MemPartitions)
	if k < 64 {
		k = 64
	}
	asg, err := pr.Assign(d.src, k)
	if err != nil {
		d.permErr = fmt.Errorf("dataset %s: partition planning: %w", d.name, err)
		return
	}
	d.perm = asg.Relabel
}

// touch stamps the dataset as most-recently-used.
func (d *Dataset) touch() {
	if d.reg != nil {
		d.lastUse.Store(d.reg.clock.Add(1))
	}
}

// Acquire pins the dataset's engine state against eviction; every
// in-flight pass must hold a pin so the sweeper never closes partition
// files or drops edge buffers under a running job. Pair with Release.
func (d *Dataset) Acquire() {
	d.mu.Lock()
	d.pins++
	d.mu.Unlock()
	d.touch()
}

// Release drops an Acquire pin. It also re-measures the resident
// footprint — a pass may have grown the handle (SCC's lazily built transpose,
// tile indexes) — and reports the change to the registry, which may now
// evict this or another dataset.
func (d *Dataset) Release() {
	d.mu.Lock()
	if d.pins <= 0 {
		d.mu.Unlock()
		panic("dataset: Release without Acquire")
	}
	d.pins--
	delta := d.resampleLocked()
	d.mu.Unlock()
	if d.reg != nil {
		d.reg.noteResident(delta)
	}
}

// resampleLocked re-reads the built handles' footprints and returns the
// change versus what was last charged. Caller holds d.mu.
func (d *Dataset) resampleLocked() int64 {
	var delta int64
	for i := range d.slots {
		if s := &d.slots[i]; s.pp != nil {
			n := s.pp.Bytes()
			delta += n - s.bytes
			s.bytes = n
		}
	}
	return delta
}

// Mem returns the dataset's in-memory engine handle (a memengine.Prepared:
// partition plan, relabeled edge stream shuffled into chunks), preparing it
// on first use and rebuilding it after an eviction.
func (d *Dataset) Mem() (core.Prepared, error) { return d.prepared(memSlot, d.buildMem) }

// Disk returns the dataset's out-of-core engine handle (a
// diskengine.Prepared: the pre-processing shuffle into partition edge files
// on the configured device, plus the tile index), preparing it on first use
// and rebuilding it after an eviction.
func (d *Dataset) Disk() (core.Prepared, error) { return d.prepared(diskSlot, d.buildDisk) }

// prepared returns slot i's handle, building it with build when the slot
// is empty and charging its footprint to the registry. Concurrent callers
// share one build; a closed dataset builds nothing.
func (d *Dataset) prepared(i int, build func() (core.Prepared, error)) (core.Prepared, error) {
	s := &d.slots[i]
	d.mu.Lock()
	for s.building {
		d.cond.Wait()
	}
	if d.closed {
		d.mu.Unlock()
		return nil, fmt.Errorf("dataset %s: registry closed", d.name)
	}
	if s.pp != nil || s.err != nil {
		pp, err := s.pp, s.err
		d.mu.Unlock()
		d.touch()
		return pp, err
	}
	s.building = true
	d.mu.Unlock()

	pp, err := build()

	d.mu.Lock()
	s.building = false
	s.pp, s.err = pp, err
	if err == nil {
		s.bytes = pp.Bytes()
	}
	grew := s.bytes
	d.cond.Broadcast()
	d.mu.Unlock()
	d.touch()
	if grew > 0 && d.reg != nil {
		d.reg.noteResident(grew)
	}
	return pp, err
}

// buildMem runs the in-memory prepare with no dataset locks held.
func (d *Dataset) buildMem() (core.Prepared, error) {
	pr, err := d.partitioner()
	if err != nil {
		return nil, err
	}
	return handle(memengine.Prepare(d.src, memengine.Config{
		Threads:     d.opts.Threads,
		Partitions:  d.opts.MemPartitions,
		TileEdges:   d.opts.TileEdges,
		Partitioner: pr,
		Selective:   true,
	}))
}

// buildDisk runs the out-of-core prepare with no dataset locks held.
func (d *Dataset) buildDisk() (core.Prepared, error) {
	if d.opts.Device == nil {
		return nil, fmt.Errorf("dataset %s: no device configured for the out-of-core engine", d.name)
	}
	pr, err := d.partitioner()
	if err != nil {
		return nil, err
	}
	return handle(diskengine.Prepare(d.src, diskengine.Config{
		Device:        d.opts.Device,
		MemoryBudget:  d.opts.MemoryBudget,
		IOUnit:        d.opts.IOUnit,
		Threads:       d.opts.Threads,
		Partitions:    d.opts.DiskPartitions,
		TileEdges:     d.opts.TileEdges,
		Prefix:        "xserve-" + d.name + "-",
		Partitioner:   pr,
		Selective:     true,
		CompressTiles: d.opts.CompressTiles,
	}))
}

// handle is an engine's Prepare result as a core.Prepared: nil, not a nil
// pointer in a non-nil interface, when the prepare failed.
func handle[P core.Prepared](pp P, err error) (core.Prepared, error) {
	if err != nil {
		return nil, err
	}
	return pp, nil
}

// evict drops the dataset's prepared engine state (see release). Pinned or
// mid-build datasets refuse (ok false). The dataset stays registered and
// rebuilds lazily.
func (d *Dataset) evict() (freed int64, ok bool) { return d.release(false) }

// release empties every slot — the in-memory edge chunks go to the
// collector, the out-of-core handle's partition files are removed by its
// Close — and returns the bytes they were charged, for the caller to take
// off the registry's residency. Build errors are cleared, so the next use
// retries. Unless closing, a pinned or mid-build dataset refuses (ok
// false); closing waits out the builds instead and marks the dataset
// closed, so no later use rebuilds files nobody would remove.
func (d *Dataset) release(closing bool) (freed int64, ok bool) {
	d.mu.Lock()
	if closing {
		d.closed = true
		for d.slots[memSlot].building || d.slots[diskSlot].building {
			d.cond.Wait()
		}
	} else if d.pins > 0 || d.slots[memSlot].building || d.slots[diskSlot].building {
		d.mu.Unlock()
		return 0, false
	}
	var handles []core.Prepared
	for i := range d.slots {
		s := &d.slots[i]
		if s.pp != nil {
			handles = append(handles, s.pp)
		}
		freed += s.bytes
		*s = slot{}
	}
	d.mu.Unlock()
	for _, pp := range handles {
		pp.Close()
	}
	return freed, true
}

// InvalidateCorrupted drops the dataset's prepared engine state in
// response to detected on-disk corruption (a storage.ErrCorrupted from a
// pass or a prepare), so the next use rebuilds every artifact — partition
// edge files, tile index, in-memory chunks — from the original source.
// The persisted partitioning plan heals itself separately: a corrupt
// permutation file fails its checksum on read and the planner recomputes
// and rewrites it. Returns false without touching anything when the
// dataset is pinned or mid-build — a pass is still using the state, and
// whoever hits the corruption next retries the invalidation once the
// pins drain.
func (d *Dataset) InvalidateCorrupted() bool {
	freed, ok := d.evict()
	if !ok {
		return false
	}
	if d.reg != nil {
		if freed > 0 {
			d.reg.resident.Add(-freed)
		}
		d.reg.corruptions.Add(1)
	}
	return true
}

// Metrics are the registry's cumulative residency counters.
type Metrics struct {
	// ResidentBytes is the prepared engine state currently charged.
	ResidentBytes int64 `json:"resident_bytes"`
	// MemoryCap is the configured bound (0 = uncapped).
	MemoryCap int64 `json:"memory_cap"`
	// Evictions counts datasets whose engine state was dropped.
	Evictions int64 `json:"evictions"`
	// EvictedBytes sums the footprints those evictions freed.
	EvictedBytes int64 `json:"evicted_bytes"`
	// CorruptionEvictions counts engine states dropped because a pass or
	// prepare detected on-disk corruption (InvalidateCorrupted); each one
	// triggers a lazy rebuild of just that dataset's artifacts.
	CorruptionEvictions int64 `json:"corruption_evictions"`
	// DeviceRetries sums the retry-wrapper recoveries (storage
	// Stats.Retries) across the registered datasets' distinct devices —
	// transient I/O faults absorbed without surfacing to any job.
	DeviceRetries int64 `json:"device_retries"`
}

// Registry maps names to ingested datasets and bounds their combined
// resident footprint when a memory cap is set.
type Registry struct {
	mu    sync.RWMutex
	m     map[string]*Dataset
	order []string

	clock        atomic.Int64
	resident     atomic.Int64
	memoryCap    atomic.Int64
	evictions    atomic.Int64
	evictedBytes atomic.Int64
	corruptions  atomic.Int64

	sweepOnce sync.Once
	closeOnce sync.Once
	wake      chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewRegistry returns an empty registry with no memory cap.
func NewRegistry() *Registry {
	return &Registry{
		m:    map[string]*Dataset{},
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// SetMemoryCap bounds the combined resident footprint of prepared engine
// state; when residency exceeds it, a background sweeper evicts
// least-recently-used unpinned datasets until back under. 0 (the default)
// disables eviction. The first nonzero cap starts the sweeper; Close
// stops it.
func (r *Registry) SetMemoryCap(bytes int64) {
	r.memoryCap.Store(bytes)
	if bytes > 0 {
		r.sweepOnce.Do(func() {
			r.wg.Add(1)
			go r.sweeper()
		})
		r.maybeWake()
	}
}

// noteResident adjusts the charged residency and wakes the sweeper when
// over cap.
func (r *Registry) noteResident(delta int64) {
	if delta != 0 {
		r.resident.Add(delta)
	}
	r.maybeWake()
}

// maybeWake nudges the sweeper if residency exceeds the cap.
func (r *Registry) maybeWake() {
	if cap := r.memoryCap.Load(); cap > 0 && r.resident.Load() > cap {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// sweeper is the background eviction worker: woken whenever residency
// crosses the cap, it evicts coldest-first until under (or until every
// remaining dataset is pinned — the next Release re-wakes it).
func (r *Registry) sweeper() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case <-r.wake:
		}
		r.sweep()
	}
}

// sweep performs one eviction round.
func (r *Registry) sweep() {
	cap := r.memoryCap.Load()
	if cap <= 0 || r.resident.Load() <= cap {
		return
	}
	r.mu.RLock()
	cands := make([]*Dataset, 0, len(r.m))
	for _, d := range r.m {
		cands = append(cands, d)
	}
	r.mu.RUnlock()
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].lastUse.Load() < cands[j].lastUse.Load()
	})
	for _, d := range cands {
		if r.resident.Load() <= cap {
			return
		}
		if freed, ok := d.evict(); ok && freed > 0 {
			r.resident.Add(-freed)
			r.evictions.Add(1)
			r.evictedBytes.Add(freed)
		}
	}
}

// Metrics snapshots the registry's residency counters plus the transient
// I/O retries absorbed by the registered datasets' devices.
func (r *Registry) Metrics() Metrics {
	var retries int64
	r.mu.RLock()
	seen := make(map[storage.Device]bool, len(r.m))
	for _, d := range r.m {
		if dev := d.opts.Device; dev != nil && !seen[dev] {
			seen[dev] = true
			retries += dev.Stats().Retries
		}
	}
	r.mu.RUnlock()
	return Metrics{
		ResidentBytes:       r.resident.Load(),
		MemoryCap:           r.memoryCap.Load(),
		Evictions:           r.evictions.Load(),
		EvictedBytes:        r.evictedBytes.Load(),
		CorruptionEvictions: r.corruptions.Load(),
		DeviceRetries:       retries,
	}
}

// Add registers src under name. The source must be re-streamable (the
// usual EdgeSource contract); engine state is prepared lazily.
func (r *Registry) Add(name string, src core.EdgeSource, opts Options) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("dataset: empty name")
	}
	switch opts.Partitioner {
	case "", "range", "2ps":
	default:
		return nil, fmt.Errorf("dataset %s: unknown partitioner %q", name, opts.Partitioner)
	}
	d := &Dataset{
		name: name, src: src, opts: opts, reg: r, version: 1,
		nv: src.NumVertices(), ne: src.NumEdges(),
	}
	d.cond = sync.NewCond(&d.mu)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return nil, fmt.Errorf("dataset %s: already registered", name)
	}
	r.m[name] = d
	r.order = append(r.order, name)
	return d, nil
}

// Get returns the dataset registered under name.
func (r *Registry) Get(name string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.m[name]
	return d, ok
}

// List returns every dataset's Info in registration order.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.m[name].Info())
	}
	return out
}

// Close stops the sweeper and releases every dataset's prepared engine
// state, taking it off the residency. A dataset used after Close fails
// instead of rebuilding. Callers must have drained in-flight passes first
// (the jobs scheduler's Close does).
func (r *Registry) Close() {
	r.closeOnce.Do(func() { close(r.done) })
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.m {
		if freed, _ := d.release(true); freed > 0 {
			r.resident.Add(-freed)
		}
	}
}
