package storage

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SimParams describes the cost model of a simulated device. A device is a
// RAID-0 array of NumDisks identical members with StripeUnit-byte striping
// (NumDisks=1 models a single disk).
//
// The cost charged to a member disk for the portion of a request it serves
// is
//
//	cost = PerRequest + seek (if not sequential on that member) + bytes/BW
//
// where seek is SeekRead or SeekWrite, and sequentiality is tracked per
// member in terms of the member's own LBA space (stripes of one file are
// compacted per member exactly as RAID-0 lays them out). Members serve
// their portions in parallel; each member serves one request at a time, so
// concurrent callers queue — the same first-order behaviour as a real disk.
//
// With TimeScale > 0 every request really sleeps cost*TimeScale while
// holding its member locks, so prefetching, read/write overlap across
// separate devices, and RAID parallelism all behave as they would on real
// hardware, just TimeScale× faster. With TimeScale == 0 no sleeping occurs
// and only the busy-time accounting is kept.
type SimParams struct {
	Name       string
	NumDisks   int           // RAID-0 members, >= 1
	StripeUnit int           // bytes per stripe, power of two
	SeekRead   time.Duration // latency of a non-sequential read, per member
	SeekWrite  time.Duration // latency of a non-sequential write, per member
	PerRequest time.Duration // fixed per-request overhead, per member
	ReadBW     float64       // bytes/second streaming read, per member
	WriteBW    float64       // bytes/second streaming write, per member
	TimeScale  float64       // 0 disables sleeping; 0.01 = 100x faster than real
}

// Calibration constants: per-member numbers derived from the paper's
// Figure 9 / Figure 11 RAID-0 pair measurements (§5.1).
const simStripeUnit = 512 << 10

// HDDParams models one half of the paper's RAID-0 pair of 3 TB 7200 RPM
// SATA disks. The pair streams ~328 MB/s reads / 316 MB/s writes and manages
// only 0.6 MB/s random 4 KiB reads (≈7 ms per seek); random writes are
// absorbed by the write cache (2 MB/s ≈ 2 ms effective).
func HDDParams(name string, disks int, timeScale float64) SimParams {
	return SimParams{
		Name:       name,
		NumDisks:   disks,
		StripeUnit: simStripeUnit,
		SeekRead:   6800 * time.Microsecond,
		SeekWrite:  2 * time.Millisecond,
		PerRequest: 50 * time.Microsecond,
		ReadBW:     164e6,
		WriteBW:    158e6,
		TimeScale:  timeScale,
	}
}

// SSDParams models one half of the paper's RAID-0 pair of 200 GB PCIe SSDs:
// pair bandwidth 667 MB/s read / 576 MB/s write; 4 KiB random reads at
// 22.5 MB/s (≈170 µs per request) and random writes at 48.6 MB/s.
func SSDParams(name string, disks int, timeScale float64) SimParams {
	return SimParams{
		Name:       name,
		NumDisks:   disks,
		StripeUnit: simStripeUnit,
		SeekRead:   170 * time.Microsecond,
		SeekWrite:  65 * time.Microsecond,
		PerRequest: 20 * time.Microsecond,
		ReadBW:     333e6,
		WriteBW:    288e6,
		TimeScale:  timeScale,
	}
}

// simDevice is the simulated Device.
type simDevice struct {
	counters
	p     SimParams
	disks []simDisk

	mu    sync.Mutex
	files map[string]*simFile
}

// simDisk is one RAID member: its own lock (serialized service), head
// position for sequentiality, and accumulated busy time.
type simDisk struct {
	mu       sync.Mutex
	lastFile *simFile
	lastLBA  int64
	busy     time.Duration
}

// NewSim returns a simulated Device with the given cost model.
func NewSim(p SimParams) Device {
	if p.NumDisks < 1 {
		p.NumDisks = 1
	}
	if p.StripeUnit <= 0 {
		p.StripeUnit = simStripeUnit
	}
	d := &simDevice{p: p, files: make(map[string]*simFile)}
	d.disks = make([]simDisk, p.NumDisks)
	d.counters.init()
	return d
}

func (d *simDevice) Name() string { return d.p.Name }

func (d *simDevice) Create(name string) (File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		f = &simFile{dev: d, name: name}
		d.files[name] = f
	}
	f.mu.Lock()
	f.shrink(0)
	f.mu.Unlock()
	return f, nil
}

func (d *simDevice) Open(name string) (File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, ErrNotExist
	}
	return f, nil
}

func (d *simDevice) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return ErrNotExist
	}
	f.mu.Lock()
	d.trimmedBytes.Add(f.size)
	d.trims.Add(1)
	f.shrink(0)
	f.mu.Unlock()
	delete(d.files, name)
	return nil
}

func (d *simDevice) Stats() Stats {
	s := d.counters.snapshot()
	for i := range d.disks {
		d.disks[i].mu.Lock()
		if d.disks[i].busy > s.Busy {
			s.Busy = d.disks[i].busy
		}
		d.disks[i].mu.Unlock()
	}
	return s
}

func (d *simDevice) ResetStats() {
	d.counters.reset()
	for i := range d.disks {
		d.disks[i].mu.Lock()
		d.disks[i].busy = 0
		d.disks[i].mu.Unlock()
	}
}

func (d *simDevice) Timeline() []TimelinePoint { return d.counters.timelineCopy() }

// segment is the portion of one request served by one member disk.
type segment struct {
	disk  int
	lba   int64 // member-local logical block address
	bytes int
}

// inlineSegments is how many member segments a request fills on the stack;
// only an array of more members than this makes split allocate.
const inlineSegments = 8

// split maps a (file offset, length) request onto member-disk segments,
// appending them to segs[:0]. The stripes a contiguous request places on one
// member are contiguous in that member's LBA space, so each member receives
// exactly one coalesced segment — a RAID controller issues one transfer per
// member, not one per stripe. The i-th stripe of the request lands on the
// member of its (i mod NumDisks)-th segment.
func (d *simDevice) split(off int64, n int, segs []segment) []segment {
	su := int64(d.p.StripeUnit)
	nd := int64(d.p.NumDisks)
	first := off / su
	segs = segs[:0]
	for n > 0 {
		stripe := off / su
		within := off % su
		take := int(su - within)
		if take > n {
			take = n
		}
		if i := stripe - first; i < nd {
			lba := (stripe/nd)*su + within
			segs = append(segs, segment{disk: int(stripe % nd), lba: lba, bytes: take})
		} else {
			segs[i%nd].bytes += take
		}
		off += int64(take)
		n -= take
	}
	return segs
}

// serve charges the cost of a request against its member disks, sleeping if
// TimeScale > 0. It reports whether the request as a whole continued a
// sequential run (true iff every member segment did). Busy time and
// sequentiality are per member, so at TimeScale 0, where nothing sleeps,
// the members are charged one after another on the caller's goroutine;
// only a request that really sleeps starts one goroutine per member.
func (d *simDevice) serve(f *simFile, off int64, n int, write bool) bool {
	var buf [inlineSegments]segment
	segs := d.split(off, n, buf[:0])
	if len(segs) > 1 && d.p.TimeScale > 0 {
		return d.serveParallel(f, segs, write)
	}
	seq := true
	for _, s := range segs {
		if !d.serveSegment(f, s, write) {
			seq = false
		}
	}
	return seq
}

// serveParallel charges a request's members at once, one goroutine each,
// so their scaled sleeps overlap as RAID-0 members' transfers do.
func (d *simDevice) serveParallel(f *simFile, segs []segment, write bool) bool {
	var notSeq atomic.Bool
	var wg sync.WaitGroup
	for _, s := range segs {
		wg.Add(1)
		go func(s segment) {
			defer wg.Done()
			if !d.serveSegment(f, s, write) {
				notSeq.Store(true)
			}
		}(s)
	}
	wg.Wait()
	return !notSeq.Load()
}

// serveSegment charges one member disk for its portion of a request,
// holding the member lock for the (scaled) service duration so concurrent
// requests queue like they would on a real spindle.
func (d *simDevice) serveSegment(f *simFile, s segment, write bool) bool {
	disk := &d.disks[s.disk]
	disk.mu.Lock()
	seq := disk.lastFile == f && disk.lastLBA == s.lba
	disk.lastFile = f
	disk.lastLBA = s.lba + int64(s.bytes)
	cost := d.p.PerRequest
	if write {
		if !seq {
			cost += d.p.SeekWrite
		}
		cost += time.Duration(float64(s.bytes) / d.p.WriteBW * float64(time.Second))
	} else {
		if !seq {
			cost += d.p.SeekRead
		}
		cost += time.Duration(float64(s.bytes) / d.p.ReadBW * float64(time.Second))
	}
	disk.busy += cost
	if d.p.TimeScale > 0 {
		time.Sleep(time.Duration(float64(cost) * d.p.TimeScale))
	}
	disk.mu.Unlock()
	return seq
}

// Cost returns the modelled service time of a single request without
// performing it: the maximum over member disks of the per-member cost.
// Used to regenerate the paper's Figure 9 bandwidth-vs-request-size curves
// and the Figure 11 random/sequential table analytically.
func (d *simDevice) Cost(off int64, n int, write, sequential bool) time.Duration {
	seek, bw := d.p.SeekRead, d.p.ReadBW
	if write {
		seek, bw = d.p.SeekWrite, d.p.WriteBW
	}
	var buf [inlineSegments]segment
	var max time.Duration
	for _, s := range d.split(off, n, buf[:0]) {
		cost := d.p.PerRequest
		if !sequential {
			cost += seek
		}
		cost += time.Duration(float64(s.bytes) / bw * float64(time.Second))
		if cost > max {
			max = cost
		}
	}
	return max
}

// CostModel exposes the analytic Cost function of simulated devices.
type CostModel interface {
	Cost(off int64, n int, write, sequential bool) time.Duration
}

var _ CostModel = (*simDevice)(nil)

// simExtent is the size of the blocks a simulated file stores its bytes in.
// A file grows by whole extents, so a byte once stored is never copied
// again, and shrinks by whole extents, so a trimmed block is released.
const simExtent = 64 << 10

// simFile holds a file's bytes in fixed-size extents: extent i holds bytes
// [i·simExtent, (i+1)·simExtent). There are exactly ⌈size/simExtent⌉ of
// them, and the last one is zero past size, so a write that grows the file
// leaves zeros in any gap it opens, as a real file does.
type simFile struct {
	dev  *simDevice
	name string

	mu      sync.RWMutex
	extents [][]byte
	size    int64
}

func (f *simFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	seq := f.dev.serve(f, off, len(p), false)
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= f.size {
		f.dev.record(0, false, seq)
		return 0, io.EOF
	}
	n := len(p)
	if rest := f.size - off; int64(n) > rest {
		n = int(rest)
	}
	for done := 0; done < n; {
		at := off + int64(done)
		done += copy(p[done:n], f.extents[at/simExtent][at%simExtent:])
	}
	f.dev.record(n, false, seq)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *simFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	seq := f.dev.serve(f, off, len(p), true)
	f.mu.Lock()
	if end := off + int64(len(p)); end > f.size {
		f.grow(end)
	}
	for done := 0; done < len(p); {
		at := off + int64(done)
		done += copy(f.extents[at/simExtent][at%simExtent:], p[done:])
	}
	f.mu.Unlock()
	f.dev.record(len(p), true, seq)
	return len(p), nil
}

func (f *simFile) Size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size
}

func (f *simFile) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("storage: negative size %d", size)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch old := f.size; {
	case size < old:
		f.shrink(size)
		f.dev.trims.Add(1)
		f.dev.trimmedBytes.Add(old - size)
	case size > old:
		f.grow(size)
	}
	return nil
}

func (f *simFile) Close() error { return nil }

// grow extends the file to size bytes with zeroed extents. The caller holds
// f.mu and size > f.size.
func (f *simFile) grow(size int64) {
	for int64(len(f.extents))*simExtent < size {
		f.extents = append(f.extents, make([]byte, simExtent))
	}
	f.size = size
}

// shrink cuts the file to size bytes: it releases every extent past the
// new end and zeroes the tail of the last one it keeps. The caller holds
// f.mu and size <= f.size.
func (f *simFile) shrink(size int64) {
	keep := (size + simExtent - 1) / simExtent
	clear(f.extents[keep:])
	f.extents = f.extents[:keep]
	if tail := size % simExtent; tail > 0 {
		clear(f.extents[keep-1][tail:])
	}
	f.size = size
}
