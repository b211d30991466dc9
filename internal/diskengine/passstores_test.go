package diskengine

// passstores_test.go pins what every run of a pass is lent: the stores of
// openStores, under the run's share of the memory budget, in files no other
// run shares, with their I/O — retries on the update device included —
// counted on the pass.

import (
	"context"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/storage"
)

// createLog is a device that records the name of every file created on it.
type createLog struct {
	storage.Device
	mu    sync.Mutex
	names []string
}

func (d *createLog) Create(name string) (storage.File, error) {
	d.mu.Lock()
	d.names = append(d.names, name)
	d.mu.Unlock()
	return d.Device.Create(name)
}

// created reports whether a file named name was created on d.
func (d *createLog) created(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, n := range d.names {
		if n == name {
			return true
		}
	}
	return false
}

// TestUpdateDeviceRetriesCounted: a pass whose update files live on a
// retry-wrapped device that faults reports the retries that device absorbed,
// in the total and in the per-iteration profile, with vertices bit-identical
// to a fault-free pass.
func TestUpdateDeviceRetriesCounted(t *testing.T) {
	src, _ := smallGraph(53)
	set := func() core.ProgramSet {
		return core.ProgramSet{core.NewJob[wccState, core.VertexID](&wccProg{}), core.NewJob[bfsState, int32](&bfsProg{root: 3})}
	}
	cfg := Config{Device: ssd(0), Threads: 2, IOUnit: 4 << 10, Partitions: 4}
	want, _, err := RunMany(context.Background(), src, set(), spillsUpdates(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	faulty := storage.NewFaulty(storage.NewSim(storage.SSDParams("upd", 1, 0)),
		storage.FaultyOptions{Seed: 11, ReadErr: 0.1, WriteErr: 0.1, MaxFaults: 200})
	cfg.Device = ssd(0)
	cfg.UpdateDevice = storage.NewRetry(faulty, storage.RetryOptions{MaxAttempts: 40, Seed: 11, Sleep: func(time.Duration) {}})
	got, pass, err := RunMany(context.Background(), src, set(), spillsUpdates(t, cfg))
	if err != nil {
		t.Fatalf("a pass over a retry-wrapped update device failed: %v", err)
	}
	if n := faulty.(storage.FaultInjector).Faults(); n == 0 {
		t.Fatal("no fault fired on the update device")
	}
	if pass.IORetries == 0 {
		t.Error("pass reports no retries: the update device's were not counted")
	}
	var perIter int64
	for _, it := range pass.Iters {
		perIter += it.IORetries
	}
	if perIter == 0 || perIter > pass.IORetries {
		t.Errorf("iterations report %d retries of the pass's %d", perIter, pass.IORetries)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Vertices, want[i].Vertices) {
			t.Errorf("job %d: vertices differ from the fault-free pass's", i)
		}
	}
}

// TestProgramSetHonoursBudget: two PageRank jobs share one pass under a
// budget that holds one job's state next to the five stream buffers
// (nv·|V| + 5·S·K = M) but not two, and that their whole-iteration update
// windows would breach. The pass completes with its updates spilling to the
// update files and each run's state in vertex files of its own, while one job
// alone under the same budget keeps its state in memory; at Threads 1 the
// vertices are bit-identical to the same pass under a budget that holds
// every job's state. With K left to the engine, it is sized for both runs.
func TestProgramSetHonoursBudget(t *testing.T) {
	src, _ := smallGraph(59)
	set := func(n int) core.ProgramSet {
		var s core.ProgramSet
		for i := 0; i < n; i++ {
			s = append(s, core.NewJob[algorithms.PRState, float32](algorithms.NewPageRank(3)))
		}
		return s
	}
	job := set(1)[0]
	base := Config{Threads: 1, IOUnit: 1 << 10, Partitions: 4}
	budget := src.NumVertices()*int64(job.VertexBytes()) + 5*int64(base.IOUnit)*int64(base.Partitions)
	if window := 2 * 2 * src.NumEdges() * int64(job.UpdateBytes()); window <= budget {
		t.Fatalf("two whole-iteration windows take %d bytes, within the %d-byte budget", window, budget)
	}
	run := func(jobs int, budget int64) ([]core.JobResult, core.Stats, *createLog, *createLog) {
		t.Helper()
		cfg := base
		dev, upd := &createLog{Device: ssd(0)}, &createLog{Device: ssd(0)}
		cfg.Device, cfg.UpdateDevice, cfg.MemoryBudget = dev, upd, budget
		res, pass, err := RunMany(context.Background(), src, set(jobs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if upd.Stats().BytesWritten == 0 {
			t.Fatalf("%d jobs: no update was spilled", jobs)
		}
		return res, pass, dev, upd
	}

	got, pass, dev, upd := run(2, budget)
	for _, r := range []string{"r0-", "r1-"} {
		if !dev.created(r+"p0000.verts") || !upd.created(r+"p0000.updates") {
			t.Errorf("run %s has no vertex and update files of its own: %v, %v", r, dev.names, upd.names)
		}
	}
	var stores int64
	for _, r := range got {
		stores += r.Stats.BytesWritten
		if r.Stats.BytesWritten == 0 || r.Stats.BytesRead == 0 {
			t.Errorf("a run's stores moved %d bytes in, %d out", r.Stats.BytesRead, r.Stats.BytesWritten)
		}
	}
	if pass.BytesWritten <= stores {
		t.Errorf("pass wrote %d bytes, its runs' stores %d: the edge shuffle is missing", pass.BytesWritten, stores)
	}
	if _, _, dev, _ := run(1, budget); dev.created("r0-p0000.verts") {
		t.Error("one job spilled its state under a budget that holds it")
	}
	want, _, dev, _ := run(2, 2*budget)
	if dev.created("r0-p0000.verts") {
		t.Error("two jobs spilled their state under a budget that holds both")
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Vertices, want[i].Vertices) {
			t.Errorf("job %d: spilled state gathered to other vertices than in-memory state", i)
		}
	}

	// K chosen by the engine: the budget holds, at K = 8 and at no smaller
	// K, one partition's vertex window of each run, the two shared edge
	// input buffers and each run's three update output buffers. K sized for
	// one run would breach it.
	big := graphgen.RMAT(graphgen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 59, Undirected: true})
	s, n := int64(256), big.NumVertices()*int64(job.VertexBytes())
	resident := func(jobs, k int64) int64 { return jobs*n/k + (2+3*jobs)*s*k }
	m := resident(2, 8)
	k1 := int64(1)
	for resident(1, k1) > m {
		k1 *= 2
	}
	if resident(2, 4) <= m || resident(2, k1) <= m {
		t.Fatalf("the %d-byte budget holds two runs at K = 4 or at one run's K = %d", m, k1)
	}
	cfg := Config{Device: ssd(0), UpdateDevice: ssd(0), Threads: 1, IOUnit: int(s), MemoryBudget: m}
	if _, pass, err := RunMany(context.Background(), big, set(2), cfg); err != nil {
		t.Fatal(err)
	} else if pass.Partitions != 8 {
		t.Errorf("two runs under a %d-byte budget got K = %d, want 8", m, pass.Partitions)
	}
}

// TestConcurrentPassesOnePrepared: two passes with spilling runs over one
// cached Prepared at once, as the serving registry runs them, agree with
// the same passes run one after the other, and leave no update or vertex
// file on the device.
func TestConcurrentPassesOnePrepared(t *testing.T) {
	src, _ := smallGraph(61)
	dir := t.TempDir()
	dev, err := storage.NewOS("os", dir)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Prepare(src, spilled(Config{Device: dev, Threads: 2, IOUnit: 4 << 10, Partitions: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	sets := []func() core.ProgramSet{
		func() core.ProgramSet {
			return core.ProgramSet{core.NewJob[wccState, core.VertexID](&wccProg{}), core.NewJob[bfsState, int32](&bfsProg{root: 0})}
		},
		func() core.ProgramSet { return core.ProgramSet{core.NewJob[bfsState, int32](&bfsProg{root: 7})} },
	}
	want := make([][]core.JobResult, len(sets))
	for i, set := range sets {
		if want[i], _, err = pp.RunMany(context.Background(), set()); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]core.JobResult, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = pp.RunMany(context.Background(), set())
		}()
	}
	wg.Wait()
	for i := range sets {
		if errs[i] != nil {
			t.Fatalf("pass %d: %v", i, errs[i])
		}
		for j := range want[i] {
			if !reflect.DeepEqual(got[i][j].Vertices, want[i][j].Vertices) {
				t.Errorf("pass %d, job %d: vertices differ from the sequential pass's", i, j)
			}
			if got[i][j].Stats.BytesWritten == 0 {
				t.Errorf("pass %d, job %d: its stores moved nothing", i, j)
			}
		}
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if strings.HasSuffix(f.Name(), ".updates") || strings.HasSuffix(f.Name(), ".verts") {
			t.Errorf("file left on the device: %s", f.Name())
		}
	}
}

// ptrProg has a vertex state no file can hold.
type ptrProg struct{}

func (ptrProg) Name() string                              { return "ptr" }
func (ptrProg) Init(core.VertexID, *[]int32)              {}
func (ptrProg) Scatter(core.Edge, *[]int32) (int32, bool) { return 0, false }
func (ptrProg) Gather(core.VertexID, *[]int32, int32)     {}

// TestNonPODJobFailsBeforeIngest: a job whose vertex state is not plain
// data fails Run and RunMany before the ingest creates a file.
func TestNonPODJobFailsBeforeIngest(t *testing.T) {
	src, _ := smallGraph(67)
	dev := &createLog{Device: ssd(0)}
	cfg := Config{Device: dev, Threads: 1, IOUnit: 4 << 10, Partitions: 4}
	if _, err := Run[[]int32, int32](src, ptrProg{}, cfg); err == nil {
		t.Error("Run of a slice-valued vertex state succeeded")
	}
	set := core.ProgramSet{core.NewJob[wccState, core.VertexID](&wccProg{}), core.NewJob[[]int32, int32](ptrProg{})}
	if _, _, err := RunMany(context.Background(), src, set, cfg); err == nil {
		t.Error("RunMany with a slice-valued vertex state succeeded")
	}
	if len(dev.names) != 0 {
		t.Errorf("files created before the type check: %v", dev.names)
	}
}
