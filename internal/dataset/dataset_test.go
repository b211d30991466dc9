package dataset

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/graphio"
	"repro/internal/storage"
)

func testSource() core.EdgeSource {
	return graphgen.RMAT(graphgen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 71, Undirected: true})
}

func TestRegistryAddGetList(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Add("", testSource(), Options{}); err == nil {
		t.Fatal("empty name accepted")
	}
	for _, policy := range []string{"bogus", "2psv"} {
		if _, err := r.Add("g", testSource(), Options{Partitioner: policy}); err == nil || !strings.Contains(err.Error(), "unknown partitioner") {
			t.Fatalf("partitioner %q: got %v, want an unknown-partitioner error", policy, err)
		}
	}
	d, err := r.Add("g", testSource(), Options{Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("g", testSource(), Options{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	got, ok := r.Get("g")
	if !ok || got != d {
		t.Fatal("Get did not return the registered dataset")
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Name != "g" || !infos[0].Undirected || infos[0].MemPrepared {
		t.Fatalf("List = %+v", infos)
	}
	if d.NumVertices() == 0 || d.NumEdges() == 0 {
		t.Fatalf("sizes not captured: %d/%d", d.NumVertices(), d.NumEdges())
	}
}

// TestMemPreparedOnceAndServes: each placement's handle — in memory and
// out of core — is built once, reported by Info and charged to the
// registry, serves a WCC job, and eviction takes it off the residency.
func TestMemPreparedOnceAndServes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		prepared func(*Dataset) (core.Prepared, error)
		built    func(Info) bool
	}{
		{"mem", (*Dataset).Mem, func(i Info) bool { return i.MemPrepared }},
		{"disk", (*Dataset).Disk, func(i Info) bool { return i.DiskPrepared }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			defer r.Close()
			dev := storage.NewSim(storage.SSDParams("ds", 2, 0))
			d, err := r.Add("g", testSource(), Options{Threads: 2, MemPartitions: 16, Device: dev, IOUnit: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			pp1, err := tc.prepared(d)
			if err != nil {
				t.Fatal(err)
			}
			pp2, err := tc.prepared(d)
			if err != nil || pp1 != pp2 {
				t.Fatalf("handle not cached: %p vs %p (%v)", pp1, pp2, err)
			}
			info := d.Info()
			if !tc.built(info) {
				t.Fatal("Info does not report the prepared state")
			}
			if info.ResidentBytes <= 0 || info.ResidentBytes != pp1.Bytes() || r.Metrics().ResidentBytes != info.ResidentBytes {
				t.Fatalf("resident %d bytes, registry %d, handle %d", info.ResidentBytes, r.Metrics().ResidentBytes, pp1.Bytes())
			}
			// The handle actually serves jobs.
			inst, err := mustSpec(t, "wcc").New(algorithms.Params{})
			if err != nil {
				t.Fatal(err)
			}
			d.Acquire()
			res, pass, err := pp1.RunMany(context.Background(), core.ProgramSet{inst.Job})
			d.Release()
			if err != nil {
				t.Fatal(err)
			}
			if pass.CoJobs != 1 || len(res) != 1 {
				t.Fatalf("unexpected pass: %+v", pass)
			}
			// A 1-byte cap evicts it, and the registry stops charging it.
			r.SetMemoryCap(1)
			m := waitResidentUnder(t, r, 0)
			if info := d.Info(); tc.built(info) || info.ResidentBytes != 0 || m.Evictions != 1 {
				t.Fatalf("after eviction: %+v, %+v", info, m)
			}
		})
	}
}

// TestCloseReleasesPreparedState: Registry.Close takes every prepared
// handle off the residency it was charged, removes the partition files,
// and a dataset used afterwards fails instead of rebuilding files nobody
// would remove.
func TestCloseReleasesPreparedState(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("close", 2, 0))
	r := NewRegistry()
	d, err := r.Add("g", testSource(), Options{Threads: 2, MemPartitions: 16, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Mem(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Disk(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if reg, ds := r.Metrics().ResidentBytes, d.Info().ResidentBytes; reg != 0 || ds != 0 {
		t.Fatalf("after Close: registry charges %d bytes, the dataset holds %d", reg, ds)
	}
	if _, err := dev.Open("xserve-g-ds-p0000.edges"); err == nil {
		t.Fatal("a partition file survived Close")
	}
	if _, err := d.Disk(); err == nil {
		t.Fatal("Disk rebuilt the partition files after Close")
	}
	if _, err := d.Mem(); err == nil {
		t.Fatal("Mem rebuilt after Close")
	}
	if reg := r.Metrics().ResidentBytes; reg != 0 {
		t.Fatalf("a use after Close charged %d bytes", reg)
	}
}

// TestCloseWaitsOutBuilds: Registry.Close while uses of both placements
// are building from several goroutines waits for the builds, releases what
// they made and leaves nothing charged; every use that returns after it
// fails.
func TestCloseWaitsOutBuilds(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("close", 2, 0))
	r := NewRegistry()
	d, err := r.Add("g", testSource(), Options{Threads: 2, MemPartitions: 16, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	closed := make(chan struct{})
	for i := 0; i < 4; i++ {
		prepared := d.Mem
		if i%2 == 1 {
			prepared = d.Disk
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-closed:
					if _, err := prepared(); err == nil {
						t.Error("a use after Close built a handle")
					}
					return
				default:
					prepared()
				}
			}
		}()
	}
	// Close once a build is in flight, or both are done.
	for {
		d.mu.Lock()
		m, k := &d.slots[memSlot], &d.slots[diskSlot]
		started := m.building || k.building || (m.pp != nil && k.pp != nil)
		d.mu.Unlock()
		if started {
			break
		}
		runtime.Gosched()
	}
	r.Close()
	close(closed)
	wg.Wait()
	if reg, ds := r.Metrics().ResidentBytes, d.Info().ResidentBytes; reg != 0 || ds != 0 {
		t.Fatalf("after Close: registry charges %d bytes, the dataset holds %d", reg, ds)
	}
	if _, err := dev.Open("xserve-g-ds-p0000.edges"); err == nil {
		t.Fatal("a partition file survived Close")
	}
}

func mustSpec(t *testing.T, name string) algorithms.Spec {
	t.Helper()
	spec, ok := algorithms.ByName(name)
	if !ok {
		t.Fatalf("algorithm %q not registered", name)
	}
	return spec
}

func TestDiskRequiresDevice(t *testing.T) {
	r := NewRegistry()
	d, err := r.Add("g", testSource(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Disk(); err == nil {
		t.Fatal("Disk prepared without a device")
	}
}

// Test2PSPermutationLoaded: a permutation already persisted on the device
// is replayed instead of re-running the clustering passes — proven by
// planting a distinctive permutation and seeing it picked up.
func Test2PSPermutationLoaded(t *testing.T) {
	src := testSource()
	n := src.NumVertices()
	dev := storage.NewSim(storage.SSDParams("perm", 2, 0))
	planted := make([]core.VertexID, n)
	for i := range planted {
		planted[i] = core.VertexID(n) - 1 - core.VertexID(i)
	}
	r := NewRegistry()
	d, err := r.Add("g", src, Options{Partitioner: "2ps", Device: dev, Threads: 2, MemPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WritePermutation(dev, d.permFile(), planted); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Mem(); err != nil {
		t.Fatal(err)
	}
	if d.perm == nil || d.perm[0] != planted[0] || d.perm[len(d.perm)-1] != planted[len(planted)-1] {
		t.Fatal("planted permutation was not replayed")
	}
}

// Test2PSPermutationSaved: with no file present the clustering runs once
// and persists its permutation for future processes.
func Test2PSPermutationSaved(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 2, 0))
	r := NewRegistry()
	d, err := r.Add("g", testSource(), Options{Partitioner: "2ps", Device: dev, Threads: 2, MemPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Mem(); err != nil {
		t.Fatal(err)
	}
	perm, err := graphio.ReadPermutation(dev, d.permFile())
	if err != nil {
		t.Fatalf("clustering permutation was not persisted: %v", err)
	}
	if int64(len(perm)) != d.NumVertices() {
		t.Fatalf("persisted permutation has %d entries for %d vertices", len(perm), d.NumVertices())
	}
	// Both engines share the one permutation: preparing the disk handle
	// must not re-cluster (the loaded partitioner replays it).
	if _, err := d.Disk(); err != nil {
		t.Fatal(err)
	}
	if !d.Info().DiskPrepared {
		t.Fatal("Info does not report the disk prepared state")
	}
	r.Close()
}

// TestReplicateIgnoresStaleMirrors: a plan file an earlier release saved
// under its hub-replication name (xserve-<name>-<policy>-rep<N>.xsperm) is
// neither read nor overwritten: the registry plans into, and a restarted
// registry replays, xserve-g-2ps.xsperm, and a job's vertices equal those a
// registry without a device computes.
func TestReplicateIgnoresStaleMirrors(t *testing.T) {
	src := testSource()
	dev := storage.NewSim(storage.SSDParams("perm", 2, 0))
	stale := make([]core.VertexID, src.NumVertices())
	for i := range stale {
		stale[i] = core.VertexID(len(stale) - 1 - i)
	}
	if err := graphio.WritePermutation(dev, "xserve-g-2ps-rep256.xsperm", stale); err != nil {
		t.Fatal(err)
	}
	wcc := func(dev storage.Device) any {
		t.Helper()
		r := NewRegistry()
		t.Cleanup(r.Close)
		d, err := r.Add("g", src, Options{Partitioner: "2ps", Device: dev, Threads: 2, MemPartitions: 16})
		if err != nil {
			t.Fatal(err)
		}
		if dev != nil && d.permFile() != "xserve-g-2ps.xsperm" {
			t.Fatalf("plan file %q", d.permFile())
		}
		pp, err := d.Mem()
		if err != nil {
			t.Fatal(err)
		}
		inst, err := mustSpec(t, "wcc").New(algorithms.Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := pp.RunMany(context.Background(), core.ProgramSet{inst.Job})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Vertices
	}
	planned := wcc(dev)
	saved, err := graphio.ReadPermutation(dev, "xserve-g-2ps.xsperm")
	if err != nil {
		t.Fatalf("plan not saved under the policy's name: %v", err)
	}
	if slices.Equal(saved, stale) {
		t.Fatal("the stale plan was replayed")
	}
	replayed := wcc(dev)
	fresh := wcc(nil)
	if !reflect.DeepEqual(planned, fresh) || !reflect.DeepEqual(replayed, fresh) {
		t.Fatal("vertices differ from a registry without a device")
	}
	if got, err := graphio.ReadPermutation(dev, "xserve-g-2ps-rep256.xsperm"); err != nil || !slices.Equal(got, stale) {
		t.Fatalf("stale plan file changed: %v", err)
	}
}

// TestReplicateEmptyHubCachePersists: on a graph with no hubs (a grid, max
// degree 4) the plan is saved with no hub list at all, and a restarted
// registry replays the saved file instead of planning again.
func TestReplicateEmptyHubCachePersists(t *testing.T) {
	src := graphgen.Grid(24, 24, 5)
	dev := storage.NewSim(storage.SSDParams("perm", 2, 0))
	opts := Options{Partitioner: "2ps", Device: dev, Threads: 2, MemPartitions: 16}
	r := NewRegistry()
	defer r.Close()
	d, err := r.Add("g", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.partitioner(); err != nil {
		t.Fatal(err)
	}
	perm, err := graphio.ReadPermutation(dev, d.permFile())
	if err != nil {
		t.Fatalf("plan not persisted: %v", err)
	}
	if int64(len(perm)) != src.NumVertices() {
		t.Fatalf("persisted permutation has %d entries", len(perm))
	}
	// Replace the saved plan with a different valid one: only a replay,
	// not a fresh plan, yields it.
	planted := slices.Clone(perm)
	slices.Reverse(planted)
	if err := graphio.WritePermutation(dev, d.permFile(), planted); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	defer r2.Close()
	d2, err := r2.Add("g", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.partitioner(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d2.perm, planted) {
		t.Fatal("cached permutation not replayed")
	}
}
