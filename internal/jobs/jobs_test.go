package jobs

import (
	"context"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dataset"
	"repro/internal/graphgen"
	"repro/internal/storage"
)

func testRegistry(t *testing.T) *dataset.Registry { return testRegistryThreads(t, 2) }

// testRegistryThreads is testRegistry with the in-memory dataset's engine
// thread count chosen by the caller.
func testRegistryThreads(t *testing.T, memThreads int) *dataset.Registry {
	t.Helper()
	reg := dataset.NewRegistry()
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 81, Undirected: true})
	if _, err := reg.Add("g", src, dataset.Options{Undirected: true, Threads: memThreads, MemPartitions: 16}); err != nil {
		t.Fatal(err)
	}
	disk := graphgen.RMAT(graphgen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 82})
	dev := storage.NewSim(storage.SSDParams("jobs", 2, 0))
	if _, err := reg.Add("gdisk", disk, dataset.Options{Threads: 2, DiskPartitions: 8, IOUnit: 32 << 10, Device: dev}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// jobEstimate computes the admission footprint the scheduler will see.
func jobEstimate(t *testing.T, reg *dataset.Registry, algo string) int64 {
	t.Helper()
	ds, _ := reg.Get("g")
	spec, ok := algorithms.ByName(algo)
	if !ok {
		t.Fatalf("no %s spec", algo)
	}
	inst, err := spec.New(algorithms.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Job.MemoryEstimate(ds.NumVertices(), ds.NumEdges())
}

func waitDone(t *testing.T, s *Scheduler, id string) Info {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v (status %s)", id, err, info.Status)
	}
	return info
}

func TestSubmitValidation(t *testing.T) {
	reg := testRegistry(t)
	s := New(reg, Config{})
	defer s.Close()
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown dataset", Request{Dataset: "nope", Algo: "wcc"}},
		{"unknown algo", Request{Dataset: "g", Algo: "nope"}},
		{"unknown engine", Request{Dataset: "g", Algo: "wcc", Engine: "quantum"}},
		{"disk without device", Request{Dataset: "g", Algo: "wcc", Engine: EngineDisk}},
		{"als without users", Request{Dataset: "g", Algo: "als"}},
		{"hyperanf on directed", Request{Dataset: "gdisk", Algo: "hyperanf"}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.req); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Over-budget jobs are rejected at submit, not failed later.
	tiny := New(reg, Config{MemoryBudget: 1024})
	defer tiny.Close()
	if _, err := tiny.Submit(Request{Dataset: "g", Algo: "wcc"}); err == nil {
		t.Error("over-budget job accepted")
	}
}

// TestBatchingSameDataset: queued jobs on one dataset run as a single
// shared pass, and the pass streams the edges once for all of them.
func TestBatchingSameDataset(t *testing.T) {
	// One engine thread: the exact-agreement check at the end compares two
	// float-sum (PageRank) runs bit for bit, which holds only while the
	// order partition tasks reach each job's update stream is fixed — with
	// two threads the twins differed in the last ulp on every fifth run
	// (ROADMAP "Fix first", step 2). Batching and sharing do not depend on
	// the thread count.
	reg := testRegistryThreads(t, 1)
	s := New(reg, Config{Workers: 1})
	defer s.Close()

	s.Pause()
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.Submit(Request{Dataset: "g", Algo: "pagerank"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Resume()
	for _, id := range ids {
		info := waitDone(t, s, id)
		if info.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, info.Status, info.Error)
		}
		if info.BatchSize != 4 {
			t.Fatalf("job %s ran in a batch of %d, want 4", id, info.BatchSize)
		}
		if info.Summary == "" {
			t.Fatalf("job %s has no summary", id)
		}
	}
	m := s.Metrics()
	if m.Batches != 1 || m.BatchedJobs != 4 || m.Completed != 4 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.EdgesShared <= 0 || m.EdgesShared < 2*m.EdgesStreamed {
		t.Fatalf("4-job batch shared %d edge reads over %d streamed, want ~3x", m.EdgesShared, m.EdgesStreamed)
	}
	// All four identical jobs agree exactly.
	r0, _, _, err := s.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	r1, _, _, err := s.Result(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	ranks0 := r0.(map[string]any)["ranks"].([]float32)
	ranks1 := r1.(map[string]any)["ranks"].([]float32)
	for v := range ranks0 {
		if ranks0[v] != ranks1[v] {
			t.Fatalf("co-scheduled twins disagree at vertex %d: %g vs %g", v, ranks0[v], ranks1[v])
		}
	}
}

// TestAdmissionControl: a budget that fits one job at a time serializes
// the queue into single-job batches, never exceeding the budget.
func TestAdmissionControl(t *testing.T) {
	reg := testRegistry(t)
	est := jobEstimate(t, reg, "pagerank")
	s := New(reg, Config{Workers: 2, MemoryBudget: est + est/2})
	defer s.Close()

	s.Pause()
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.Submit(Request{Dataset: "g", Algo: "pagerank"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Resume()
	for _, id := range ids {
		info := waitDone(t, s, id)
		if info.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, info.Status, info.Error)
		}
		if info.BatchSize != 1 {
			t.Fatalf("job %s batched %d-wide under a one-job budget", id, info.BatchSize)
		}
	}
	m := s.Metrics()
	if m.Batches != 3 || m.MemoryInUse != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestMaxBatch caps the shared-pass width.
func TestMaxBatch(t *testing.T) {
	reg := testRegistry(t)
	s := New(reg, Config{Workers: 1, MaxBatch: 2})
	defer s.Close()
	s.Pause()
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.Submit(Request{Dataset: "g", Algo: "wcc"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Resume()
	for _, id := range ids {
		if info := waitDone(t, s, id); info.BatchSize != 2 {
			t.Fatalf("job %s: batch %d, want 2", id, info.BatchSize)
		}
	}
	if m := s.Metrics(); m.Batches != 2 {
		t.Fatalf("batches = %d, want 2", m.Batches)
	}
}

// TestBatchesSplitByDataset: jobs on different datasets (or engines) never
// share a pass.
func TestBatchesSplitByDataset(t *testing.T) {
	reg := testRegistry(t)
	s := New(reg, Config{Workers: 1})
	defer s.Close()
	s.Pause()
	a1, _ := s.Submit(Request{Dataset: "g", Algo: "wcc"})
	b1, _ := s.Submit(Request{Dataset: "gdisk", Algo: "wcc"})
	a2, _ := s.Submit(Request{Dataset: "g", Algo: "bfs"})
	b2, _ := s.Submit(Request{Dataset: "gdisk", Algo: "bfs", Engine: EngineDisk})
	s.Resume()
	for _, id := range []string{a1, b1, a2, b2} {
		info := waitDone(t, s, id)
		if info.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, info.Status, info.Error)
		}
	}
	// g:{wcc,bfs} batch together; gdisk mem and gdisk disk run separately.
	ia1, _ := s.Get(a1)
	ia2, _ := s.Get(a2)
	if ia1.BatchSize != 2 || ia2.BatchSize != 2 {
		t.Fatalf("same-dataset jobs did not batch: %d/%d", ia1.BatchSize, ia2.BatchSize)
	}
	ib1, _ := s.Get(b1)
	ib2, _ := s.Get(b2)
	if ib1.BatchSize != 1 || ib2.BatchSize != 1 {
		t.Fatalf("cross-engine jobs batched: %d/%d", ib1.BatchSize, ib2.BatchSize)
	}
}

func TestCancelQueued(t *testing.T) {
	reg := testRegistry(t)
	s := New(reg, Config{Workers: 1})
	defer s.Close()
	s.Pause()
	id, err := s.Submit(Request{Dataset: "g", Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	s.Resume()
	info, _ := s.Get(id)
	if info.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", info.Status)
	}
	if err := s.Cancel(id); err == nil {
		t.Fatal("canceling a canceled job succeeded")
	}
	if err := s.Cancel("j999999"); err != ErrNotFound {
		t.Fatalf("cancel of unknown id: %v", err)
	}
}

// TestCancelRunning: canceling every job of a running pass stops the
// engines mid-computation via the pass context.
func TestCancelRunning(t *testing.T) {
	reg := testRegistry(t)
	s := New(reg, Config{Workers: 1})
	defer s.Close()
	// Enough iterations that the pass cannot finish before the cancel.
	id, err := s.Submit(Request{Dataset: "g", Algo: "pagerank", Params: algorithms.Params{Iters: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, _ := s.Get(id)
		if info.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (status %s)", info.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s, id)
	if info.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", info.Status)
	}
	if _, _, _, err := s.Result(id); err == nil {
		t.Fatal("canceled job served a result")
	}
}

func TestRetention(t *testing.T) {
	reg := testRegistry(t)
	s := New(reg, Config{Workers: 1, Retention: 2})
	defer s.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.Submit(Request{Dataset: "g", Algo: "bfs"})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, id)
		ids = append(ids, id)
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Fatal("oldest job survived the retention window")
	}
	if _, ok := s.Get(ids[3]); !ok {
		t.Fatal("newest job was pruned")
	}
	if n := len(s.List()); n != 2 {
		t.Fatalf("retained %d jobs, want 2", n)
	}
}

// TestDiskJobMatchesMem: the same algorithm served by both engines over
// equivalent datasets agrees.
func TestDiskJobMatchesMem(t *testing.T) {
	reg := testRegistry(t)
	s := New(reg, Config{})
	defer s.Close()
	memID, err := s.Submit(Request{Dataset: "gdisk", Algo: "bfs", Engine: EngineMem})
	if err != nil {
		t.Fatal(err)
	}
	diskID, err := s.Submit(Request{Dataset: "gdisk", Algo: "bfs", Engine: EngineDisk})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, s, memID); info.Status != StatusDone {
		t.Fatalf("mem job: %s (%s)", info.Status, info.Error)
	}
	if info := waitDone(t, s, diskID); info.Status != StatusDone {
		t.Fatalf("disk job: %s (%s)", info.Status, info.Error)
	}
	rm, _, _, err := s.Result(memID)
	if err != nil {
		t.Fatal(err)
	}
	rd, _, _, err := s.Result(diskID)
	if err != nil {
		t.Fatal(err)
	}
	lm := rm.(map[string]any)["levels"].([]int32)
	ld := rd.(map[string]any)["levels"].([]int32)
	for v := range lm {
		if lm[v] != ld[v] {
			t.Fatalf("vertex %d: mem level %d, disk level %d", v, lm[v], ld[v])
		}
	}
}

// TestCorruptedDatasetRebuiltOnRetry: corrupting a partition edge file on
// the device after a successful disk run must not fail the next job — the
// pass surfaces ErrCorrupted, the scheduler invalidates the dataset's disk
// artifacts, requeues the job, and the retry rebuilds and completes with
// results identical to the pre-corruption run. The attempt count and the
// retry/corruption counters record the whole episode.
func TestCorruptedDatasetRebuiltOnRetry(t *testing.T) {
	reg := dataset.NewRegistry()
	defer reg.Close()
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 82})
	dev := storage.NewSim(storage.SSDParams("jobs", 2, 0))
	if _, err := reg.Add("gdisk", src, dataset.Options{Threads: 2, DiskPartitions: 8, IOUnit: 32 << 10, Device: dev}); err != nil {
		t.Fatal(err)
	}
	// Disable the result cache: the second submission must recompute so
	// the corruption is actually hit on the read path.
	s := New(reg, Config{Workers: 1, ResultCacheBytes: -1})
	defer s.Close()

	id, err := s.Submit(Request{Dataset: "gdisk", Algo: "pagerank", Engine: EngineDisk})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, s, id); info.Status != StatusDone || info.Attempts != 1 {
		t.Fatalf("clean job: status %s, attempts %d (%s)", info.Status, info.Attempts, info.Error)
	}
	r0, _, _, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want := r0.(map[string]any)["ranks"].([]float32)

	// Flip one byte in the middle of partition 0's edge file.
	f, err := dev.Open("xserve-gdisk-ds-p0000.edges")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	mid := f.Size() / 2
	if _, err := f.ReadAt(b, mid); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, mid); err != nil {
		t.Fatal(err)
	}
	f.Close()

	id2, err := s.Submit(Request{Dataset: "gdisk", Algo: "pagerank", Engine: EngineDisk})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s, id2)
	if info.Status != StatusDone {
		t.Fatalf("retried job: %s (%s)", info.Status, info.Error)
	}
	if info.Attempts != 2 {
		t.Fatalf("retried job made %d attempts, want 2", info.Attempts)
	}
	r2, _, _, err := s.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	got := r2.(map[string]any)["ranks"].([]float32)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: rank %g after rebuild, want %g", v, got[v], want[v])
		}
	}
	m := s.Metrics()
	if m.RetriedJobs < 1 || m.CorruptedPasses < 1 {
		t.Fatalf("metrics after corruption retry: %+v", m)
	}
	if dm := reg.Metrics(); dm.CorruptionEvictions < 1 {
		t.Fatalf("dataset metrics recorded %d corruption evictions, want >= 1", dm.CorruptionEvictions)
	}
}
