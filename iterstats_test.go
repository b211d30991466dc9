package xstream_test

import (
	"context"
	"fmt"
	"testing"

	xstream "repro"
	"repro/internal/xstreamtest"
)

// Per-iteration profile parity: Stats.Iters must slice the cumulative
// counters exactly — the work-side fields of a run's iterations sum to the
// cumulative Stats fields, the I/O-side fields sum to at most them (out-of-
// loop I/O like the pre-processing shuffle belongs to the run), and the
// number of entries matches the executed iteration count. These invariants
// are what the serving layer's trace synthesis and the figobs bench build
// on, so they are pinned here for every execution path: solo typed runs,
// RunJob, and shared RunMany passes on both engines.

// iterSums accumulates Stats.Iters field-by-field.
type iterSums struct {
	edgesStreamed, edgesSkipped, partsSkipped, tilesSkipped                int64
	updatesSent, updatesCombined, crossUpdates, updateBytes                int64
	bytesRead, bytesReadLogical, bytesWritten, bytesChecksummed, ioRetries int64
}

func sumIters(iters []xstream.IterStats) iterSums {
	var s iterSums
	for i := range iters {
		it := &iters[i]
		s.edgesStreamed += it.EdgesStreamed
		s.edgesSkipped += it.EdgesSkipped
		s.partsSkipped += it.PartitionsSkipped
		s.tilesSkipped += it.TilesSkipped
		s.updatesSent += it.UpdatesSent
		s.updatesCombined += it.UpdatesCombined
		s.crossUpdates += it.CrossPartitionUpdates
		s.updateBytes += it.UpdateBytes
		s.bytesRead += it.BytesRead
		s.bytesReadLogical += it.BytesReadLogical
		s.bytesWritten += it.BytesWritten
		s.bytesChecksummed += it.BytesChecksummed
		s.ioRetries += it.IORetries
	}
	return s
}

// assertIterParity checks the sum invariants of one run's Stats.
// exactUpdates is false for pass-level stats of shared passes, whose
// update counters are folded in from the per-job stats after the loop and
// therefore appear only in the jobs' own Iters.
func assertIterParity(t *testing.T, name string, st xstream.Stats, exactUpdates bool) {
	t.Helper()
	executed := st.Iterations - st.ResumedIterations
	if len(st.Iters) != executed {
		t.Fatalf("%s: %d Iters entries for %d executed iterations (%d total - %d resumed)",
			name, len(st.Iters), executed, st.Iterations, st.ResumedIterations)
	}
	for i := range st.Iters {
		if want := st.ResumedIterations + i; st.Iters[i].Iter != want {
			t.Errorf("%s: Iters[%d].Iter = %d, want %d", name, i, st.Iters[i].Iter, want)
		}
	}
	s := sumIters(st.Iters)
	exact := []struct {
		field string
		sum   int64
		total int64
	}{
		{"EdgesStreamed", s.edgesStreamed, st.EdgesStreamed},
		{"EdgesSkipped", s.edgesSkipped, st.EdgesSkipped},
		{"PartitionsSkipped", s.partsSkipped, st.PartitionsSkipped},
		{"TilesSkipped", s.tilesSkipped, st.TilesSkipped},
	}
	updates := []struct {
		field string
		sum   int64
		total int64
	}{
		{"UpdatesSent", s.updatesSent, st.UpdatesSent},
		{"UpdatesCombined", s.updatesCombined, st.UpdatesCombined},
		{"CrossPartitionUpdates", s.crossUpdates, st.CrossPartitionUpdates},
		{"UpdateBytes", s.updateBytes, st.UpdateBytes},
	}
	if exactUpdates {
		exact = append(exact, updates...)
	} else {
		for _, u := range updates {
			if u.sum > u.total {
				t.Errorf("%s: sum(Iters.%s) = %d exceeds cumulative %d", name, u.field, u.sum, u.total)
			}
		}
	}
	for _, e := range exact {
		if e.sum != e.total {
			t.Errorf("%s: sum(Iters.%s) = %d, want cumulative %d", name, e.field, e.sum, e.total)
		}
	}
	atMost := []struct {
		field string
		sum   int64
		total int64
	}{
		{"BytesRead", s.bytesRead, st.BytesRead},
		{"BytesReadLogical", s.bytesReadLogical, st.BytesReadLogical},
		{"BytesWritten", s.bytesWritten, st.BytesWritten},
		{"BytesChecksummed", s.bytesChecksummed, st.BytesChecksummed},
		{"IORetries", s.ioRetries, st.IORetries},
	}
	for _, e := range atMost {
		if e.sum > e.total {
			t.Errorf("%s: sum(Iters.%s) = %d exceeds cumulative %d", name, e.field, e.sum, e.total)
		}
		if e.sum < 0 {
			t.Errorf("%s: sum(Iters.%s) = %d is negative", name, e.field, e.sum)
		}
	}
}

// TestIterStatsSoloRuns checks the invariants on the typed solo engines,
// with and without selective streaming (BFS exercises skips; PageRank a
// fixed iteration count).
func TestIterStatsSoloRuns(t *testing.T) {
	src := xstreamtest.RMAT(10, 31)
	memCfg := xstreamtest.MemConfig()
	memCfg.Partitions = 8

	res, err := xstream.RunMemory(src, xstream.NewPageRank(5), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIterParity(t, "mem/pagerank", res.Stats, true)
	if res.Stats.Iterations == 0 || len(res.Stats.Iters) == 0 {
		t.Fatal("mem/pagerank: no iterations profiled")
	}

	bres, err := xstream.RunMemory(src, xstream.NewBFS(3), memCfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIterParity(t, "mem/bfs", bres.Stats, true)

	diskCfg := xstreamtest.DiskConfig("iterstats")
	dres, err := xstream.RunDisk(src, xstream.NewBFS(3), diskCfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIterParity(t, "disk/bfs", dres.Stats, true)
	// The disk engine must attribute real device reads to iterations.
	if sums := sumIters(dres.Stats.Iters); sums.bytesRead == 0 {
		t.Error("disk/bfs: no per-iteration device reads attributed")
	}
}

// TestIterStatsSharedPass checks the invariants on RunMany for both
// engines: the pass-level stats carry the shared-stream counters per
// iteration, each job's stats its own work counters.
func TestIterStatsSharedPass(t *testing.T) {
	src := xstreamtest.RMAT(10, 32)
	set := xstream.ProgramSet{
		xstream.NewJob(xstream.NewPageRank(4)),
		xstream.NewJob(xstream.NewBFS(1)),
	}
	memCfg := xstreamtest.MemConfig()
	memCfg.Threads, memCfg.Partitions = 2, 8
	results, pass, err := xstream.RunManyMemory(context.Background(), src, set, memCfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIterParity(t, "runmany/mem/pass", pass, false)
	for i, r := range results {
		assertIterParity(t, fmt.Sprintf("runmany/mem/job%d", i), r.Stats, true)
	}

	set = xstream.ProgramSet{
		xstream.NewJob(xstream.NewPageRank(4)),
		xstream.NewJob(xstream.NewBFS(1)),
	}
	diskCfg := xstreamtest.DiskConfig("iterstats2")
	diskCfg.Threads = 2
	dresults, dpass, err := xstream.RunManyDisk(context.Background(), src, set, diskCfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIterParity(t, "runmany/disk/pass", dpass, false)
	for i, r := range dresults {
		assertIterParity(t, fmt.Sprintf("runmany/disk/job%d", i), r.Stats, true)
	}
}
