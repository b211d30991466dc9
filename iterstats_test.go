package xstream_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	xstream "repro"
	"repro/internal/core"
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

// sumIters sums every int64 counter of Stats.Iters, durations aside, by
// field name, so a counter added to IterStats is checked without editing
// this file.
func sumIters(iters []xstream.IterStats) map[string]int64 {
	sums := map[string]int64{}
	durType := reflect.TypeOf(time.Duration(0))
	for i := range iters {
		v := reflect.ValueOf(iters[i])
		for f := 0; f < v.NumField(); f++ {
			if fv := v.Field(f); fv.Kind() == reflect.Int64 && fv.Type() != durType {
				sums[v.Type().Field(f).Name] += fv.Int()
			}
		}
	}
	return sums
}

// passFolded names the update counters a shared pass's stats receive from
// its jobs' stats after the loop: they appear only in the jobs' own Iters.
var passFolded = map[string]bool{
	"UpdatesSent": true, "UpdatesCombined": true, "CrossPartitionUpdates": true, "UpdateBytes": true,
}

// assertIterParity checks the sum invariants of one run's Stats. Each
// IterStats counter sums to its cumulative Stats field when core.StatClasses
// classes that field StatWork, and to at most it when StatSchedule.
// exactUpdates is false for pass-level stats of shared passes, whose
// passFolded counters are only bounded by the cumulative fields.
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
	cum := reflect.ValueOf(st)
	for field, sum := range sumIters(st.Iters) {
		total := cum.FieldByName(field)
		if !total.IsValid() || total.Kind() != reflect.Int64 {
			t.Errorf("%s: Iters.%s has no int64 Stats field to sum to", name, field)
			continue
		}
		switch class := core.StatClasses[field]; {
		case class == core.StatWork && (exactUpdates || !passFolded[field]):
			if sum != total.Int() {
				t.Errorf("%s: sum(Iters.%s) = %d, want cumulative %d", name, field, sum, total.Int())
			}
		case class == core.StatWork || class == core.StatSchedule:
			if sum > total.Int() {
				t.Errorf("%s: sum(Iters.%s) = %d exceeds cumulative %d", name, field, sum, total.Int())
			}
			if sum < 0 {
				t.Errorf("%s: sum(Iters.%s) = %d is negative", name, field, sum)
			}
		default:
			t.Errorf("%s: Iters.%s sums Stats.%s, which is neither StatWork nor StatSchedule", name, field, field)
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
	if sumIters(dres.Stats.Iters)["BytesRead"] == 0 {
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
