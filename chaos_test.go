package xstream_test

// Chaos equivalence: the fault-tolerance contract of the out-of-core
// engine, driven end to end through the public API. Three properties, one
// per test:
//
//   - transient faults (reported errors, short reads, torn-and-reported
//     writes) are absorbed by the retry layer and the run completes
//     bit-identically to a fault-free run;
//   - silent corruption (bit flips on read, torn writes that report
//     success) surfaces as ErrCorrupted, never as a wrong result;
//   - a run killed mid-stream resumes from its last completed iteration's
//     checkpoint and still produces bit-identical results, without
//     re-executing the iterations it resumed past.
//
// The fault schedule is seeded: regular CI replays one fixed schedule,
// the nightly job randomizes XSTREAM_CHAOS_SEED so the suite walks new
// schedules over time. A failure always logs the seed that produced it.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	xstream "repro"
	"repro/internal/xstreamtest"
)

// chaosSeed is the fault-schedule seed: XSTREAM_CHAOS_SEED when set (the
// nightly job randomizes it), a fixed default otherwise.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("XSTREAM_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("XSTREAM_CHAOS_SEED %q: %v", s, err)
		}
		t.Logf("chaos seed %d (from XSTREAM_CHAOS_SEED)", v)
		return v
	}
	return 1
}

// chaosGraph is one undirected scale-free graph all three workloads share —
// large enough that a run issues hundreds of device operations, so the
// probabilistic fault schedules below fire under any seed.
func chaosGraph() xstream.EdgeSource {
	return xstreamtest.RMATUndirected(11, 77)
}

var chaosAlgos = []string{"bfs", "wcc", "pagerank"}

// runChaosAlgo executes one workload out of core and canonicalizes the
// result to raw bits, so every equivalence check below is an exact bit
// comparison — float ranks included.
func runChaosAlgo(algo string, src xstream.EdgeSource, cfg xstream.DiskConfig) ([]uint32, xstream.Stats, error) {
	switch algo {
	case "bfs":
		res, err := xstream.RunDisk(src, xstream.NewBFS(3), cfg)
		if err != nil {
			return nil, xstream.Stats{}, err
		}
		levels := xstream.BFSLevels(res.Vertices)
		out := make([]uint32, len(levels))
		for i, v := range levels {
			out[i] = uint32(v)
		}
		return out, res.Stats, nil
	case "wcc":
		res, err := xstream.RunDisk(src, xstream.NewWCC(), cfg)
		if err != nil {
			return nil, xstream.Stats{}, err
		}
		labels := xstream.WCCLabels(res.Vertices)
		out := make([]uint32, len(labels))
		for i, v := range labels {
			out[i] = uint32(v)
		}
		return out, res.Stats, nil
	case "pagerank":
		res, err := xstream.RunDisk(src, xstream.NewPageRank(5), cfg)
		if err != nil {
			return nil, xstream.Stats{}, err
		}
		ranks := xstream.PageRankValues(res.Vertices)
		out := make([]uint32, len(ranks))
		for i, v := range ranks {
			out[i] = math.Float32bits(v)
		}
		return out, res.Stats, nil
	}
	panic("unknown chaos algorithm " + algo)
}

// runChaosShared is runChaosAlgo through the serving path: the same
// workload as a shared pass of one job (RunManyDisk), which keeps vertex
// state in memory and reads the edge files through the same partition
// reader as the solo engine.
func runChaosShared(algo string, src xstream.EdgeSource, cfg xstream.DiskConfig) ([]uint32, xstream.Stats, error) {
	job := map[string]func() *xstream.Job{
		"bfs":      func() *xstream.Job { return xstream.NewJob(xstream.NewBFS(3)) },
		"wcc":      func() *xstream.Job { return xstream.NewJob(xstream.NewWCC()) },
		"pagerank": func() *xstream.Job { return xstream.NewJob(xstream.NewPageRank(5)) },
	}[algo]()
	res, pass, err := xstream.RunManyDisk(context.Background(), src, xstream.ProgramSet{job}, cfg)
	if err != nil {
		return nil, xstream.Stats{}, err
	}
	var out []uint32
	switch verts := res[0].Vertices.(type) {
	case []xstream.BFSState:
		for _, v := range xstream.BFSLevels(verts) {
			out = append(out, uint32(v))
		}
	case []xstream.WCCState:
		for _, v := range xstream.WCCLabels(verts) {
			out = append(out, uint32(v))
		}
	case []xstream.PRState:
		for _, v := range xstream.PageRankValues(verts) {
			out = append(out, math.Float32bits(v))
		}
	}
	return out, pass, nil
}

func chaosConfig(dev xstream.Device, selective, compress bool) xstream.DiskConfig {
	cfg := xstreamtest.DiskConfigOn(dev)
	cfg.Selective, cfg.CompressTiles = selective, compress
	return cfg
}

// TestChaosTransientEquivalence: under a schedule of reported transient
// faults — read errors, torn-and-reported writes, truncate errors, legal
// short reads — a retry-wrapped device completes every workload with
// results bit-identical to a fault-free run, and the Stats prove both that
// faults actually fired and that the retry layer absorbed them.
func TestChaosTransientEquivalence(t *testing.T) {
	seed := chaosSeed(t)
	src := chaosGraph()
	variants := []struct {
		name                string
		selective, compress bool
	}{
		{"raw", false, false},
		{"selective-compressed", true, true},
	}
	for _, algo := range chaosAlgos {
		for _, v := range variants {
			t.Run(algo+"/"+v.name, func(t *testing.T) {
				clean := chaosConfig(xstream.NewSimDevice(xstream.SimSSD("chaos-clean", 2, 0)), v.selective, v.compress)
				want, _, err := runChaosAlgo(algo, src, clean)
				if err != nil {
					t.Fatalf("fault-free run: %v", err)
				}

				faulty := xstream.NewFaultyDevice(
					xstream.NewSimDevice(xstream.SimSSD("chaos", 2, 0)),
					xstream.FaultyOptions{
						Seed: seed, ReadErr: 0.08, WriteErr: 0.08,
						TruncateErr: 0.08, ShortRead: 0.15, MaxFaults: 2000,
					})
				cfg := chaosConfig(
					xstream.NewRetryDevice(faulty, xstream.RetryOptions{
						MaxAttempts: 40, Seed: seed, Sleep: func(time.Duration) {},
					}), v.selective, v.compress)
				got, stats, err := runChaosAlgo(algo, src, cfg)
				if err != nil {
					t.Fatalf("seed %d: run failed despite retry: %v", seed, err)
				}
				if n := faulty.(xstream.FaultInjector).Faults(); n == 0 {
					t.Fatal("fault schedule never fired")
				}
				if stats.IORetries == 0 {
					t.Fatal("Stats.IORetries = 0: retry layer absorbed nothing")
				}
				if stats.BytesChecksummed == 0 {
					t.Fatal("Stats.BytesChecksummed = 0: read-path verification was not active")
				}
				if stats.ChecksumFailures != 0 {
					t.Fatalf("%d checksum failures from transient-only faults", stats.ChecksumFailures)
				}
				xstreamtest.AssertBitIdentical(t, got, want, fmt.Sprintf("seed %d", seed))
			})
		}
	}
}

// TestChaosCorruptionDetected: under silent corruption — bit flips on the
// read path, torn writes that report success — a run either fails with
// ErrCorrupted or returns results bit-identical to a fault-free run.
// A wrong result is the one forbidden outcome; there is no retry wrapper
// here, so nothing can heal what the checksums must catch.
func TestChaosCorruptionDetected(t *testing.T) {
	seed := chaosSeed(t)
	src := chaosGraph()
	kinds := []struct {
		name string
		opts func(s int64) xstream.FaultyOptions
	}{
		{"corrupt-read", func(s int64) xstream.FaultyOptions {
			return xstream.FaultyOptions{Seed: s, CorruptRead: 0.25, MaxFaults: 3}
		}},
		{"torn-write", func(s int64) xstream.FaultyOptions {
			return xstream.FaultyOptions{Seed: s, TornWrite: 0.25, MaxFaults: 3}
		}},
	}
	for _, algo := range chaosAlgos {
		clean := chaosConfig(xstream.NewSimDevice(xstream.SimSSD("chaos-clean", 2, 0)), false, false)
		want, _, err := runChaosAlgo(algo, src, clean)
		if err != nil {
			t.Fatalf("%s: fault-free run: %v", algo, err)
		}
		for _, k := range kinds {
			t.Run(algo+"/"+k.name, func(t *testing.T) {
				corruptionDetected(t, runChaosAlgo, algo, src, want, seed, k.opts)
			})
			t.Run(algo+"/"+k.name+"-shared-pass", func(t *testing.T) {
				corruptionDetected(t, runChaosShared, algo, src, want, seed, k.opts)
			})
		}
	}
}

// corruptionDetected drives one workload, solo or as a shared pass, over six
// seeded schedules of one silent-corruption kind.
func corruptionDetected(t *testing.T, run func(string, xstream.EdgeSource, xstream.DiskConfig) ([]uint32, xstream.Stats, error),
	algo string, src xstream.EdgeSource, want []uint32, seed int64, opts func(int64) xstream.FaultyOptions) {
	fired, detected := 0, 0
	for i := 0; i < 6; i++ {
		s := seed + int64(i)*1001
		faulty := xstream.NewFaultyDevice(
			xstream.NewSimDevice(xstream.SimSSD("chaos", 2, 0)), opts(s))
		got, _, err := run(algo, src, chaosConfig(faulty, false, false))
		n := faulty.(xstream.FaultInjector).Faults()
		if n > 0 {
			fired++
		}
		if err != nil {
			if !errors.Is(err, xstream.ErrCorrupted) {
				t.Fatalf("seed %d: corruption surfaced as %v, want ErrCorrupted", s, err)
			}
			if n == 0 {
				t.Fatalf("seed %d: ErrCorrupted reported with no injected fault", s)
			}
			detected++
			continue
		}
		// The run returned results: they must be exactly right. An
		// injected corruption that changed any bit of the output is
		// the failure the checksum layer exists to prevent.
		xstreamtest.AssertBitIdentical(t, got, want, fmt.Sprintf("seed %d: corruption reached the result", s))
	}
	if fired == 0 {
		t.Fatal("fault schedule never fired across any seed")
	}
	if detected == 0 {
		t.Fatal("no run surfaced ErrCorrupted: schedule too weak to prove detection")
	}
}

// TestChaosResumeAfterFault: a run killed mid-stream (every device
// operation fails past a budget) leaves its iteration checkpoints behind;
// restarting with the same prefix resumes past the completed iterations —
// Stats.ResumedIterations proves they were restored, not re-executed — and
// the final results are bit-identical to an uninterrupted run.
func TestChaosResumeAfterFault(t *testing.T) {
	src := chaosGraph()
	for _, algo := range []string{"pagerank", "bfs"} {
		t.Run(algo, func(t *testing.T) {
			selective := algo == "bfs"
			mk := func(dev xstream.Device, prefix string) xstream.DiskConfig {
				cfg := chaosConfig(dev, selective, false)
				cfg.Checkpoint = true
				cfg.Prefix = prefix
				return cfg
			}
			cleanDev := xstream.NewSimDevice(xstream.SimSSD("chaos-clean", 2, 0))
			want, cleanStats, err := runChaosAlgo(algo, src, mk(cleanDev, "clean-"))
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			ds := cleanDev.Stats()
			totalOps := ds.Reads + ds.Writes

			// Kill the run at several points of its op budget until one crash
			// lands after the first checkpoint; the checkpoints survive on the
			// inner device, which the resume then runs against directly.
			inner := xstream.NewSimDevice(xstream.SimSSD("chaos", 2, 0))
			for attempt, frac := range []float64{0.6, 0.45, 0.75, 0.3, 0.9, 0.2} {
				prefix := fmt.Sprintf("crash%d-", attempt)
				budget := int64(float64(totalOps) * frac)
				if budget < 1 {
					budget = 1
				}
				faulty := xstream.NewFaultyDevice(inner, xstream.FaultyOptions{FailAfterOps: budget})
				if _, _, err := runChaosAlgo(algo, src, mk(faulty, prefix)); err == nil {
					continue // budget outlasted the whole run: not a crash
				}
				got, stats, err := runChaosAlgo(algo, src, mk(inner, prefix))
				if err != nil {
					t.Fatalf("resume after crash at %d ops: %v", budget, err)
				}
				if stats.ResumedIterations == 0 {
					continue // crashed before the first checkpoint completed
				}
				if stats.Iterations != cleanStats.Iterations {
					t.Fatalf("resumed run spans %d iterations, fault-free run %d",
						stats.Iterations, cleanStats.Iterations)
				}
				if executed := stats.Iterations - stats.ResumedIterations; executed >= stats.Iterations {
					t.Fatalf("resume executed all %d iterations despite claiming to restore %d",
						stats.Iterations, stats.ResumedIterations)
				}
				xstreamtest.AssertBitIdentical(t, got, want, fmt.Sprintf("resume from iteration %d", stats.ResumedIterations))
				t.Logf("crash after %d of %d ops: resumed at iteration %d of %d, bit-identical",
					budget, totalOps, stats.ResumedIterations, stats.Iterations)
				return
			}
			t.Fatal("no crash window produced a resumable checkpoint")
		})
	}
}
