// Command xstream runs a graph algorithm over an edge list with either
// engine — the CLI face of the library.
//
// Usage:
//
//	xstream -algo wcc -rmat 20 -undirected            # in-memory on a generated graph
//	xstream -algo pagerank -input g.xsedge            # in-memory on a binary edge file
//	xstream -algo bfs -root 5 -input g.xsedge \
//	        -engine disk -dir /mnt/fast/xs -budget 8g # out of core on real files
//	xstream -algo sssp -engine disk -device sim-ssd   # out of core on the simulated SSD
//	xstream -algo pagerank -rmat 18 -partitioner 2ps \
//	        -save-permutation g.xsperm                # pay the clustering pass once...
//	xstream -algo wcc -rmat 18 -load-permutation g.xsperm  # ...replay it later
//	xstream -algo pagerank -rmat 18 -combine=false    # disable update pre-aggregation
//	xstream -algo bfs -rmat 18 -selective=false       # stream densely even with a frontier
//	xstream -algo pagerank -rmat 18 -trace-out t.json # span trace for Perfetto/chrome://tracing
//	xstream -algo pagerank -rmat 18 -cpuprofile cpu.out -memprofile mem.out  # go tool pprof
//
// Algorithms are dispatched through the registry in internal/algorithms —
// the same table cmd/xserve serves jobs from — and executed as type-erased
// jobs (the shared-pass path; a solo CLI run is a shared pass of one). On
// the disk engine -budget sizes partitions and stream buffers by the §3.4
// rule and decides whether vertex state spills to the device; updates spill
// whenever an iteration outgrows one stream buffer. It prints the
// execution Stats (iterations, partitions, wasted edges, phase times) and
// an algorithm-specific summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	xstream "repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/memengine"
	"repro/internal/obs"
)

func main() {
	var (
		algo       = flag.String("algo", "wcc", "algorithm: "+strings.Join(algorithms.Names(), "|"))
		input      = flag.String("input", "", "binary edge file to process")
		rmat       = flag.Int("rmat", 0, "generate an RMAT graph of this scale instead of -input")
		edgeFactor = flag.Int("ef", 16, "RMAT edge factor")
		seed       = flag.Int64("seed", 1, "RMAT seed")
		undirected = flag.Bool("undirected", false, "generate undirected RMAT")
		root       = flag.Uint("root", 0, "root vertex for bfs/sssp")
		iters      = flag.Int("iters", 5, "iterations for pagerank/bp/als")
		users      = flag.Int64("users", 0, "user count for als (bipartite split)")
		engine     = flag.String("engine", "mem", "engine: mem|disk")
		device     = flag.String("device", "os", "disk engine device: os|sim-ssd|sim-hdd")
		dir        = flag.String("dir", os.TempDir(), "directory for -device os")
		budget     = flag.String("budget", "256m", "disk engine memory budget (e.g. 8g)")
		ioUnit     = flag.String("iounit", "1m", "disk engine I/O unit (e.g. 16m)")
		threads    = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		partition  = flag.String("partitioner", "range", "partitioning policy: range|2ps")
		combine    = flag.Bool("combine", true, "pre-aggregate the update stream when the algorithm has a combiner and its destination values fit 16 MiB")
		selective  = flag.Bool("selective", true, "skip inactive partitions and edge tiles when the algorithm has a frontier (bfs/sssp/wcc)")
		compress   = flag.Bool("compress-tiles", false, "disk engine: store partition edge files as compressed tiles (bit-identical results, fewer physical bytes read)")
		savePerm   = flag.String("save-permutation", "", "save the partitioner's vertex relabeling to this file after planning")
		loadPerm   = flag.String("load-permutation", "", "replay a saved vertex relabeling instead of running the partitioner")
		checkpoint = flag.Bool("checkpoint", false, "disk engine: persist a checksummed snapshot after each iteration; a rerun over the same directory resumes from the last completed iteration")
		ioRetries  = flag.Int("io-retries", 3, "disk engine: retry transient device errors up to N times with jittered backoff (0 = fail fast)")
		verify     = flag.Bool("verify-checksums", true, "disk engine: verify the CRC32C frames of on-disk artifacts on read; a mismatch fails the run with a corruption error instead of computing on bad data")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto or chrome://tracing)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile after the run to this file (go tool pprof)")
	)
	flag.Parse()

	var partitioner xstream.Partitioner
	switch *partition {
	case "range":
		partitioner = xstream.NewRangePartitioner()
	case "2ps":
		partitioner = xstream.New2PSPartitioner()
	default:
		fatal("unknown -partitioner %q", *partition)
	}
	// A saved permutation replaces the partitioning pass entirely; saving
	// wraps the chosen partitioner so the pass is paid once per dataset.
	if *loadPerm != "" {
		if *savePerm != "" {
			fatal("-save-permutation and -load-permutation are mutually exclusive")
		}
		dev, name, err := fileDevice(*loadPerm)
		if err != nil {
			fatal("device: %v", err)
		}
		partitioner, err = xstream.LoadPartitioner(dev, name)
		if err != nil {
			fatal("load permutation: %v", err)
		}
	} else if *savePerm != "" {
		dev, name, err := fileDevice(*savePerm)
		if err != nil {
			fatal("device: %v", err)
		}
		partitioner = xstream.SavingPartitioner(partitioner, dev, name)
	}

	spec, ok := algorithms.ByName(*algo)
	if !ok {
		fatal("unknown -algo %q (have %s)", *algo, strings.Join(algorithms.Names(), "|"))
	}
	inst, err := spec.New(algorithms.Params{
		Root: core.VertexID(*root), Iters: *iters, Users: *users,
	})
	if err != nil {
		fatal("-algo %s: %v", *algo, err)
	}

	src := loadInput(*input, *rmat, *edgeFactor, *seed, *undirected)
	fmt.Fprintf(os.Stderr, "xstream: %d vertices, %d edge records\n", src.NumVertices(), src.NumEdges())
	if spec.Symmetrize {
		src = xstream.Symmetrize(src)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	var tracer *obs.Recorder
	if *traceOut != "" {
		tracer = obs.NewRecorder()
	}

	cfg := xstream.Config{
		Threads: *threads, Partitioner: partitioner, NoCombine: !*combine, Selective: *selective,
		MemoryBudget: parseBytes(*budget), IOUnit: int(parseBytes(*ioUnit)),
		CompressTiles: *compress, NoVerify: !*verify, Checkpoint: *checkpoint,
	}
	if tracer != nil {
		cfg.Tracer = tracer
	}
	runJob := memengine.RunJob
	switch *engine {
	case "mem":
	case "disk":
		cfg.Device = openDevice(*device, *dir, *ioRetries)
		runJob = diskengine.RunJob
	default:
		fatal("unknown -engine %q", *engine)
	}
	out, err := runJob(context.Background(), src, inst.Job, cfg)
	if err != nil {
		fatal("%v", err)
	}
	if tracer != nil {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fatal("-trace-out: %v", ferr)
		}
		events := tracer.Events()
		if werr := obs.WriteChromeTrace(f, events); werr != nil {
			fatal("-trace-out: %v", werr)
		}
		if cerr := f.Close(); cerr != nil {
			fatal("-trace-out: %v", cerr)
		}
		fmt.Fprintf(os.Stderr, "xstream: wrote %d spans to %s\n", len(events), *traceOut)
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fatal("-memprofile: %v", ferr)
		}
		runtime.GC()
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fatal("-memprofile: %v", werr)
		}
		if cerr := f.Close(); cerr != nil {
			fatal("-memprofile: %v", cerr)
		}
	}

	stats := out.Stats
	fmt.Println(stats.String())
	if stats.UpdatesSent > 0 {
		fmt.Printf("partitioner %s: %.1f%% of updates crossed partitions\n",
			stats.Partitioner, 100*stats.CrossFraction())
	}
	if stats.UpdatesCombined > 0 {
		fmt.Printf("combiner: %d of %d updates pre-aggregated (%.1f%%), %d-byte update stream\n",
			stats.UpdatesCombined, stats.UpdatesSent, 100*stats.CombinedFraction(), stats.UpdateBytes)
	}
	if stats.EdgesSkipped > 0 {
		fmt.Printf("selective: %d of %d edges skipped (%.1f%%), %d partitions + %d tiles elided\n",
			stats.EdgesSkipped, stats.EdgesStreamed+stats.EdgesSkipped,
			100*stats.SkippedFraction(), stats.PartitionsSkipped, stats.TilesSkipped)
	}
	if stats.CompressedRatio > 0 {
		fmt.Printf("compressed tiles: %d bytes read for %d logical (%.1f%% saved), %d tiles block-coded, layout at %.2f of raw\n",
			stats.BytesRead, stats.BytesReadLogical,
			100*(1-float64(stats.BytesRead)/float64(stats.BytesReadLogical)),
			stats.TilesCompressed, stats.CompressedRatio)
	}
	fmt.Println(inst.Summarize(out.Vertices))
	if inst.EvalEdges != nil {
		if edges, err := xstream.Materialize(src); err == nil {
			fmt.Println(inst.EvalEdges(out.Vertices, edges))
		}
	}
}

// openDevice makes the out-of-core engine's device, retry-wrapped unless
// retries is 0.
func openDevice(kind, dir string, retries int) xstream.Device {
	var dev xstream.Device
	switch kind {
	case "os":
		var err error
		if dev, err = xstream.NewOSDevice("scratch", dir); err != nil {
			fatal("device: %v", err)
		}
	case "sim-ssd":
		dev = xstream.NewSimDevice(xstream.SimSSD("ssd", 2, 1.0))
	case "sim-hdd":
		dev = xstream.NewSimDevice(xstream.SimHDD("hdd", 2, 1.0))
	default:
		fatal("unknown -device %q", kind)
	}
	if retries > 0 {
		// MaxAttempts counts the first try; -io-retries counts only the
		// re-issues, so N retries is N+1 attempts.
		dev = xstream.NewRetryDevice(dev, xstream.RetryOptions{MaxAttempts: retries + 1})
	}
	return dev
}

func loadInput(input string, rmat, ef int, seed int64, undirected bool) xstream.EdgeSource {
	switch {
	case rmat > 0:
		return xstream.RMAT(xstream.RMATConfig{Scale: rmat, EdgeFactor: ef, Seed: seed, Undirected: undirected})
	case input != "":
		dev, name, err := fileDevice(input)
		if err != nil {
			fatal("device: %v", err)
		}
		src, err := xstream.OpenEdgeFile(dev, name)
		if err != nil {
			fatal("open: %v", err)
		}
		return src
	default:
		fatal("need -input FILE or -rmat SCALE")
		return nil
	}
}

// fileDevice splits a path into an OS device over its directory plus the
// file name on it — shared by -input and the permutation flags.
func fileDevice(path string) (xstream.Device, string, error) {
	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	dev, err := xstream.NewOSDevice("file", dir)
	return dev, name, err
}

func parseBytes(s string) int64 {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, strings.TrimSuffix(s, "g")
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, strings.TrimSuffix(s, "k")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		fatal("bad byte size %q", s)
	}
	return v * mult
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "xstream: "+format+"\n", args...)
	os.Exit(1)
}
