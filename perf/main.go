// Command perf is the repository's wall-clock benchmark: four workloads
// that stress different layers of the X-Stream reproduction, measured end
// to end from outside and, in a separate traced run, layer by layer. See
// README.md in this directory for the workloads, the metric glossary and
// how the numbers are kept steady.
//
//	perf -workload mem_pagerank -seed 1 -seconds 20 -trace 0   end to end
//	perf -workload mem_pagerank -seed 1 -seconds 20 -trace 1   per layer
//	perf -compare a.jsonl b.jsonl                              two sets of runs
//	perf -spread a.jsonl                                       one set's repeatability
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workloads lists the benchmark's workloads in report order; README.md
// and BENCHMARK.json say why each exists.
var workloads = []string{"mem_pagerank", "disk_pagerank", "disk_bfs_selective", "serve_mix"}

func main() {
	var o runOpts
	var size, reportPath string
	var trace int
	var compare bool
	var spreadPath string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloads))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&size, "size", "full", "input sizes: full (what BENCHMARK.json measures) or smoke")
	flag.StringVar(&o.outDir, "out", filepath.Join("perf", "out"), "directory for traces and the default report")
	flag.StringVar(&reportPath, "report", "", "append the run's report as one JSON line to this file (default <out>/runs.jsonl)")
	flag.BoolVar(&compare, "compare", false, "compare two report files: perf -compare a.jsonl b.jsonl")
	flag.StringVar(&spreadPath, "spread", "", "print the run-to-run spread of every end-to-end metric in this report file")
	flag.Parse()

	if spreadPath != "" {
		wide, err := spreadFile(os.Stdout, spreadPath)
		if err != nil {
			fatal(err)
		}
		if wide {
			os.Exit(1)
		}
		return
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	sz, err := sizesFor(size)
	if err != nil {
		fatal(err)
	}
	o.sz = sz
	// Pinned so a larger host reports numbers comparable with the
	// two-core sandbox the bounds were chosen on.
	runtime.GOMAXPROCS(threads)
	rep, err := run(o, trace != 0)
	if err != nil {
		fatal(err)
	}
	if reportPath == "" {
		reportPath = filepath.Join(o.outDir, "runs.jsonl")
	}
	if err := os.MkdirAll(filepath.Dir(reportPath), 0o755); err != nil {
		fatal(err)
	}
	if err := appendReport(reportPath, rep); err != nil {
		fatal(err)
	}
	last, err := json.Marshal(rep.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}

// run executes one workload once, prints every metric by name with its
// unit and returns the report.
func run(o runOpts, traced bool) (report, error) {
	var m *measured
	var attempted, failed int
	var err error
	w, batch := batchWorkloads[o.workload]
	switch {
	case batch && traced:
		m, attempted, failed, err = traceBatch(w, o)
	case batch:
		m, attempted, failed, err = runBatch(w, o)
	case o.workload == "serve_mix" && traced:
		m, attempted, failed, err = traceServe(o)
	case o.workload == "serve_mix":
		m, attempted, failed, err = runServe(o)
	default:
		err = fmt.Errorf("unknown -workload %q, want one of %v", o.workload, workloads)
	}
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics, err := m.metricsFor(defs)
	if err != nil {
		return report{}, err
	}
	host := readHostFacts()
	fmt.Printf("# %s seed=%d size=%s trace=%v seconds=%g\n", o.workload, o.seed, o.sz.name, traced, o.seconds)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d threads=%d %s L1d=%s L2=%s L3=%s\n",
		host.NumCPU, host.GOMAXPROCS, host.Threads, host.GoVersion, host.L1d, host.L2, host.L3)
	keys := make([]string, 0, len(m.facts))
	for k := range m.facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, list := m.facts[k].([]float64); !list { // raw samples go to the report file only
			fmt.Printf("# %s=%v\n", k, m.facts[k])
		}
	}
	printMetrics(os.Stdout, defs, metrics, m.samples)
	fmt.Printf("# attempted=%d failed=%d\n", attempted, failed)
	return report{
		Workload: o.workload, Seed: o.seed, Size: o.sz.name, Trace: traced, Seconds: o.seconds,
		Samples: m.samples, Facts: m.facts, Host: host,
		result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics},
	}, nil
}
