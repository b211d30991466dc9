// Command xserve is the graph-analytics serving layer: an HTTP API over
// the dataset registry (internal/dataset) and job scheduler
// (internal/jobs). Datasets are ingested once at startup — parse/generate,
// optional 2PS clustering with a persisted permutation, and (with a
// device) the out-of-core pre-processing shuffle — and then served to any
// number of jobs, with same-dataset jobs batched into shared passes so N
// concurrent queries pay for one edge stream instead of N.
//
// Usage:
//
//	xserve -addr :8080 -dataset social=rmat:18:16:1 \
//	       -dataset roads=file:/data/usa.xsedge:undirected
//	xserve -dataset g=rmat:16 -partitioner 2ps -device os -dir /mnt/fast/xs
//
// Dataset specs are name=rmat:scale[:edgefactor[:seed]][:undirected] or
// name=file:path[:undirected]; mark a spec undirected when the edge list
// already stores both directions (required for hyperanf jobs).
//
// API (all JSON):
//
//	POST   /jobs             {"dataset":..,"algo":..,"engine":"mem"|"disk","params":{..},
//	                          "tenant":..,"priority":..}  (503 + Retry-After when over quota)
//	GET    /jobs             list
//	GET    /jobs/{id}        status
//	GET    /jobs/{id}/result result payload + stats (?cursor=&limit= pages vertex vectors)
//	GET    /jobs/{id}/trace  Chrome trace-event JSON of a done job's run (Perfetto-loadable)
//	DELETE /jobs/{id}        cancel
//	GET    /datasets         registered datasets
//	GET    /metrics          scheduler counters (batching, result cache, dataset residency)
//	GET    /metrics.prom     the same counters plus latency histograms, Prometheus text format
//	GET    /healthz          liveness probe
//	GET    /buildinfo        Go build metadata of the binary
//
// Identical repeated jobs are served from the scheduler's result cache
// (-result-cache) with zero edges streamed; -memory-cap bounds resident
// prepared-engine memory with LRU eviction; -tenant-quotas limits each
// tenant's queued and running jobs. Logs are structured (log/slog) on
// stderr; -log-format json switches them to JSON lines. -pprof-addr
// serves net/http/pprof on a separate listener, kept off the API port so
// profiling endpoints are never exposed to API clients by accident. On
// SIGINT/SIGTERM xserve stops accepting connections, drains in-flight
// requests (-drain-timeout), shuts the scheduler down, and closes the
// registry so device spill files are removed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // -pprof-addr listener; registers on DefaultServeMux only
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	xstream "repro"
	"repro/internal/dataset"
	"repro/internal/jobs"
)

// datasetSpecs collects repeated -dataset flags.
type datasetSpecs []string

func (d *datasetSpecs) String() string     { return strings.Join(*d, ",") }
func (d *datasetSpecs) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var specs datasetSpecs
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		partition = flag.String("partitioner", "range", "partitioning policy for all datasets: range|2ps")
		device    = flag.String("device", "none", "out-of-core device: none|os|sim-ssd|sim-hdd")
		dir       = flag.String("dir", os.TempDir(), "directory for -device os")
		threads   = flag.Int("threads", 0, "worker threads per engine (0 = GOMAXPROCS)")
		budget    = flag.String("budget", "1g", "scheduler memory budget for co-scheduled jobs (e.g. 4g)")
		maxBatch  = flag.Int("max-batch", 16, "max jobs per shared pass")
		workers   = flag.Int("workers", 2, "concurrent batch runners")
		retention = flag.Int("retention", 256, "finished jobs kept for result retrieval")
		memCap    = flag.String("memory-cap", "0", "resident prepared-engine memory cap with LRU eviction (e.g. 8g, 0 = unbounded)")
		resCache  = flag.String("result-cache", "256m", "result cache capacity (e.g. 64m, 0 = disabled)")
		quotas    = flag.String("tenant-quotas", "", `per-tenant job quotas: "R,Q[;name=R,Q;...]" (R max running, Q max queued, 0 = unlimited)`)
		drain     = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight HTTP requests on shutdown")
		compress  = flag.Bool("compress-tiles", false, "store out-of-core partition edge files as delta-varint compressed tiles (bit-identical results, fewer physical bytes read)")
		ioRetries = flag.Int("io-retries", 3, "retry transient device errors up to N times with jittered backoff (0 = fail fast)")
		attempts  = flag.Int("job-attempts", 2, "times a job may enter a batch before a transient or corruption failure becomes terminal (1 = no retry)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		logFormat = flag.String("log-format", "text", "structured log encoding on stderr: text|json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	)
	flag.Var(&specs, "dataset", "dataset spec name=rmat:scale[:ef[:seed]][:undirected] or name=file:path[:undirected] (repeatable)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fatal("%v", err)
	}
	slog.SetDefault(logger)

	if len(specs) == 0 {
		fatal("need at least one -dataset spec")
	}
	var dev xstream.Device
	switch *device {
	case "none":
	case "os":
		if dev, err = xstream.NewOSDevice("xserve", *dir); err != nil {
			fatal("device: %v", err)
		}
	case "sim-ssd":
		dev = xstream.NewSimDevice(xstream.SimSSD("ssd", 2, 0))
	case "sim-hdd":
		dev = xstream.NewSimDevice(xstream.SimHDD("hdd", 2, 0))
	default:
		fatal("unknown -device %q", *device)
	}
	if dev != nil && *ioRetries > 0 {
		// N retries is N+1 attempts: MaxAttempts counts the first try.
		dev = xstream.NewRetryDevice(dev, xstream.RetryOptions{MaxAttempts: *ioRetries + 1})
	}

	defaultQuota, tenantQuotas, err := parseQuotas(*quotas)
	if err != nil {
		fatal("-tenant-quotas: %v", err)
	}

	reg := dataset.NewRegistry()
	defer reg.Close()
	if capBytes := parseBytes(*memCap); capBytes > 0 {
		reg.SetMemoryCap(capBytes)
	}
	for _, spec := range specs {
		name, src, undirected, err := parseDataset(spec)
		if err != nil {
			fatal("-dataset %q: %v", spec, err)
		}
		_, err = reg.Add(name, src, dataset.Options{
			Partitioner:   *partition,
			Undirected:    undirected,
			Threads:       *threads,
			Device:        dev,
			CompressTiles: *compress,
		})
		if err != nil {
			fatal("%v", err)
		}
		slog.Info("dataset registered", "dataset", name,
			"vertices", src.NumVertices(), "edges", src.NumEdges())
	}

	cacheBytes := parseBytes(*resCache)
	if cacheBytes <= 0 {
		cacheBytes = -1 // Config: negative disables, zero means default.
	}
	maxAttempts := *attempts
	if maxAttempts <= 1 {
		maxAttempts = -1 // Config: negative means one attempt, no retry.
	}
	sched := jobs.New(reg, jobs.Config{
		MemoryBudget:     parseBytes(*budget),
		MaxBatch:         *maxBatch,
		Workers:          *workers,
		Retention:        *retention,
		ResultCacheBytes: cacheBytes,
		MaxAttempts:      maxAttempts,
		DefaultQuota:     defaultQuota,
		TenantQuotas:     tenantQuotas,
		Logger:           logger,
	})
	defer sched.Close()

	// The pprof listener is separate from the API listener on purpose:
	// profiling handlers stay reachable while the API drains, and an API
	// client can never hit them by path-guessing.
	if *pprofAddr != "" {
		go func() {
			slog.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				slog.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let
	// in-flight requests finish, close the scheduler (cancels queued
	// jobs, waits for running batches), and let the deferred registry
	// Close remove device spill files. ListenAndServe alone would take
	// the process down mid-batch and leak the spill directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: jobs.NewHandler(sched)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	slog.Info("listening", "addr", *addr)

	select {
	case err := <-errc:
		fatal("%v", err)
	case <-ctx.Done():
		stop()
		slog.Info("shutting down", "drain_timeout", drain.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			slog.Warn("drain incomplete", "err", err)
		}
	}
}

// newLogger builds the process logger from the -log-format and -log-level
// flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q", format)
	}
}

// parseQuotas parses the -tenant-quotas grammar: an optional leading
// "R,Q" default, then semicolon-separated "name=R,Q" overrides.
func parseQuotas(s string) (def jobs.Quota, perTenant map[string]jobs.Quota, err error) {
	parseRQ := func(v string) (jobs.Quota, error) {
		rs, qs, ok := strings.Cut(v, ",")
		if !ok {
			return jobs.Quota{}, fmt.Errorf("want R,Q in %q", v)
		}
		r, err1 := strconv.Atoi(strings.TrimSpace(rs))
		q, err2 := strconv.Atoi(strings.TrimSpace(qs))
		if err1 != nil || err2 != nil || r < 0 || q < 0 {
			return jobs.Quota{}, fmt.Errorf("want non-negative R,Q in %q", v)
		}
		return jobs.Quota{MaxRunning: r, MaxQueued: q}, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rq, named := strings.Cut(part, "=")
		if !named {
			if def, err = parseRQ(part); err != nil {
				return jobs.Quota{}, nil, err
			}
			continue
		}
		q, err := parseRQ(rq)
		if err != nil {
			return jobs.Quota{}, nil, err
		}
		if perTenant == nil {
			perTenant = map[string]jobs.Quota{}
		}
		perTenant[strings.TrimSpace(name)] = q
	}
	return def, perTenant, nil
}

// parseDataset parses one name=kind:args spec.
func parseDataset(spec string) (name string, src xstream.EdgeSource, undirected bool, err error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return "", nil, false, fmt.Errorf("want name=rmat:... or name=file:...")
	}
	parts := strings.Split(rest, ":")
	if parts[len(parts)-1] == "undirected" {
		undirected = true
		parts = parts[:len(parts)-1]
	}
	switch parts[0] {
	case "rmat":
		if len(parts) < 2 || len(parts) > 4 {
			return "", nil, false, fmt.Errorf("want rmat:scale[:ef[:seed]]")
		}
		scale, err := strconv.Atoi(parts[1])
		if err != nil {
			return "", nil, false, fmt.Errorf("bad scale %q", parts[1])
		}
		ef, seed := 16, int64(1)
		if len(parts) > 2 {
			if ef, err = strconv.Atoi(parts[2]); err != nil {
				return "", nil, false, fmt.Errorf("bad edge factor %q", parts[2])
			}
		}
		if len(parts) > 3 {
			if seed, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
				return "", nil, false, fmt.Errorf("bad seed %q", parts[3])
			}
		}
		src = xstream.RMAT(xstream.RMATConfig{Scale: scale, EdgeFactor: ef, Seed: seed, Undirected: undirected})
	case "file":
		if len(parts) != 2 {
			return "", nil, false, fmt.Errorf("want file:path")
		}
		fdir, fname := filepath.Split(parts[1])
		if fdir == "" {
			fdir = "."
		}
		fdev, err := xstream.NewOSDevice("input", fdir)
		if err != nil {
			return "", nil, false, err
		}
		if src, err = xstream.OpenEdgeFile(fdev, fname); err != nil {
			return "", nil, false, err
		}
	default:
		return "", nil, false, fmt.Errorf("unknown kind %q", parts[0])
	}
	return name, src, undirected, nil
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
	fmt.Fprintf(os.Stderr, "xserve: "+format+"\n", args...)
	os.Exit(1)
}
