// Package jobs is the serving layer's scheduler: it accepts algorithm jobs
// against registered datasets (internal/dataset), queues them, and executes
// them as shared passes (RunMany) so co-scheduled jobs on the same dataset
// pay for one edge stream instead of one each — X-Stream's cost model
// applied to a multi-tenant server.
//
// Scheduling policy, in order:
//
//   - Result cache: a submission whose (dataset version, engine,
//     algorithm, canonical params) matches a cached finished job
//     completes at Submit — zero edges streamed — with the cached payload
//     and a zero-work stats template. See cache.go.
//   - Tenant quotas: each tenant (Request.Tenant; empty is the shared
//     default tenant) is bounded by a Quota — submissions beyond
//     MaxQueued are rejected with an ErrOverloaded-wrapped error (the
//     HTTP layer's 503), and a tenant at MaxRunning stops being admitted
//     until its passes finish.
//   - Admission control: a job's memory footprint (core.Job.MemoryEstimate
//     over the dataset's sizes, with each scatter kernel's dense combining
//     accumulator: one kernel per engine thread in memory, one out of
//     core) is checked at submit — jobs above the whole budget are
//     rejected — and the combined footprint of running jobs never exceeds
//     Config.MemoryBudget; jobs wait in the queue until memory frees up.
//   - Priority lanes: the seed of the next batch is the
//     highest-priority admissible queued job (Request.Priority, FIFO
//     within a lane). Lanes order draining, they do not preempt: a
//     high-priority job that does not fit the free budget does not block
//     a fitting lower-priority one.
//   - Batching: the worker runs the seed plus every other queued job on
//     the same (dataset, engine) — whatever its lane — that still fits
//     the remaining budget and its tenant's quota, up to Config.MaxBatch,
//     all in one RunMany pass. The pass pins its dataset
//     (dataset.Acquire/Release) so the registry's memory-cap eviction
//     never closes engine state under a running batch.
//   - Cancelation: a queued job cancels immediately; a running job is
//     marked and its result discarded when its pass finishes — and when
//     every job of a pass is canceled, the pass's context is canceled so
//     the engines stop between iterations and chunks.
//   - Retention: finished jobs (and their result payloads) are kept until
//     Config.Retention newer ones finish, then pruned. Pruning is
//     read-agnostic: a result that was never fetched is dropped all the
//     same, and later fetches get ErrNotFound — clients are expected to
//     collect results within the retention window (the result cache may
//     still answer a re-submission of the same request).
//
// All methods are safe for concurrent use.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Engine selects which execution engine serves a job.
type Engine string

const (
	// EngineMem is the in-memory streaming engine (the default).
	EngineMem Engine = "mem"
	// EngineDisk is the out-of-core streaming engine; the dataset must
	// have a device.
	EngineDisk Engine = "disk"
)

// Request describes one job submission.
type Request struct {
	Dataset string            `json:"dataset"`
	Algo    string            `json:"algo"`
	Engine  Engine            `json:"engine,omitempty"`
	Params  algorithms.Params `json:"params,omitempty"`
	// Tenant attributes the job for quota accounting and per-tenant
	// metrics; empty is the shared default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority selects the scheduling lane: higher lanes drain first,
	// FIFO within a lane. 0 is the default lane; negative is background.
	Priority int `json:"priority,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: queued on submission, running once a batch claims
// it, then exactly one of done, failed or canceled.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Info is a job's JSON-encodable state.
type Info struct {
	ID        string            `json:"id"`
	Dataset   string            `json:"dataset"`
	Algo      string            `json:"algo"`
	Engine    Engine            `json:"engine"`
	Params    algorithms.Params `json:"params"`
	Status    Status            `json:"status"`
	Error     string            `json:"error,omitempty"`
	Submitted time.Time         `json:"submitted"`
	Started   *time.Time        `json:"started,omitempty"`
	Finished  *time.Time        `json:"finished,omitempty"`
	// BatchSize is how many jobs shared the job's pass (0 until running).
	BatchSize int `json:"batch_size,omitempty"`
	// Summary is the algorithm's one-line result (done jobs only).
	Summary string `json:"summary,omitempty"`
	// MemoryEstimate is the admission-control footprint in bytes.
	MemoryEstimate int64 `json:"memory_estimate"`
	// Tenant and Priority echo the request's quota/lane fields.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Cached reports that the job was answered from the result cache —
	// it was done at submission, with zero edges streamed.
	Cached bool `json:"cached,omitempty"`
	// Attempts counts how many batches have claimed the job (1 for a job
	// that ran once; more when a transient or corruption failure had the
	// scheduler requeue it under Config.MaxAttempts).
	Attempts int `json:"attempts,omitempty"`
	// QueueWaitSeconds is how long the job waited between submission and
	// its (last) batch claiming it. Zero while queued and for cached
	// answers, which never queue.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// RunSeconds is the wall time between the job's batch starting and the
	// job finishing (terminal jobs that ran; zero for cached answers).
	RunSeconds float64 `json:"run_seconds,omitempty"`
}

// Metrics are the scheduler's cumulative counters, served by GET /metrics.
type Metrics struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	Batches     int64 `json:"batches"`
	BatchedJobs int64 `json:"batched_jobs"`
	// EdgesStreamed and EdgesShared aggregate pass-level stats: streamed
	// counts each edge record once per pass, shared counts the reads
	// batching avoided versus independent runs.
	EdgesStreamed int64 `json:"edges_streamed"`
	EdgesShared   int64 `json:"edges_shared"`
	BytesRead     int64 `json:"bytes_read"`
	MemoryInUse   int64 `json:"memory_in_use"`
	QueueDepth    int   `json:"queue_depth"`
	Running       int   `json:"running"`
	// QuotaRejected counts submissions refused because the tenant's
	// MaxQueued quota was full (the HTTP layer's 503s).
	QuotaRejected int64 `json:"quota_rejected"`
	// RetriedJobs counts jobs requeued after their pass failed on a
	// transient I/O error or detected corruption (Config.MaxAttempts).
	RetriedJobs int64 `json:"retried_jobs"`
	// CorruptedPasses counts passes that failed with a detected on-disk
	// corruption; each one invalidated its dataset's artifacts for a
	// rebuild. A nonzero count with zero failed jobs means every
	// corruption healed transparently.
	CorruptedPasses int64 `json:"corrupted_passes"`
	// IORetries sums pass-level transient I/O retries absorbed by the
	// storage retry layer during successful passes.
	IORetries int64 `json:"io_retries"`
	// Result-cache counters: hits answered with zero edges streamed,
	// misses that went on to compute (cacheable submissions only), the
	// bytes and entries currently cached, and entries evicted by the
	// cache's byte cap.
	CacheHits      int64 `json:"result_cache_hits"`
	CacheMisses    int64 `json:"result_cache_misses"`
	CacheBytes     int64 `json:"result_cache_bytes"`
	CacheEntries   int   `json:"result_cache_entries"`
	CacheEvictions int64 `json:"result_cache_evictions"`
	// Tenants snapshots per-tenant queue/running depth (omitted when no
	// tenant has active jobs).
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
	// Datasets mirrors the dataset registry's residency counters
	// (memory cap, resident bytes, evictions).
	Datasets dataset.Metrics `json:"datasets"`
}

// TenantMetrics is one tenant's live load in Metrics.Tenants.
type TenantMetrics struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// Quota bounds one tenant's concurrent load. Zero fields are unlimited.
type Quota struct {
	// MaxRunning caps the tenant's jobs admitted into running batches.
	MaxRunning int `json:"max_running,omitempty"`
	// MaxQueued caps the tenant's waiting jobs; submissions beyond it
	// are rejected with an ErrOverloaded-wrapped error.
	MaxQueued int `json:"max_queued,omitempty"`
}

// Config tunes the scheduler. The zero value is usable.
type Config struct {
	// MemoryBudget bounds the combined MemoryEstimate of running jobs.
	// 0 means 1 GiB.
	MemoryBudget int64
	// MaxBatch caps jobs per shared pass. 0 means 16.
	MaxBatch int
	// Workers is the number of concurrent batch runners (batches of
	// different datasets proceed in parallel). 0 means 2.
	Workers int
	// Retention is how many finished jobs are kept before the oldest are
	// pruned. 0 means 256.
	Retention int
	// ResultCacheBytes caps the result cache: identical submissions
	// (dataset version, engine, algorithm, canonical params) are
	// answered from cache with zero edges streamed. 0 means 256 MiB;
	// negative disables caching.
	ResultCacheBytes int64
	// MaxAttempts is how many times a job may enter a batch before a
	// transient or corruption failure becomes terminal. Only failures
	// that storage.Classify reports transient or corrupted are retried
	// (a corrupted pass also invalidates the dataset's artifacts so the
	// retry rebuilds them); permanent errors, validation failures and
	// cancellations never retry. 0 means 2 (one retry); negative means 1
	// (no retries).
	MaxAttempts int
	// DefaultQuota applies to every tenant without a TenantQuotas entry,
	// including the empty default tenant. The zero Quota is unlimited.
	DefaultQuota Quota
	// TenantQuotas overrides DefaultQuota per tenant name.
	TenantQuotas map[string]Quota
	// Logger receives structured job-lifecycle logs (submit, batch start,
	// terminal transitions) with job, tenant, dataset@version and attempt
	// attributes. nil means slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 1 << 30
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Retention <= 0 {
		c.Retention = 256
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 256 << 20
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 2
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 1
	}
	return c
}

// ErrNotFound reports an unknown (or already pruned) job ID.
var ErrNotFound = errors.New("jobs: job not found")

// ErrOverloaded marks transient submit rejections — a tenant's MaxQueued
// quota is full, or the scheduler is shutting down. Clients should retry
// later; the HTTP layer maps it to 503 with a Retry-After header, keeping
// it distinct from the 400s of permanent validation failures.
var ErrOverloaded = errors.New("jobs: overloaded, retry later")

// job is the scheduler's internal record.
type job struct {
	id   string
	req  Request
	inst *algorithms.Instance
	ds   *dataset.Dataset
	est  int64

	status    Status
	err       error
	summary   string
	result    any
	stats     *core.Stats
	attempts  int
	batchSize int
	submitted time.Time
	started   time.Time
	finished  time.Time
	canceled  bool
	cached    bool
	cacheKey  string
	batchRef  *batchState
}

// batchState is one shared pass in flight.
type batchState struct {
	ctx    context.Context
	cancel context.CancelFunc
	jobs   []*job
}

// Scheduler queues, batches and executes jobs over a dataset registry.
type Scheduler struct {
	reg *dataset.Registry
	cfg Config
	log *slog.Logger

	// Serving-latency histograms, exposed by the Prometheus endpoint
	// (WriteProm): how long jobs queue, how long passes and iterations
	// run, and how many jobs share a pass.
	queueWaitHist *obs.Histogram
	runHist       *obs.Histogram
	iterHist      *obs.Histogram
	batchHist     *obs.Histogram

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*job
	jobs    map[string]*job
	done    []string
	memUse  int64
	running int
	paused  bool
	closed  bool
	metrics Metrics
	cache   *resultCache
	tenants map[string]*tenantState
	nextID  int
	wg      sync.WaitGroup
}

// tenantState is one tenant's live quota accounting.
type tenantState struct {
	queued  int
	running int
}

// New starts a scheduler over reg with Config.Workers batch runners.
func New(reg *dataset.Registry, cfg Config) *Scheduler {
	s := &Scheduler{
		reg: reg, cfg: cfg.withDefaults(),
		jobs: map[string]*job{}, tenants: map[string]*tenantState{},
		queueWaitHist: obs.NewHistogram(obs.DurationBuckets),
		runHist:       obs.NewHistogram(obs.DurationBuckets),
		iterHist:      obs.NewHistogram(obs.DurationBuckets),
		batchHist:     obs.NewHistogram(obs.SizeBuckets),
	}
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log = slog.Default()
	}
	if s.cfg.ResultCacheBytes > 0 {
		s.cache = newResultCache(s.cfg.ResultCacheBytes)
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the dataset registry the scheduler serves.
func (s *Scheduler) Registry() *dataset.Registry { return s.reg }

// Submit validates and enqueues a job, returning its ID. Validation is
// synchronous: unknown datasets/algorithms, bad parameters, engine
// mismatches and over-budget jobs are rejected here with an error rather
// than producing a failed job.
func (s *Scheduler) Submit(req Request) (string, error) {
	if req.Engine == "" {
		req.Engine = EngineMem
	}
	ds, ok := s.reg.Get(req.Dataset)
	if !ok {
		return "", fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	spec, ok := algorithms.ByName(req.Algo)
	if !ok {
		return "", fmt.Errorf("unknown algorithm %q", req.Algo)
	}
	if spec.Symmetrize && !ds.Undirected() {
		return "", fmt.Errorf("algorithm %s needs an undirected dataset (register the graph with both edge directions)", req.Algo)
	}
	switch req.Engine {
	case EngineMem:
	case EngineDisk:
		if !ds.HasDevice() {
			return "", fmt.Errorf("dataset %q has no device for the out-of-core engine", req.Dataset)
		}
	default:
		return "", fmt.Errorf("unknown engine %q", req.Engine)
	}
	inst, err := spec.New(req.Params)
	if err != nil {
		return "", fmt.Errorf("algorithm %s: %w", req.Algo, err)
	}
	est := memoryEstimate(inst.Job, ds, req.Engine)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", fmt.Errorf("scheduler is closed: %w", ErrOverloaded)
	}
	if est > s.cfg.MemoryBudget {
		return "", fmt.Errorf("job needs ~%d bytes of memory, above the scheduler budget of %d", est, s.cfg.MemoryBudget)
	}

	// Result cache: an identical finished job answers this one at submit,
	// with zero edges streamed — no queue, no quota charge.
	var key string
	if s.cache != nil {
		if k, ok := cacheKey(ds, req); ok {
			key = k
			if e, hit := s.cache.get(key); hit {
				s.nextID++
				now := time.Now()
				st := e.stats
				j := &job{
					id: fmt.Sprintf("j%06d", s.nextID), req: req, ds: ds, est: est,
					status: StatusDone, submitted: now, finished: now,
					summary: e.summary, result: e.payload, stats: &st, cached: true,
				}
				s.jobs[j.id] = j
				s.done = append(s.done, j.id)
				s.metrics.Submitted++
				s.metrics.Completed++
				s.metrics.CacheHits++
				s.pruneLocked()
				s.cond.Broadcast()
				s.log.Info("job served from cache", "job", j.id, "tenant", req.Tenant,
					"dataset", dsRef(ds), "algo", req.Algo, "engine", string(req.Engine))
				return j.id, nil
			}
			s.metrics.CacheMisses++
		}
	}

	// Tenant quota: reject beyond MaxQueued so a single tenant cannot
	// occupy the whole queue. Transient by design — ErrOverloaded.
	q := s.quotaFor(req.Tenant)
	ts := s.tenant(req.Tenant)
	if q.MaxQueued > 0 && ts.queued >= q.MaxQueued {
		s.metrics.QuotaRejected++
		return "", fmt.Errorf("tenant %q has %d jobs queued (quota %d): %w",
			req.Tenant, ts.queued, q.MaxQueued, ErrOverloaded)
	}

	s.nextID++
	j := &job{
		id: fmt.Sprintf("j%06d", s.nextID), req: req, inst: inst, ds: ds,
		est: est, status: StatusQueued, submitted: time.Now(), cacheKey: key,
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	ts.queued++
	s.metrics.Submitted++
	s.cond.Broadcast()
	s.log.Info("job queued", "job", j.id, "tenant", req.Tenant,
		"dataset", dsRef(ds), "algo", req.Algo, "engine", string(req.Engine),
		"priority", req.Priority)
	return j.id, nil
}

// memoryEstimate is job's admission footprint on ds under engine: the
// in-memory engine scatters with one kernel per thread into update windows
// sized by its partition count, the out-of-core engine with one kernel, its
// windows charged at the worst case.
func memoryEstimate(job *core.Job, ds *dataset.Dataset, engine Engine) int64 {
	kernels, k := 1, 0
	if engine == EngineMem {
		kernels, k = ds.Threads(), ds.MemPartitions()
	}
	return job.MemoryEstimate(ds.NumVertices(), ds.NumEdges(), kernels, k)
}

// dsRef renders a dataset@version log attribute, so log lines disambiguate
// re-registered datasets the way the result cache does.
func dsRef(ds *dataset.Dataset) string {
	return fmt.Sprintf("%s@%d", ds.Name(), ds.Version())
}

// quotaFor resolves a tenant's effective quota.
func (s *Scheduler) quotaFor(tenant string) Quota {
	if q, ok := s.cfg.TenantQuotas[tenant]; ok {
		return q
	}
	return s.cfg.DefaultQuota
}

// tenant returns (creating if needed) a tenant's accounting record.
// Caller holds s.mu.
func (s *Scheduler) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{}
		s.tenants[name] = ts
	}
	return ts
}

// worker runs batches until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		b := s.nextBatch()
		if b == nil {
			return
		}
		s.runBatch(b)
	}
}

// nextBatch blocks until a batch is admissible (or the scheduler closes).
func (s *Scheduler) nextBatch() *batchState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if !s.paused {
			if b := s.admitLocked(); b != nil {
				return b
			}
		}
		s.cond.Wait()
	}
}

// admitLocked pops the next batch under the memory budget and the tenant
// quotas. The seed is the highest-priority queued job (FIFO within a
// lane) that fits the free budget and whose tenant is under MaxRunning;
// the batch then takes every other queued job — older or younger,
// whatever its lane — on the same (dataset, engine) that still fits the
// remaining budget and its own tenant's quota, up to MaxBatch. Riding
// along never delays the seed: the mates share its pass.
func (s *Scheduler) admitLocked() *batchState {
	avail := s.cfg.MemoryBudget - s.memUse
	// pending counts jobs claimed into this batch per tenant, on top of
	// already-running ones, so one batch cannot blow through MaxRunning.
	pending := map[string]int{}
	admissible := func(j *job, budget int64) bool {
		if j.est > budget {
			return false
		}
		q := s.quotaFor(j.req.Tenant)
		if q.MaxRunning > 0 {
			ts := s.tenant(j.req.Tenant)
			if ts.running+pending[j.req.Tenant] >= q.MaxRunning {
				return false
			}
		}
		return true
	}
	seed := -1
	for i, j := range s.queue {
		if !admissible(j, avail) {
			continue
		}
		if seed < 0 || j.req.Priority > s.queue[seed].req.Priority {
			seed = i
		}
	}
	if seed < 0 {
		return nil
	}
	sj := s.queue[seed]
	b := &batchState{jobs: []*job{sj}}
	sum := sj.est
	pending[sj.req.Tenant]++
	var rest []*job
	for i, j := range s.queue {
		if i == seed {
			continue
		}
		if len(b.jobs) < s.cfg.MaxBatch &&
			j.req.Dataset == sj.req.Dataset && j.req.Engine == sj.req.Engine &&
			admissible(j, avail-sum) {
			sum += j.est
			pending[j.req.Tenant]++
			b.jobs = append(b.jobs, j)
		} else {
			rest = append(rest, j)
		}
	}
	s.queue = rest
	s.memUse += sum
	s.running += len(b.jobs)
	b.ctx, b.cancel = context.WithCancel(context.Background())
	now := time.Now()
	for _, j := range b.jobs {
		j.status = StatusRunning
		j.started = now
		j.attempts++
		j.batchSize = len(b.jobs)
		j.batchRef = b
		ts := s.tenant(j.req.Tenant)
		ts.queued--
		ts.running++
		s.queueWaitHist.Observe(now.Sub(j.submitted).Seconds())
	}
	s.batchHist.Observe(float64(len(b.jobs)))
	s.metrics.Batches++
	s.metrics.BatchedJobs += int64(len(b.jobs))
	s.log.Info("batch started", "dataset", dsRef(sj.ds), "engine", string(sj.req.Engine),
		"jobs", len(b.jobs), "queue_wait_seconds", now.Sub(sj.submitted).Seconds())
	return b
}

// runBatch executes one shared pass and records every job's outcome. The
// batch's dataset is pinned for the duration so the registry's memory-cap
// eviction never closes engine state under the pass.
func (s *Scheduler) runBatch(b *batchState) {
	defer b.cancel()
	set := make(core.ProgramSet, len(b.jobs))
	for i, j := range b.jobs {
		set[i] = j.inst.Job
	}
	var results []core.JobResult
	var pass core.Stats
	j0 := b.jobs[0]
	prepared := j0.ds.Mem
	if j0.req.Engine == EngineDisk {
		prepared = j0.ds.Disk
	}
	j0.ds.Acquire()
	pp, err := prepared()
	if err == nil {
		results, pass, err = pp.RunMany(b.ctx, set)
	}
	j0.ds.Release()

	// Fault tolerance: a pass that died on a transient device error is
	// retried wholesale, and one that detected on-disk corruption first
	// drops the dataset's artifacts (rebuilt lazily by the retry's
	// prepare) — in both cases the jobs go back to the queue until their
	// attempt budget runs out. Permanent errors and cancellations fail
	// fast. The invalidation runs before taking s.mu because it closes
	// partition files.
	retriable := false
	if err != nil {
		switch storage.Classify(err) {
		case storage.ClassTransient:
			retriable = true
		case storage.ClassCorrupted:
			retriable = true
			j0.ds.InvalidateCorrupted()
		}
	}

	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && storage.Classify(err) == storage.ClassCorrupted {
		s.metrics.CorruptedPasses++
	}
	var sum int64
	for i, j := range b.jobs {
		sum += j.est
		j.batchRef = nil
		s.tenant(j.req.Tenant).running--
		if err != nil && retriable && !j.canceled && !s.closed && j.attempts < s.cfg.MaxAttempts {
			j.status = StatusQueued
			j.started = time.Time{}
			j.batchSize = 0
			s.queue = append(s.queue, j)
			s.tenant(j.req.Tenant).queued++
			s.metrics.RetriedJobs++
			s.log.Warn("job requeued after retriable failure", "job", j.id,
				"tenant", j.req.Tenant, "dataset", dsRef(j.ds),
				"attempt", j.attempts, "max_attempts", s.cfg.MaxAttempts, "err", err)
			continue
		}
		j.finished = now
		switch {
		case j.canceled:
			j.status = StatusCanceled
			s.metrics.Canceled++
			s.log.Info("job canceled", "job", j.id, "tenant", j.req.Tenant,
				"dataset", dsRef(j.ds), "attempt", j.attempts)
		case err != nil:
			j.status = StatusFailed
			j.err = err
			s.metrics.Failed++
			s.log.Warn("job failed", "job", j.id, "tenant", j.req.Tenant,
				"dataset", dsRef(j.ds), "attempt", j.attempts, "err", err)
		default:
			res := results[i]
			j.status = StatusDone
			j.summary = j.inst.Summarize(res.Vertices)
			j.result = j.inst.Result(res.Vertices)
			st := res.Stats
			j.stats = &st
			s.metrics.Completed++
			if s.cache != nil && j.cacheKey != "" {
				s.cache.put(&cacheEntry{
					key: j.cacheKey, payload: j.result, summary: j.summary,
					stats: cacheStats(st),
					bytes: approxBytes(j.result) + int64(len(j.cacheKey)+len(j.summary)),
				})
			}
			s.log.Info("job done", "job", j.id, "tenant", j.req.Tenant,
				"dataset", dsRef(j.ds), "attempt", j.attempts,
				"run_seconds", now.Sub(j.started).Seconds())
		}
		s.done = append(s.done, j.id)
	}
	if err == nil {
		s.metrics.EdgesStreamed += pass.EdgesStreamed
		s.metrics.EdgesShared += pass.EdgesShared
		s.metrics.BytesRead += pass.BytesRead
		s.metrics.IORetries += pass.IORetries
		s.runHist.Observe(pass.TotalTime.Seconds())
		for i := range pass.Iters {
			s.iterHist.Observe(pass.Iters[i].Time.Seconds())
		}
	}
	s.memUse -= sum
	s.running -= len(b.jobs)
	s.pruneLocked()
	s.cond.Broadcast()
}

// pruneLocked drops the oldest finished jobs beyond the retention window.
func (s *Scheduler) pruneLocked() {
	for len(s.done) > s.cfg.Retention {
		id := s.done[0]
		s.done = s.done[1:]
		delete(s.jobs, id)
	}
}

// Cancel cancels a job: a queued job immediately, a running job by marking
// it (its result is discarded when its pass finishes; when every job of
// the pass is canceled, the pass itself is stopped). Canceling a finished
// job is an error.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.status {
	case StatusQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i:i], s.queue[i+1:]...)
				break
			}
		}
		j.status = StatusCanceled
		j.canceled = true
		j.finished = time.Now()
		s.tenant(j.req.Tenant).queued--
		s.metrics.Canceled++
		s.done = append(s.done, j.id)
		s.pruneLocked()
		s.cond.Broadcast()
		return nil
	case StatusRunning:
		if j.canceled {
			return nil
		}
		j.canceled = true
		if b := j.batchRef; b != nil {
			all := true
			for _, peer := range b.jobs {
				if !peer.canceled {
					all = false
					break
				}
			}
			if all {
				b.cancel()
			}
		}
		return nil
	default:
		return fmt.Errorf("job %s is already %s", id, j.status)
	}
}

// infoLocked renders a job's Info.
func (s *Scheduler) infoLocked(j *job) Info {
	info := Info{
		ID: j.id, Dataset: j.req.Dataset, Algo: j.req.Algo, Engine: j.req.Engine,
		Params: j.req.Params, Status: j.status, Submitted: j.submitted,
		BatchSize: j.batchSize, Summary: j.summary, MemoryEstimate: j.est,
		Tenant: j.req.Tenant, Priority: j.req.Priority, Cached: j.cached,
		Attempts: j.attempts,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
		info.QueueWaitSeconds = j.started.Sub(j.submitted).Seconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
		if !j.started.IsZero() {
			info.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	return info
}

// Get returns a job's Info.
func (s *Scheduler) Get(id string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Info{}, false
	}
	return s.infoLocked(j), true
}

// List returns every retained job's Info in submission order.
func (s *Scheduler) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	// IDs are zero-padded sequence numbers: lexicographic = submission.
	sort.Strings(ids)
	out := make([]Info, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.infoLocked(s.jobs[id]))
	}
	return out
}

// Result returns a done job's payload, summary and stats. ErrNotFound for
// unknown jobs; other errors describe non-done states.
func (s *Scheduler) Result(id string) (payload any, summary string, stats *core.Stats, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", nil, ErrNotFound
	}
	switch j.status {
	case StatusDone:
		return j.result, j.summary, j.stats, nil
	case StatusFailed:
		return nil, "", nil, fmt.Errorf("job %s failed: %w", id, j.err)
	default:
		return nil, "", nil, fmt.Errorf("job %s is %s", id, j.status)
	}
}

// Metrics snapshots the scheduler counters, the result-cache state and
// the dataset registry's residency counters.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	m := s.metrics
	m.MemoryInUse = s.memUse
	m.QueueDepth = len(s.queue)
	m.Running = s.running
	if s.cache != nil {
		m.CacheBytes = s.cache.bytes
		m.CacheEntries = len(s.cache.entries)
		m.CacheEvictions = s.cache.evictions
	}
	for name, ts := range s.tenants {
		if ts.queued == 0 && ts.running == 0 {
			continue
		}
		if m.Tenants == nil {
			m.Tenants = map[string]TenantMetrics{}
		}
		m.Tenants[name] = TenantMetrics{Queued: ts.queued, Running: ts.running}
	}
	s.mu.Unlock()
	m.Datasets = s.reg.Metrics()
	return m
}

// Pause stops dispatching new batches (running ones finish). Submissions
// queue up — and batch together — until Resume.
func (s *Scheduler) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume restarts batch dispatch.
func (s *Scheduler) Resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Wait blocks until the job reaches a terminal status or ctx expires.
// Every terminal transition broadcasts on the scheduler's condition
// variable, so waiters wake exactly when something finished.
func (s *Scheduler) Wait(ctx context.Context, id string) (Info, error) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		j, ok := s.jobs[id]
		if !ok {
			return Info{}, ErrNotFound
		}
		if j.status.Terminal() {
			return s.infoLocked(j), nil
		}
		if err := ctx.Err(); err != nil {
			return s.infoLocked(j), err
		}
		s.cond.Wait()
	}
}

// Close stops the workers, canceling any running passes, and waits for
// them to exit. Queued jobs are marked canceled.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	now := time.Now()
	for _, j := range s.queue {
		j.status = StatusCanceled
		j.canceled = true
		j.finished = now
		s.tenant(j.req.Tenant).queued--
		s.metrics.Canceled++
		s.done = append(s.done, j.id)
	}
	s.queue = nil
	seen := map[*batchState]bool{}
	for _, j := range s.jobs {
		if b := j.batchRef; b != nil {
			j.canceled = true
			if !seen[b] {
				seen[b] = true
				b.cancel()
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
