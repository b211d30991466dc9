package core

// job.go is the shared-pass execution layer. X-Stream's cost model says the
// sequential edge stream is the dominant, fixed cost of a computation — so
// that cost should be paid once per *pass*, not once per *job*: N concurrent
// computations over the same dataset can share a single streamed scatter
// phase. A Job type-erases one Program[V, M] behind an interface the engines
// can drive without knowing V or M; a ProgramSet collects the co-scheduled
// jobs of one shared pass. Each job owns its entire update path — vertex
// state, update stream buffers, scatter-side combining, post-shuffle fold,
// gather, frontier — while the engine owns the one thing the jobs share:
// the edge stream. RunMany in internal/memengine and internal/diskengine
// feed every job's scatter from each streamed edge chunk exactly once per
// iteration; Stats.CoJobs and Stats.EdgesShared measure the amortization.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pod"
	"repro/internal/streambuf"
)

// ProgramSet is the ordered collection of jobs one shared pass co-schedules.
type ProgramSet []*Job

// Label names the set in stats tables: the algorithm name for a uniform
// set, a multi(n) marker otherwise.
func (s ProgramSet) Label() string {
	if len(s) == 0 {
		return ""
	}
	name := s[0].Name()
	for _, j := range s[1:] {
		if j.Name() != name {
			return fmt.Sprintf("multi(%d)", len(s))
		}
	}
	if len(s) > 1 {
		return fmt.Sprintf("%s x%d", name, len(s))
	}
	return name
}

// NewRuns checks every job of the set, spawns its executor and sets it up
// under the pass's shared setup. On failure the runs made so far are closed,
// so a pass that cannot start leaks no transport.
func (s ProgramSet) NewRuns(setup JobSetup) ([]JobRun, error) {
	runs := make([]JobRun, 0, len(s))
	for _, j := range s {
		if err := j.Check(); err != nil {
			CloseRuns(runs)
			return nil, fmt.Errorf("job %s: %w", j.Name(), err)
		}
		r := j.NewRun()
		runs = append(runs, r)
		if err := r.Setup(setup); err != nil {
			CloseRuns(runs)
			return nil, err
		}
	}
	return runs, nil
}

// CloseRuns releases every run's update transport. Engines defer it over a
// pass's runs so a failed or cancelled pass closes what a completed one
// closes in Finalize; closing twice is harmless.
func CloseRuns(runs []JobRun) {
	for _, r := range runs {
		r.Close()
	}
}

// EndAndGather shuffles, folds and gathers every live job's update stream
// — the per-job half of a shared-pass iteration, run by both engines after
// the shared scatter. Jobs are independent, so they proceed in parallel,
// one goroutine each; each job's own shuffle and fold parallelize
// internally, and its gather walks partitions on the share of the engine's
// threads the job has to itself (threads / len(live): all of them for a
// pass of one, a single goroutine once jobs outnumber threads). The
// returned duration is how long it took until every live stream was
// sealed — the shuffle part of the phase, for engines that report it apart
// from the gather.
func EndAndGather(live []JobRun, threads int) (shuffle time.Duration, err error) {
	start := time.Now()
	workers := max(threads/len(live), 1)
	if len(live) == 1 {
		if err := live[0].EndScatter(); err != nil {
			return 0, err
		}
		shuffle = time.Since(start)
		return shuffle, live[0].Gather(workers)
	}
	errs := make([]error, len(live))
	sealed := make([]time.Duration, len(live))
	var wg sync.WaitGroup
	for i, r := range live {
		wg.Add(1)
		go func(i int, r JobRun) {
			defer wg.Done()
			if errs[i] = r.EndScatter(); errs[i] != nil {
				return
			}
			sealed[i] = time.Since(start)
			errs[i] = r.Gather(workers)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		shuffle = max(shuffle, sealed[i])
	}
	return shuffle, nil
}

// FinishPass finalizes every run of a completed pass: it collects each
// job's result, stamps the pass's identity (engine, partitioner, sizes,
// co-job count) and total time since start onto the job's stats, folds the
// per-job work counters into the pass stats and derives EdgesShared — the
// edge reads the sharing avoided, the sum of per-job streams minus the
// pass's one.
func FinishPass(runs []JobRun, pass *Stats, start time.Time) ([]JobResult, error) {
	results := make([]JobResult, len(runs))
	for i, r := range runs {
		verts, js, err := r.Finalize()
		if err != nil {
			return nil, err
		}
		js.Engine, js.Partitioner = pass.Engine, pass.Partitioner
		js.Partitions, js.Threads, js.CoJobs = pass.Partitions, pass.Threads, pass.CoJobs
		js.TotalTime = time.Since(start)
		results[i] = JobResult{Vertices: verts, Stats: js}
		pass.UpdatesSent += js.UpdatesSent
		pass.WastedEdges += js.WastedEdges
		pass.CrossPartitionUpdates += js.CrossPartitionUpdates
		pass.UpdatesCombined += js.UpdatesCombined
		pass.UpdateBytes += js.UpdateBytes
		pass.RandomRefs += js.RandomRefs
		pass.TransportBatches += js.TransportBatches
		pass.TransportBytes += js.TransportBytes
		pass.TransportCross += js.TransportCross
		pass.EdgesShared += js.EdgesStreamed
	}
	pass.EdgesShared -= pass.EdgesStreamed
	if pass.EdgesShared < 0 {
		pass.EdgesShared = 0
	}
	return results, nil
}

// JobResult is one job's outcome from a shared pass: the final vertex
// states (a []V in input vertex order, type-erased) and the job's own
// execution profile.
type JobResult struct {
	Vertices any
	Stats    Stats
}

// Job is a type-erased handle over one Program[V, M], created with NewJob.
// It captures the program's concrete types in closures so engines can spawn
// typed executors (JobRun) without generic plumbing. A Job describes one
// computation; each NewRun executor is single-use, but distinct runs of the
// same Job must not execute concurrently — programs are stateful.
type Job struct {
	name        string
	vertexBytes int
	updateBytes int
	check       func() error
	newRun      func() JobRun
}

// NewJob wraps prog for shared-pass execution.
func NewJob[V, M any](prog Program[V, M]) *Job {
	return &Job{
		name:        prog.Name(),
		vertexBytes: pod.Size[V](),
		updateBytes: pod.Size[Update[M]](),
		check: func() error {
			if err := pod.Check[V](); err != nil {
				return fmt.Errorf("vertex state: %w", err)
			}
			if err := pod.Check[M](); err != nil {
				return fmt.Errorf("update value: %w", err)
			}
			return nil
		},
		newRun: func() JobRun { return &jobRun[V, M]{prog: prog} },
	}
}

// Name returns the wrapped program's name.
func (j *Job) Name() string { return j.name }

// VertexBytes returns the size of one vertex state record.
func (j *Job) VertexBytes() int { return j.vertexBytes }

// UpdateBytes returns the size of one update record.
func (j *Job) UpdateBytes() int { return j.updateBytes }

// Check validates the program's pod contracts (pointer-free fixed-size
// vertex and update types).
func (j *Job) Check() error { return j.check() }

// NewRun returns a fresh single-use executor for the job.
func (j *Job) NewRun() JobRun { return j.newRun() }

// MemoryEstimate returns the bytes one run of the job holds in memory on a
// graph of nv vertices and ne edge records: the vertex state array, the two
// update stream buffers (sized to the worst-case scatter output), and the
// frontier bitsets. The jobs scheduler's admission control co-schedules
// jobs only while the sum of their estimates fits the memory budget.
func (j *Job) MemoryEstimate(nv, ne int64) int64 {
	return nv*int64(j.vertexBytes) + 2*ne*int64(j.updateBytes) + nv/4
}

// JobSetup is the shared-pass context an engine hands every job's executor:
// the dataset-wide assignment and sizes plus the engine's buffer/shuffle
// policy. All jobs of one pass receive the same setup.
type JobSetup struct {
	// Assignment is the pass's vertex->partition plan (shared: the edge
	// stream was rewritten through its relabeling once, at prepare time).
	Assignment *Assignment
	// NumVertices and NumEdges describe the prepared graph.
	NumVertices int64
	NumEdges    int64
	// Threads bounds the job's internal parallelism (shuffle, fold).
	Threads int
	// Plan is the update shuffle plan matching the assignment's split.
	Plan streambuf.Plan
	// UpdateCap is the record capacity of each update stream buffer.
	UpdateCap int
	// PrivateBufRecs sizes the scatter-side private buffers in records;
	// when 0, PrivateBufBytes/sizeof(update) is used instead.
	PrivateBufRecs  int
	PrivateBufBytes int
	// NoCombine disables update combining even for Combiner programs.
	NoCombine bool
	// Selective enables per-job frontier scheduling for FrontierPrograms.
	Selective bool
	// Exchange, when non-nil, replaces each job's builtin shuffle transport
	// with a frame-level update exchange (see core.Exchange); the factory is
	// called once per job with the partition count.
	Exchange func(k int) Exchange
}

// JobRun drives one job through the iterations of a pass. The engine owns
// the edge stream and the iteration loop; everything update-side — where
// vertex state and updates live included — is behind this interface. There
// are two implementations: jobRun here, which holds both in memory, and the
// out-of-core engine's solo run, which may spill both to the device.
// Methods are called from the engine's coordinating goroutine except
// NewScatter sinks, which run one per partition task.
//
// A failure inside NewScatter or a sink's Edges — a refused batch, an I/O
// error loading a spilled vertex window — is latched on the run: the sinks
// turn into no-ops and EndScatter returns it.
type JobRun interface {
	// Name identifies the job in errors and stats.
	Name() string
	// Setup allocates and initializes vertex state under the shared
	// assignment (calling VertexMapper first, like the engines do).
	Setup(s JobSetup) error
	// Done reports the job converged in an earlier iteration; a done job
	// drops out of subsequent passes.
	Done() bool
	// StartIteration runs the program's per-iteration hook.
	StartIteration(iter int)
	// Direction returns the edge list orientation the job streams this
	// iteration (DirectedPrograms may ask for the transpose).
	Direction(iter int) Direction
	// BeginScatter resets the update stream and recomputes the frontier
	// schedule; call once per iteration before any NewScatter. The error
	// is the transport's, from releasing the previous iteration's stream.
	BeginScatter() error
	// Dense reports the job has no frontier and streams every partition.
	Dense() bool
	// NeedsPartition reports whether the job must see partition p's edges
	// this iteration (always true without a frontier).
	NeedsPartition(p int) bool
	// PartiallyActive reports whether partition p has active sources but
	// not all of them — the tile-granular scheduling case.
	PartiallyActive(p int) bool
	// NeedsTile reports whether an edge tile with the given source span
	// may matter to the job this iteration.
	NeedsTile(span SrcSpan) bool
	// NewScatter returns engine worker w's scatter sink (0 ≤ w < the
	// setup's Threads), readied for partition p whose edge chunk holds
	// chunkEdges records. The run owns one sink per worker for its whole
	// life, so a worker must Flush its sink — when the partition's edges
	// are exhausted — before asking for the next. Sinks are
	// single-goroutine.
	NewScatter(w, p int, chunkEdges int64) JobScatter
	// SkipPartition accounts a whole partition chunk the job's frontier
	// proved useless (the engine never handed it to a sink). Safe for
	// concurrent use from partition tasks.
	SkipPartition(chunkEdges int64)
	// SkipTiles accounts tiles the job's frontier proved useless. Safe
	// for concurrent use from partition tasks.
	SkipTiles(edges, tiles int64)
	// EndScatter shuffles and folds the iteration's update stream.
	EndScatter() error
	// Gather streams the shuffled updates into vertex state and advances
	// the frontier, walking partitions on up to workers goroutines
	// (partitions own disjoint vertex ranges, so the result does not
	// depend on the count). It returns the first transport error.
	Gather(workers int) error
	// EndIteration runs phase hooks and termination for the iteration. The
	// error is the run's own, from I/O behind the phase hook's vertex view.
	EndIteration(iter int) error
	// Finalize returns the final vertex states ([]V, type-erased) in
	// original input order, plus the job's accumulated stats, and closes
	// the run.
	Finalize() (any, Stats, error)
	// Close releases the run's update transport. Idempotent, and safe on
	// a run whose Setup failed or never ran.
	Close()
}

// Snapshotter is what an engine's checkpoint path needs of a run to capture
// and restore its cross-iteration state. Everything a resume needs between
// iterations is three things: the vertex bytes, the frontier the next
// iteration scatters, and whether the job already converged — update
// streams are empty at iteration boundaries by construction. The vertex
// bytes are visited a window at a time, never handed out whole, so a run
// that spills its state to the device (the solo out-of-core engine)
// implements it next to jobRun, whose single window is the live slice. A
// custom JobRun that does not implement it is simply never checkpointed.
type Snapshotter interface {
	// Name identifies the run in the snapshot's identity.
	Name() string
	// Done reports the run had already converged when the snapshot is taken.
	Done() bool
	// StateSize returns the byte size of the run's vertex state.
	StateSize() int64
	// VisitState calls fn with consecutive windows of the vertex state, in
	// relabeled vertex order, StateSize bytes in all. With restore false a
	// window holds the current state for a checkpoint writer to serialize;
	// with restore true its contents are unspecified, fn overwrites all of it
	// with snapshot bytes, and the run keeps what fn left there. The first
	// error, fn's or the run's own, ends the visit.
	VisitState(restore bool, fn func(window []byte) error) error
	// FrontierWords returns the backing words of the frontier the next
	// iteration scatters, nil when the run is dense. The slice aliases
	// live state (see Frontier.Words).
	FrontierWords() []uint64
	// RestoreFrontier overwrites the scatter frontier from snapshot words
	// and clears the gather-side frontier.
	RestoreFrontier(words []uint64) error
	// MarkDone forces the converged flag — a restored job that had
	// already terminated must drop out of the remaining iterations
	// without executing any.
	MarkDone()
}

// StateSize implements Snapshotter.
func (r *jobRun[V, M]) StateSize() int64 { return int64(len(r.verts)) * int64(pod.Size[V]()) }

// VisitState implements Snapshotter: the state is one in-memory window.
func (r *jobRun[V, M]) VisitState(_ bool, fn func(window []byte) error) error {
	return fn(pod.AsBytes(r.verts))
}

// MarkDone implements Snapshotter.
func (r *jobRun[V, M]) MarkDone() { r.done = true }

// JobScatter is a per-partition scatter sink: the engine streams edge runs
// into it, the sink applies the program's Scatter and stages updates
// through a private (combining) buffer into the job's update stream.
type JobScatter interface {
	// Edges scatters one contiguous run of the partition's edge chunk.
	Edges(run []Edge)
	// Flush drains the private buffer and folds the sink's counts into
	// the job; no Edges call may follow.
	Flush()
}

// jobRun is the JobRun that holds vertex state and updates in memory: one
// job's update path — vertex state, per-worker scatter sinks, transport,
// fold, gather, frontier. It is the in-memory engine's only one
// (memengine.Run is a set of one) and the out-of-core engine's shared-pass
// one, where it mirrors the spillable solo run's structures (same
// combining-buffer sizing, same shuffle plan, same fold) so a job's results
// are identical to a solo run.
type jobRun[V, M any] struct {
	prog  Program[V, M]
	setup JobSetup
	part  Split

	combine func(a, b M) M
	folder  *streambuf.Folder[Update[M]]
	// rep is the assignment's mirror set, nil unless replication is
	// active (a planned set with no Combiner falls back to nil).
	rep *Replication

	// Schedule is the selective scheduling state, dense unless fp is set.
	Schedule
	fp FrontierProgram[V]

	phased   PhasedProgram[V, M]
	starter  IterationStarter
	directed DirectedProgram
	remapper StateRemapper[V]

	verts []V
	// tp is the job's update transport (builtin shuffle unless the setup
	// carries an Exchange); sealed tracks whether the current iteration's
	// stream has been sealed by EndScatter and not yet gathered.
	tp     UpdateTransport[M]
	sealed bool
	// pending is Gather's run-lived scratch: the partitions with sealed
	// updates this iteration.
	pending []int

	basePriv int
	// sinks holds one scatter sink per engine worker, made with its kernel
	// on the worker's first partition (by the worker: kernels count per
	// block, so two must not share a cache line) and reused until the run
	// ends.
	sinks    []*jobScatter[V, M]
	done     bool
	finished bool
	iterSent int64

	// Per-iteration profile bookkeeping: BeginScatter snapshots the
	// cumulative counters and the wall clock, EndIteration pushes the
	// delta onto stats.Iters.
	iterMark  IterMark
	iterStart time.Time

	// overflow records a batch the transport refused; it sums the current
	// scatter's sink counts under itMu.
	overflow atomic.Bool
	itMu     sync.Mutex
	it       ScatterCounts

	stats Stats
}

func (r *jobRun[V, M]) Name() string { return r.prog.Name() }

func (r *jobRun[V, M]) Setup(s JobSetup) error {
	if err := pod.Check[V](); err != nil {
		return fmt.Errorf("job %s: vertex state: %w", r.prog.Name(), err)
	}
	if err := pod.Check[M](); err != nil {
		return fmt.Errorf("job %s: update value: %w", r.prog.Name(), err)
	}
	r.setup = s
	r.part = s.Assignment.Split
	if vm, ok := any(r.prog).(VertexMapper); ok {
		vm.MapVertices(s.NumVertices, s.Assignment.NewID, s.Assignment.OldID)
	}
	r.phased, _ = any(r.prog).(PhasedProgram[V, M])
	r.starter, _ = any(r.prog).(IterationStarter)
	r.directed, _ = any(r.prog).(DirectedProgram)
	r.remapper, _ = any(r.prog).(StateRemapper[V])
	if cb, ok := any(r.prog).(Combiner[M]); ok && !s.NoCombine {
		r.combine = cb.Combine
		r.folder = NewUpdateFolder(r.part, s.Threads, cb.Combine)
	}
	// Vertex replication needs the Combiner to merge mirror accumulators;
	// without one the assignment's mirror set is ignored (the fallback).
	if r.combine != nil && s.Assignment.Mirrors.Len() > 0 {
		r.rep = s.Assignment.Mirrors
		r.stats.MirroredVertices = r.rep.Len()
	}
	r.fp = SelectiveProgram(r.prog, s.Selective)
	r.InitSchedule(r.part, s.NumVertices, r.fp != nil)
	r.basePriv = s.PrivateBufRecs
	if r.basePriv <= 0 {
		r.basePriv = s.PrivateBufBytes / pod.Size[Update[M]]()
	}
	if r.basePriv < 1 {
		r.basePriv = 1
	}
	r.sinks = make([]*jobScatter[V, M], max(s.Threads, 1))
	r.pending = make([]int, 0, r.part.K)
	r.verts = make([]V, s.NumVertices)
	// Init in parallel over fixed blocks of vertices: programs initialize
	// a vertex from its ID alone and Frontier.Mark is atomic.
	const initBlock = 4096
	n := len(r.verts)
	ForEachClaimed((n+initBlock-1)/initBlock, s.Threads, func(_, b int) {
		for i := b * initBlock; i < min(n, (b+1)*initBlock); i++ {
			id := VertexID(i)
			r.prog.Init(id, &r.verts[i])
			if r.fp != nil && r.fp.InitiallyActive(id, &r.verts[i]) {
				r.Seed(id)
			}
		}
	})
	updCap := s.UpdateCap
	if updCap < 1 {
		updCap = 1
	}
	key := func(u Update[M]) uint32 { return r.part.Of(u.Dst) }
	if s.Exchange != nil {
		r.tp = NewExchangeTransport(s.Exchange(r.part.K), r.part.K, updCap, s.Plan, s.Threads, key, r.folder)
	} else {
		r.tp = NewShuffleTransport(updCap, s.Plan, s.Threads, key, r.folder)
	}
	r.stats.Algorithm = r.prog.Name()
	return nil
}

func (r *jobRun[V, M]) Done() bool { return r.done }

func (r *jobRun[V, M]) StartIteration(iter int) {
	if r.starter != nil {
		r.starter.StartIteration(iter)
	}
}

func (r *jobRun[V, M]) Direction(iter int) Direction {
	if r.directed != nil {
		return r.directed.Direction(iter)
	}
	return Forward
}

func (r *jobRun[V, M]) BeginScatter() error {
	if err := r.tp.EndIteration(); err != nil {
		return fmt.Errorf("job %s: %w", r.prog.Name(), err)
	}
	r.sealed = false
	r.Recount()
	r.iterMark = r.stats.MarkIter()
	r.iterStart = time.Now()
	return nil
}

func (r *jobRun[V, M]) NewScatter(w, p int, chunkEdges int64) JobScatter {
	s := r.sinks[w]
	if s == nil {
		s = &jobScatter[V, M]{r: r, k: NewScatterKernel(r.prog, r.tp, &r.overflow, r.combine, r.rep, r.basePriv)}
		r.sinks[w] = s
	}
	lo, hi := r.part.Range(p, r.setup.NumVertices)
	s.k.Begin(p, r.part, r.verts, 0, DegreeAwareBufRecs(r.basePriv, chunkEdges, hi-lo))
	return s
}

// jobScatter is one worker's scatter sink: the worker's kernel over the
// whole vertex array.
type jobScatter[V, M any] struct {
	r *jobRun[V, M]
	k *ScatterKernel[V, M]
}

func (s *jobScatter[V, M]) Edges(run []Edge) { s.k.Edges(run) }

func (s *jobScatter[V, M]) Flush() {
	n := s.k.End()
	s.r.itMu.Lock()
	s.r.it.Add(n)
	s.r.itMu.Unlock()
}

func (r *jobRun[V, M]) EndScatter() error {
	if r.overflow.Load() {
		return fmt.Errorf("job %s: update buffer overflow (capacity %d)", r.prog.Name(), r.tp.Cap())
	}
	sent, streamed, cross, scatterCombined := r.it.Sent, r.it.Streamed, r.it.Cross, r.it.Combined
	r.stats.MirrorSyncUpdates += r.it.Synced
	r.it = ScatterCounts{}
	r.TakeSkips(&r.stats)
	appended := sent - scatterCombined

	t0 := time.Now()
	flow, err := r.tp.Seal()
	if err != nil {
		return fmt.Errorf("job %s: %w", r.prog.Name(), err)
	}
	foldCombined := flow.Combined
	r.sealed = true
	r.stats.ShuffleTime += time.Since(t0)

	gathered := appended - foldCombined
	usize := int64(pod.Size[Update[M]]())
	esize := int64(pod.Size[Edge]())
	stages := int64(r.setup.Plan.NumStages())
	r.stats.EdgesStreamed += streamed
	r.stats.UpdatesSent += sent
	r.stats.WastedEdges += streamed - sent
	r.stats.CrossPartitionUpdates += cross
	r.stats.UpdatesCombined += scatterCombined + foldCombined
	r.stats.UpdateBytes += gathered * usize
	r.stats.BytesStreamed += streamed*esize + (appended*(stages+1)+gathered)*usize
	r.stats.RandomRefs += streamed + gathered
	r.stats.SequentialRefs += streamed + appended*(stages+1) + gathered
	r.iterSent = sent
	return nil
}

func (r *jobRun[V, M]) Gather(workers int) error {
	if !r.sealed {
		return nil
	}
	t0 := time.Now()
	// Only partitions that received updates are walked, so an iteration
	// that touched one partition (a narrow frontier) gathers inline
	// instead of forking workers for empty streams.
	r.pending = r.pending[:0]
	for p := 0; p < r.part.K; p++ {
		if r.tp.Pending(p) > 0 {
			r.pending = append(r.pending, p)
		}
	}
	// With selective scheduling every receiver is marked into the next
	// frontier — receipt of an update, not a state change, is what
	// (conservatively) activates a vertex, so the frontier is identical
	// whether or not the update stream was pre-combined.
	apply := func(run []Update[M]) error {
		if nxt := r.Receivers(); nxt != nil {
			for _, u := range run {
				r.prog.Gather(u.Dst, &r.verts[u.Dst], u.Val)
				nxt.Mark(u.Dst)
			}
			return nil
		}
		for _, u := range run {
			r.prog.Gather(u.Dst, &r.verts[u.Dst], u.Val)
		}
		return nil
	}
	var mu sync.Mutex
	var firstErr error
	ForEachClaimed(len(r.pending), workers, func(_, i int) {
		if err := r.tp.Drain(r.pending[i], apply); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	if err := r.tp.EndIteration(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return fmt.Errorf("job %s: %w", r.prog.Name(), firstErr)
	}
	r.sealed = false
	r.Advance()
	r.stats.GatherTime += time.Since(t0)
	return nil
}

// ForEachClaimed runs fn(w, i) for every i in [0, n) on up to workers
// goroutines, worker w (0-based) claiming the next unprocessed index from a
// shared cursor so that one stuck with an expensive index does not idle the
// rest (work stealing, §4.1). One worker, or one index, runs inline. It
// returns when every call has.
func ForEachClaimed(n, workers int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

func (r *jobRun[V, M]) EndIteration(iter int) error {
	r.stats.Iterations++
	r.stats.PushIter(iter, r.iterMark, time.Since(r.iterStart))
	if r.phased != nil {
		r.done = r.phased.EndIteration(iter, r.iterSent, SliceView[V](r.verts))
	} else {
		r.done = r.iterSent == 0
	}
	return nil
}

func (r *jobRun[V, M]) Finalize() (any, Stats, error) {
	if r.finished {
		return nil, r.stats, fmt.Errorf("job %s: finalized twice", r.prog.Name())
	}
	r.finished = true
	if r.tp != nil {
		tc := r.tp.Counters()
		r.stats.TransportBatches = tc.Batches
		r.stats.TransportBytes = tc.Bytes
		r.stats.TransportCross = tc.Cross
	}
	r.Close()
	asg := r.setup.Assignment
	verts := r.verts
	if !asg.Identity() {
		if r.remapper != nil {
			for i := range verts {
				r.remapper.RemapState(&verts[i], asg.OldID)
			}
		}
		verts = RestoreOrder(verts, asg.Relabel)
	}
	r.verts = nil
	return verts, r.stats, nil
}

func (r *jobRun[V, M]) Close() {
	if r.tp != nil {
		// A close error changes nothing the caller can act on: the
		// results are already final, or the pass already failed.
		_ = r.tp.Close()
		r.tp = nil
	}
}
