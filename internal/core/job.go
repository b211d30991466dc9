package core

// job.go is the shared-pass execution layer. X-Stream's cost model says the
// sequential edge stream is the dominant, fixed cost of a computation — so
// that cost should be paid once per *pass*, not once per *job*: N concurrent
// computations over the same dataset can share a single streamed scatter
// phase. A Job type-erases one Program[V, M] behind an interface the engines
// can drive without knowing V or M; a ProgramSet collects the co-scheduled
// jobs of one shared pass. Each job owns its entire update path — vertex
// state, update stream buffers, scatter-side combining, gather, frontier —
// while the engine owns the one thing the jobs share: the edge stream.
// RunMany in internal/memengine and internal/diskengine feed every job's
// scatter from each streamed edge chunk exactly once per iteration;
// Stats.CoJobs and Stats.EdgesShared measure the amortization.

import (
	"cmp"
	"errors"
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

// errEmptySet is what a pass of no jobs fails with.
var errEmptySet = errors.New("RunMany of an empty program set")

// Check rejects an empty set and a set with a job whose types fail
// Job.Check: what an engine asks of a set before it ingests a graph for it.
func (s ProgramSet) Check() error {
	if len(s) == 0 {
		return errEmptySet
	}
	for _, j := range s {
		if err := j.Check(); err != nil {
			return fmt.Errorf("job %s: %w", j.Name(), err)
		}
	}
	return nil
}

// NewRuns checks every job of the set, spawns its executor and sets it up
// under the pass's shared setup; an empty set is refused. On failure the
// runs made so far are closed, so a pass that cannot start leaks no
// transport.
func (s ProgramSet) NewRuns(setup JobSetup) ([]JobRun, error) {
	if len(s) == 0 {
		return nil, errEmptySet
	}
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

// EndAndGather shuffles and gathers every live job's update stream
// — the per-job half of a shared-pass iteration, run by both engines after
// the shared scatter. Jobs are independent, so they proceed in parallel,
// one goroutine each; each job's own shuffle parallelizes
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
// per-job work counters and the I/O of the jobs' stores into the pass stats
// and derives EdgesShared — the edge reads the sharing avoided, the sum of
// per-job streams minus the pass's one.
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
		pass.addIO(&js)
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

// Result is a typed run's outcome: the final vertex states in input vertex
// order and the run's stats.
type Result[V any] struct {
	Vertices []V
	Stats    Stats
}

// Typed returns res with its vertex states typed: an engine's Run is Typed
// of its RunJob.
func Typed[V any](res *JobResult, err error) (*Result[V], error) {
	if err != nil {
		return nil, err
	}
	return &Result[V]{Vertices: res.Vertices.([]V), Stats: res.Stats}, nil
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
	combineAcc  func(nv int64) int64 // one scatter kernel's dense accumulator
	check       func() error
	newRun      func() JobRun
}

// NewJob wraps prog for shared-pass execution.
func NewJob[V, M any](prog Program[V, M]) *Job {
	return &Job{
		name:        prog.Name(),
		vertexBytes: pod.Size[V](),
		updateBytes: pod.Size[Update[M]](),
		combineAcc: func(nv int64) int64 {
			if _, ok := prog.(Combiner[M]); !ok {
				return 0
			}
			return DenseCombineFootprint[M](nv)
		},
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
// graph of nv vertices and ne edge records, scattered by kernels scatter
// kernels (the in-memory engine makes one per thread, the out-of-core engine
// one): the vertex state array, the two update stream buffers, the frontier
// bitsets, and each kernel's dense combining accumulator when the program
// combines and nv selects one (DenseCombineFootprint). A run over k
// partitions in memory holds the windows updateWindow sizes; k 0, the
// out-of-core engine's windows, is charged the worst-case scatter output,
// ne records each. The jobs scheduler's admission control co-schedules jobs
// only while the sum of their estimates fits the memory budget.
func (j *Job) MemoryEstimate(nv, ne int64, kernels, k int) int64 {
	acc := j.combineAcc(nv)
	return nv*int64(j.vertexBytes) + 2*updateWindow(ne, nv, k, acc > 0)*int64(j.updateBytes) + nv/4 + int64(kernels)*acc
}

// updateWindow is the record capacity of each update stream buffer of a run
// without stores over nv vertices in k partitions whose iterations append at
// most ne updates. A run whose scatter kernels combine in the dense
// accumulator (dense) appends at most one update per destination per
// partition task — each partition is one task per iteration, and the
// accumulator emits each destination it holds once, at its task's end — so
// its windows hold min(ne, k·nv); any other run's, and any run's when k is
// 0, hold ne.
func updateWindow(ne, nv int64, k int, dense bool) int64 {
	if dense && k > 0 {
		return min(ne, int64(k)*nv)
	}
	return ne
}

// DefaultPrivateBufBytes is the size of each scatter kernel's private
// append buffer (§4.1), in memory and out of core: 8 KiB, the paper's value
// — 1024 records of an 8-byte update.
const DefaultPrivateBufBytes = 8 << 10

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
	// Threads bounds the job's internal parallelism (shuffle, gather).
	Threads int
	// Plan is the update shuffle plan matching the assignment's split.
	Plan streambuf.Plan
	// UpdateCap is the record capacity of each update stream buffer of a run
	// without stores: the most updates one iteration may append, which the
	// engine bounds by the edge count. A run whose scatter kernels combine
	// in the dense accumulator keeps its windows to one update per
	// destination per partition task when that is fewer (updateWindow).
	UpdateCap int
	// PrivateBufBytes sizes the scatter-side private buffers in bytes,
	// DefaultPrivateBufBytes when 0.
	PrivateBufBytes int
	// NoCombine disables update combining even for Combiner programs.
	NoCombine bool
	// Selective enables per-job frontier scheduling for FrontierPrograms.
	Selective bool
	// Spill, when non-nil, opens the device-backed stores an out-of-core
	// engine lends the run (see Spill). Setup calls it once, with the
	// run's vertex and update record sizes and the tally its stores count
	// their I/O on. Such an engine streams one partition at a time through
	// sink 0, fed by one goroutine at a time, whose kernel sends into a transport
	// that spills each window the sends fill (see jobScatter). Without it
	// vertex state and the update stream stay in memory, in a window of
	// UpdateCap records, and every engine worker scatters whole partitions
	// through a sink of its own.
	Spill func(vertexBytes, updateBytes int, io *SpillIO) (*Spill, error)
	// Degrees returns partition p's out-degrees, one per vertex of its
	// window in relabeled order, counted by the engine's pre-processing;
	// Setup asks for each partition once when the program is a DegreeInit.
	// In memory it returns a slice of the prepared vector. Out of core it
	// reads and verifies the partition's degree file into *scratch, grown
	// to the window when short, and counts the bytes on io.
	Degrees func(p int, scratch *[]uint32, io *SpillIO) ([]uint32, error)
}

// JobRun drives one job through the iterations of a pass. The engine owns
// the edge stream, RunPass the iteration loop; everything update-side —
// where vertex state and updates live included — is behind this interface,
// whose one implementation is jobRun. Methods are called from the engine's
// coordinating goroutine except NewScatter sinks, which run one per
// partition task.
//
// A failure inside NewScatter or a sink — a refused batch, an I/O error
// loading a spilled vertex window — is returned by the sink's next Edges or
// Flush, and the engine fails the pass with it without streaming further
// partitions.
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
	// ActiveWords returns, ascending, the frontier words (word i holds
	// vertices [64i, 64i+64)) that hold an active vertex of partition p this
	// iteration — the candidates of the tile plan (PartitionPlan.Plan);
	// nil on a dense run.
	ActiveWords(p int) []uint32
	// NewScatter returns engine worker w's scatter sink (0 ≤ w < the
	// setup's Threads), readied for partition p. The run owns one sink per
	// worker for its whole life — with stores lent (JobSetup.Spill) only
	// worker 0's, because a transport over a store takes sends from one
	// goroutine at a time — so a worker must Flush its sink, when the
	// partition's edges are exhausted, before asking for the next. Sinks
	// are single-goroutine.
	NewScatter(w, p int) JobScatter
	// Skip accounts the edge records, whole partitions and tiles the job's
	// frontier proved useless, as PartitionPlan books them (the engine
	// never hands them to a sink). Safe for concurrent use from partition
	// tasks.
	Skip(edges, partitions, tiles int64)
	// EndScatter shuffles the iteration's update stream.
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
// bytes are visited a window at a time, never handed out whole: one window
// per partition for a run whose state lives in a VertexStore, the live slice
// otherwise. A JobRun that does not implement it is simply never
// checkpointed.
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
func (r *jobRun[V, M]) StateSize() int64 { return r.setup.NumVertices * int64(pod.Size[V]()) }

// VisitState implements Snapshotter: in-memory state is one window; state
// in a VertexStore is visited a partition window at a time, and stored back
// only on restore — a checkpoint write leaves the vertex files alone.
func (r *jobRun[V, M]) VisitState(restore bool, fn func(window []byte) error) error {
	if r.vstore == nil {
		return fn(pod.AsBytes(r.verts))
	}
	for p := 0; p < r.part.K; p++ {
		lo, hi := r.part.Range(p, r.setup.NumVertices)
		verts := r.win[:hi-lo]
		if !restore {
			var err error
			if verts, _, err = r.window(p); err != nil {
				return err
			}
		}
		if err := fn(pod.AsBytes(verts)); err != nil {
			return err
		}
		if restore {
			if err := r.storeWindow(p, verts); err != nil {
				return err
			}
		}
	}
	return nil
}

// MarkDone implements Snapshotter.
func (r *jobRun[V, M]) MarkDone() { r.done = true }

// JobScatter is a per-partition scatter sink: the engine streams edge runs
// into it, the sink applies the program's Scatter and stages updates
// through a private (combining) buffer into the job's update stream.
type JobScatter interface {
	// Edges scatters one contiguous run of the partition's edge chunk. A
	// non-nil error — the sink's first failure, NewScatter's included —
	// fails the iteration; the engine feeds the sink no more edges.
	Edges(run []Edge) error
	// Flush drains the private buffer and folds the sink's counts into
	// the job; no Edges call may follow. It returns the sink's first
	// failure, like Edges.
	Flush() error
}

// jobRun is the JobRun: one job's update path — vertex state, scatter
// sinks, transport, gather, frontier. Every run of either engine is
// one (memengine.Run and diskengine.Run are passes of one). Three parts are
// optional and follow from JobSetup.Spill: the window sink of an engine that
// streams one partition at a time, an update transport that spills full
// windows to the engine's update store, and vertex state that lives in the
// engine's vertex store, a window per partition, with the windowed gather.
type jobRun[V, M any] struct {
	prog  Program[V, M]
	setup JobSetup
	part  Split

	combine func(a, b M) M
	op      CombineOp

	// Schedule is the selective scheduling state, dense unless fp is set.
	Schedule
	fp FrontierProgram[V]

	phased   PhasedProgram[V, M]
	starter  IterationStarter
	directed DirectedProgram
	remapper StateRemapper[V]

	// verts is the vertex state, nil when it lives in vstore; then win is
	// the one partition window buffer, and sub, of subK buckets, the
	// windowed gather's sub-shuffle (the in-memory engine layered inside a
	// partition, §4.3), made on first use.
	verts  []V
	win    []V
	vstore VertexStore
	sub    *streambuf.Buffer[Update[M]]
	subK   int
	// spill is what the engine lent the run, nil when it lent nothing; io
	// tallies what its stores moved until book puts it on the stats (a
	// gather drains partitions concurrently), and err latches an I/O
	// failure behind the phase hook's vertex view, whose ForEach cannot
	// return it.
	spill *Spill
	io    SpillIO
	err   error
	// tp is the job's update transport, the builtin shuffle; sealed tracks
	// whether the current iteration's stream has been sealed by EndScatter
	// and not yet gathered.
	tp     UpdateTransport[M]
	sealed bool
	// pending and gathers are Gather's run-lived scratch: the partitions
	// with sealed updates this iteration, and one task per gathering
	// worker.
	pending []int
	gathers []*gatherTask[V, M]

	basePriv int
	// sinks holds one scatter sink per engine worker, made on the worker's
	// first partition and reused until the run ends (see NewScatter).
	sinks    []*jobScatter[V, M]
	done     bool
	finished bool
	iterSent int64

	// Per-iteration profile bookkeeping: BeginScatter snapshots the
	// cumulative counters and the wall clock, EndIteration pushes the
	// delta onto stats.Iters.
	iterMark  IterMark
	iterStart time.Time

	// it sums the current scatter's sink counts, added under itMu.
	itMu sync.Mutex
	it   ScatterCounts

	stats Stats
}

func (r *jobRun[V, M]) Name() string { return r.prog.Name() }

// Setup implements JobRun. NewRuns has checked the job's types.
func (r *jobRun[V, M]) Setup(s JobSetup) error {
	r.setup = s
	r.part = s.Assignment.Split
	if vm, ok := any(r.prog).(VertexMapper); ok {
		vm.MapVertices(s.NumVertices, s.Assignment.NewID, s.Assignment.OldID)
	}
	r.phased, _ = any(r.prog).(PhasedProgram[V, M])
	r.starter, _ = any(r.prog).(IterationStarter)
	r.directed, _ = any(r.prog).(DirectedProgram)
	r.remapper, _ = any(r.prog).(StateRemapper[V])
	r.combine, r.op = Combining(r.prog, s.NoCombine)
	r.fp = SelectiveProgram(r.prog, s.Selective)
	r.InitSchedule(r.part, s.NumVertices, r.fp != nil)
	r.basePriv = max(cmp.Or(s.PrivateBufBytes, DefaultPrivateBufBytes)/pod.Size[Update[M]](), 1)
	r.sinks = make([]*jobScatter[V, M], max(s.Threads, 1))
	r.pending = make([]int, 0, r.part.K)
	r.stats.Algorithm = r.prog.Name()
	dense := r.combine != nil && DenseCombines[M](s.NumVertices)
	updCap, store := max(int(updateWindow(int64(s.UpdateCap), s.NumVertices, r.part.K, dense)), 1), SpillStore(nil)
	if s.Spill != nil {
		sp, err := s.Spill(pod.Size[V](), pod.Size[Update[M]](), &r.io)
		if err != nil {
			return err
		}
		r.spill, r.vstore, updCap, store = sp, sp.Vertices, sp.Window, sp.Updates
	}
	if err := r.initVertices(); err != nil {
		return err
	}
	// The transport holds its stream buffers for the whole run; over an
	// update store a full window spills to it.
	key := func(u Update[M]) uint32 { return r.part.Of(u.Dst) }
	r.tp = NewSpillTransport(updCap, s.Plan, s.Threads, key, store)
	return nil
}

// initVertices establishes the initial vertex state a partition window at a
// time — a slice of the in-memory state, or the window buffer stored to the
// vertex store — with selective scheduling seeding iteration 0's frontier as
// it goes. A DegreeInit program gets each vertex's out-degree right after
// Init, from the partition's degrees (JobSetup.Degrees). Within a window,
// fixed blocks of vertices are initialized in parallel: a program
// initializes a vertex from its ID (and degree) alone, and Frontier.Mark is
// atomic.
func (r *jobRun[V, M]) initVertices() error {
	if r.vstore == nil {
		r.verts = make([]V, r.setup.NumVertices)
	} else {
		r.win = make([]V, r.part.PerPartition())
		r.subK = NextPow2(r.setup.Threads * 4)
	}
	degInit, _ := any(r.prog).(DegreeInit[V])
	if degInit != nil && r.setup.Degrees == nil {
		return fmt.Errorf("job %s: the engine counts no out-degrees", r.prog.Name())
	}
	// One closure serves every window, which the loop sets.
	const initBlock = 4096
	var lo, hi int64
	var win []V
	var deg, scratch []uint32
	initBlocks := func(_, b int) {
		for i := b * initBlock; i < min(len(win), (b+1)*initBlock); i++ {
			id := VertexID(lo + int64(i))
			r.prog.Init(id, &win[i])
			if deg != nil {
				degInit.InitDegree(id, deg[i], &win[i])
			}
			if r.fp != nil && r.fp.InitiallyActive(id, &win[i]) {
				r.Seed(id)
			}
		}
	}
	for p := 0; p < r.part.K; p++ {
		lo, hi = r.part.Range(p, r.setup.NumVertices)
		if r.vstore == nil {
			win = r.verts[lo:hi]
		} else {
			win = r.win[:hi-lo]
		}
		if degInit != nil {
			var err error
			if deg, err = r.setup.Degrees(p, &scratch, &r.io); err != nil {
				return fmt.Errorf("job %s: %w", r.prog.Name(), err)
			}
			if len(deg) != len(win) {
				return fmt.Errorf("job %s: partition %d has %d out-degrees for %d vertices", r.prog.Name(), p, len(deg), len(win))
			}
		}
		ForEachClaimed((len(win)+initBlock-1)/initBlock, r.setup.Threads, initBlocks)
		if err := r.storeWindow(p, win); err != nil {
			return err
		}
	}
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
	// What the stores moved outside an iteration — set-up, a resume, a
	// checkpoint — is the run's, not the iteration's.
	r.book()
	r.iterMark = r.stats.MarkIter()
	r.iterStart = time.Now()
	return nil
}

func (r *jobRun[V, M]) EndScatter() error {
	sent, streamed, cross, combined := r.it.Sent, r.it.Streamed, r.it.Cross, r.it.Combined
	r.it = ScatterCounts{}
	r.TakeSkips(&r.stats)
	// The transport merges nothing: gather sees every record the kernels
	// appended.
	appended := sent - combined

	t0 := time.Now()
	if _, err := r.tp.Seal(); err != nil {
		return fmt.Errorf("job %s: %w", r.prog.Name(), err)
	}
	r.sealed = true
	r.stats.ShuffleTime += time.Since(t0)

	usize := int64(pod.Size[Update[M]]())
	esize := int64(pod.Size[Edge]())
	stages := int64(r.setup.Plan.NumStages())
	r.stats.EdgesStreamed += streamed
	r.stats.UpdatesSent += sent
	r.stats.WastedEdges += streamed - sent
	r.stats.CrossPartitionUpdates += cross
	r.stats.UpdatesCombined += combined
	r.stats.UpdateBytes += appended * usize
	r.stats.BytesStreamed += streamed*esize + appended*(stages+2)*usize
	r.stats.RandomRefs += streamed + appended
	r.stats.SequentialRefs += streamed + appended*(stages+2)
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
	// instead of forking workers for empty streams — except that a dense
	// run over a vertex store loads and stores every window.
	r.pending = r.pending[:0]
	for p := 0; p < r.part.K; p++ {
		if r.tp.Pending(p) > 0 || r.vstore != nil && r.Dense() {
			r.pending = append(r.pending, p)
		}
	}
	// Partitions own disjoint windows, so in memory they are gathered in
	// parallel; a vertex store has one window buffer, so its partitions go
	// in order and the workers share each chunk instead.
	outer, inner := workers, 1
	if r.vstore != nil {
		outer, inner = 1, workers
	}
	for len(r.gathers) < outer {
		t := &gatherTask[V, M]{r: r}
		t.drain = t.apply
		r.gathers = append(r.gathers, t)
	}
	err := ForEachClaimedUntil(len(r.pending), outer, func(w, i int) error {
		return r.gatherPartition(r.gathers[w], r.pending[i], inner)
	})
	if eerr := r.tp.EndIteration(); err == nil {
		err = eerr
	}
	if err != nil {
		return fmt.Errorf("job %s: %w", r.prog.Name(), err)
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

// ForEachClaimedUntil is ForEachClaimed over a fallible fn: once a call has
// failed no worker starts another, and the first failure is returned. Its
// state is one allocation: every gather of every iteration walks through it.
func ForEachClaimedUntil(n, workers int, fn func(w, i int) error) error {
	var st struct {
		sync.Mutex
		first error
	}
	ForEachClaimed(n, workers, func(w, i int) {
		st.Lock()
		failed := st.first != nil
		st.Unlock()
		if failed {
			return
		}
		if err := fn(w, i); err != nil {
			st.Lock()
			if st.first == nil {
				st.first = err
			}
			st.Unlock()
		}
	})
	return st.first
}

// book moves what the run's stores moved since the last call onto its
// stats. Nothing in the stores is encoded, so a read counts logically too.
func (r *jobRun[V, M]) book() {
	read := r.io.Read.Swap(0)
	r.stats.BytesRead += read
	r.stats.BytesReadLogical += read
	r.stats.BytesWritten += r.io.Written.Swap(0)
	r.stats.BytesChecksummed += r.io.Checked.Swap(0)
}

func (r *jobRun[V, M]) EndIteration(iter int) error {
	r.book()
	r.stats.Iterations++
	r.stats.PushIter(iter, r.iterMark, time.Since(r.iterStart))
	if r.phased != nil {
		r.done = r.phased.EndIteration(iter, r.iterSent, r)
	} else {
		r.done = r.iterSent == 0
	}
	return r.err
}

func (r *jobRun[V, M]) Finalize() (any, Stats, error) {
	if r.finished {
		return nil, r.stats, fmt.Errorf("job %s: finalized twice", r.prog.Name())
	}
	r.finished = true
	verts := r.verts
	if r.vstore != nil {
		verts = make([]V, r.setup.NumVertices)
		for p := 0; p < r.part.K; p++ {
			win, lo, err := r.window(p)
			if err != nil {
				return nil, r.stats, fmt.Errorf("job %s: %w", r.prog.Name(), err)
			}
			copy(verts[lo:], win)
		}
	}
	r.book()
	if r.tp != nil {
		tc := r.tp.Counters()
		r.stats.TransportBatches = tc.Batches
		r.stats.TransportBytes = tc.Bytes
		r.stats.TransportCross = tc.Cross
	}
	r.Close()
	asg := r.setup.Assignment
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

// Close releases the update transport and then removes the stores' files
// underneath it; the transport's write pipeline may still be live on a path
// that abandoned an iteration mid-scatter.
func (r *jobRun[V, M]) Close() {
	if r.tp != nil {
		// A close error changes nothing the caller can act on: the
		// results are already final, or the pass already failed.
		_ = r.tp.Close()
		r.tp = nil
	}
	if r.spill != nil {
		r.spill.Close()
		r.spill = nil
	}
}

// SwapTransport replaces the update transport of r — a run of a
// Job[V, M], set up and not yet scattering — with tp, closing the one Setup
// made, and returns r's tally of the scatter counts its sinks have flushed
// and EndScatter has not yet booked. It is for engine tests that drive a
// run's sinks against a stub transport.
func SwapTransport[V, M any](r JobRun, tp UpdateTransport[M]) *ScatterCounts {
	jr := r.(*jobRun[V, M])
	_ = jr.tp.Close()
	jr.tp = tp
	return &jr.it
}
