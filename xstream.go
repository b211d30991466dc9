package xstream

import (
	"context"

	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphio"
	"repro/internal/memengine"
	"repro/internal/partition2ps"
)

// Core model types, re-exported from the engine packages.
type (
	// VertexID identifies a vertex (32-bit, enough for 4.2B vertices).
	VertexID = core.VertexID
	// Edge is a directed weighted edge.
	Edge = core.Edge
	// Update is a value produced by scatter, addressed to a vertex.
	Update[M any] = core.Update[M]
	// EdgeSource is a re-streamable unordered edge list.
	EdgeSource = core.EdgeSource
	// Program is an edge-centric scatter-gather computation.
	Program[V, M any] = core.Program[V, M]
	// PhasedProgram adds per-iteration aggregation and termination.
	PhasedProgram[V, M any] = core.PhasedProgram[V, M]
	// Combiner marks programs whose update values form a commutative
	// semigroup, letting the engines pre-aggregate the update stream
	// (thread-private combining buffers at scatter time; the shuffle
	// merges nothing). Disable per run with
	// Config.NoCombine. A Combiner whose Combine is exactly
	// CombineSum or CombineMin may say so with a CombineOp() CombineOp
	// method; the engines then merge by the op inline.
	Combiner[M any] = core.Combiner[M]
	// CombineOp is a built-in merge a Combiner declares its Combine to be.
	CombineOp = core.CombineOp
	// FrontierProgram marks programs whose Scatter is a no-op for
	// vertices whose state the last iteration's gather left unchanged,
	// letting engines with Config.Selective skip inactive partitions and
	// edge tiles (the out-of-core engine skips the file reads outright).
	// BFS, SSSP and WCC opt in; results are identical either way.
	FrontierProgram[V any] = core.FrontierProgram[V]
	// DirectedProgram selects forward or transposed streaming per
	// iteration.
	DirectedProgram = core.DirectedProgram
	// IterationStarter is notified before each scatter phase.
	IterationStarter = core.IterationStarter
	// VertexView streams all vertex state through phase hooks.
	VertexView[V any] = core.VertexView[V]
	// Direction selects the streamed edge list orientation.
	Direction = core.Direction
	// Stats is the execution profile of one run.
	Stats = core.Stats
	// IterStats is one iteration's slice of a run's Stats.
	IterStats = core.IterStats
	// Tracer receives execution spans from an engine (Config.Tracer);
	// internal/obs provides a recorder and Chrome trace-event export.
	Tracer = core.Tracer
)

// Edge list orientations.
const (
	Forward  = core.Forward
	Backward = core.Backward
)

// Built-in combine ops (see Combiner).
const (
	// CombineSum declares Combine(a, b) = a + b.
	CombineSum = core.CombineSum
	// CombineMin declares Combine(a, b) = a if a < b, else b.
	CombineMin = core.CombineMin
)

// Engine configuration and results.
type (
	// Config tunes a run of either engine. The zero value auto-sizes
	// partitions (from the CPU cache in memory, §4; from MemoryBudget out
	// of core, §3.4) and the shuffler fanout. Each field says which engine
	// reads it; Device is required out of core.
	Config = core.Config
	// MemConfig is Config, as the in-memory engine (§4) takes it.
	MemConfig = Config
	// DiskConfig is Config, as the out-of-core engine (§3) takes it.
	DiskConfig = Config
	// MemResult carries final vertex state and stats.
	MemResult[V any] = memengine.Result[V]
	// DiskResult carries final vertex state and stats.
	DiskResult[V any] = diskengine.Result[V]
)

// RunMemory executes prog over g with the in-memory streaming engine:
// partitions sized to the CPU cache, parallel scatter-gather with work
// stealing, multi-stage in-memory shuffle.
func RunMemory[V, M any](g EdgeSource, prog Program[V, M], cfg MemConfig) (*MemResult[V], error) {
	return memengine.Run(g, prog, cfg)
}

// RunDisk executes prog over g with the out-of-core streaming engine:
// streaming partitions on a storage device, merged scatter/shuffle with
// asynchronous prefetching I/O.
func RunDisk[V, M any](g EdgeSource, prog Program[V, M], cfg DiskConfig) (*DiskResult[V], error) {
	return diskengine.Run(g, prog, cfg)
}

// Shared-pass execution: X-Stream's sequential edge stream is the
// dominant, fixed cost of a computation, so N co-scheduled jobs over the
// same dataset can pay it once per pass instead of once per job.
type (
	// Job is a type-erased handle over one Program, created with NewJob,
	// for shared-pass execution.
	Job = core.Job
	// ProgramSet is the ordered collection of co-scheduled jobs of one
	// shared pass.
	ProgramSet = core.ProgramSet
	// JobResult is one job's outcome: its final vertex states ([]V,
	// type-erased, in input order) and its own Stats.
	JobResult = core.JobResult
	// MemPrepared caches a dataset's in-memory execution state (shuffled
	// edge chunks, transpose, tile index) across RunMany passes.
	MemPrepared = memengine.Prepared
	// DiskPrepared caches a dataset's out-of-core pre-processing
	// (partition edge files, tile index) across RunMany passes.
	DiskPrepared = diskengine.Prepared
)

// NewJob wraps prog for shared-pass execution with RunManyMemory or
// RunManyDisk. Each Job is a single computation: run it once.
func NewJob[V, M any](prog Program[V, M]) *Job { return core.NewJob(prog) }

// PrepareMemory ingests a graph once for the in-memory engine — the
// partitioning plan (including any clustering passes), the relabeled edge
// stream shuffled into partition chunks — and returns a cached handle any
// number of RunMany passes share.
func PrepareMemory(g EdgeSource, cfg MemConfig) (*MemPrepared, error) {
	return memengine.Prepare(g, cfg)
}

// PrepareDisk ingests a graph once for the out-of-core engine: the
// pre-processing shuffle into partition edge files plus the tile index,
// paid once per dataset. Close the handle to remove the files.
func PrepareDisk(g EdgeSource, cfg DiskConfig) (*DiskPrepared, error) {
	return diskengine.Prepare(g, cfg)
}

// RunManyMemory executes every job of set over g with the in-memory
// engine, sharing one edge stream per iteration. It returns per-job
// results plus the pass-level Stats (CoJobs, EdgesShared measure the
// amortization). ctx cancels between iterations and chunks; nil means
// context.Background().
func RunManyMemory(ctx context.Context, g EdgeSource, set ProgramSet, cfg MemConfig) ([]JobResult, Stats, error) {
	return memengine.RunMany(ctx, g, set, cfg)
}

// RunManyDisk executes every job of set over g out of core, sharing one
// pass over the partition edge files per iteration, so edge-file reads are
// amortized across jobs. The jobs share the memory budget: a job's vertex
// state and updates spill to the device when its share does not hold them,
// as RunDisk's do.
func RunManyDisk(ctx context.Context, g EdgeSource, set ProgramSet, cfg DiskConfig) ([]JobResult, Stats, error) {
	return diskengine.RunMany(ctx, g, set, cfg)
}

// NewSliceSource wraps an in-memory edge list as an EdgeSource. If
// numVertices is 0 it is inferred as max(id)+1.
func NewSliceSource(edges []Edge, numVertices int64) EdgeSource {
	return core.NewSliceSource(edges, numVertices)
}

// Materialize reads an entire EdgeSource into memory.
func Materialize(src EdgeSource) ([]Edge, error) { return core.Materialize(src) }

// Reverse returns the transposed edge list as a streaming transformation.
func Reverse(src EdgeSource) EdgeSource { return core.Reverse(src) }

// Symmetrize returns src plus its transpose — the undirected version of a
// directed graph.
func Symmetrize(src EdgeSource) EdgeSource { return core.Symmetrize(src) }

// Partitioning policies. Engines take a Partitioner in their Config; nil
// means the paper's fixed contiguous range split.
type (
	// Partitioner decides how vertices map to streaming partitions.
	Partitioner = core.Partitioner
	// Assignment is a planned partitioning: contiguous split plus the
	// vertex relabeling that realizes it.
	Assignment = core.Assignment
)

// NewRangePartitioner returns the paper's fixed policy: partitions are
// contiguous ranges of the input vertex IDs.
func NewRangePartitioner() Partitioner { return core.RangePartitioner{} }

// New2PSPartitioner returns the locality-aware two-phase streaming
// partitioner: one pass learns degree-weighted vertex clusters, a second
// packs them into partitions via a relabeling permutation, cutting
// cross-partition update traffic on community-structured graphs. Results
// are still reported in input vertex IDs.
func New2PSPartitioner() Partitioner { return partition2ps.New() }

// NewPermutationPartitioner replays a saved old->new vertex relabeling as
// a Partitioner (nil = identity), so a clustering pass persisted with
// SavingPartitioner is paid once per dataset.
func NewPermutationPartitioner(name string, relabel []VertexID) Partitioner {
	return core.NewPermutationPartitioner(name, relabel)
}

// SavingPartitioner wraps inner so the relabeling permutation it plans is
// persisted as a permutation file on dev when an engine runs; replay it
// later with LoadPartitioner.
func SavingPartitioner(inner Partitioner, dev Device, name string) Partitioner {
	return graphio.SavingPartitioner(inner, dev, name)
}

// LoadPartitioner reads a saved permutation file and returns a Partitioner
// replaying it, skipping the clustering passes entirely.
func LoadPartitioner(dev Device, name string) (Partitioner, error) {
	return graphio.LoadPartitioner(dev, name)
}
