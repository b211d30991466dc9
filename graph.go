package xstream

import (
	"io"

	"repro/internal/graphgen"
	"repro/internal/graphio"
	"repro/internal/storage"
)

// RMATConfig configures the RMAT scale-free graph generator (Graph500
// parameters a=0.57, b=0.19, c=0.19, d=0.05).
type RMATConfig = graphgen.RMATConfig

// RMAT returns a deterministic, re-streamable RMAT edge source.
func RMAT(cfg RMATConfig) EdgeSource { return graphgen.RMAT(cfg) }

// GridGraph returns a rows×cols lattice stored in both directions — a
// high-diameter workload (diameter rows+cols-2).
func GridGraph(rows, cols int, seed int64) EdgeSource { return graphgen.Grid(rows, cols, seed) }

// BipartiteGraph returns a random user–item ratings graph with edges in
// both directions, for ALS-style programs.
func BipartiteGraph(users, items int, ratings, seed int64) EdgeSource {
	return graphgen.Bipartite(users, items, ratings, seed)
}

// UniformGraph returns a uniform random graph.
func UniformGraph(n, m, seed int64, undirected bool) EdgeSource {
	return graphgen.Uniform(n, m, seed, undirected)
}

// ChainGraph returns a path graph stored in both directions — the worst
// case for scatter-gather iteration counts (diameter n-1).
func ChainGraph(n, seed int64) EdgeSource { return graphgen.Chain(n, seed) }

// CliqueChain returns cliques chained by single bridge edges, stored
// undirected: a high-diameter graph with community structure, the designed
// stress case for frontier-aware selective streaming (Config.Selective)
// and its composition with the 2PS partitioner.
func CliqueChain(cliques, cliqueSize int, seed int64) EdgeSource {
	return graphgen.CliqueChain(cliques, cliqueSize, seed)
}

// WriteEdgeFile streams src into a binary edge file on dev (unordered
// records; X-Stream's native input format).
func WriteEdgeFile(dev Device, name string, src EdgeSource) error {
	return graphio.WriteEdges(dev, name, src)
}

// OpenEdgeFile opens a binary edge file as a re-streamable EdgeSource.
func OpenEdgeFile(dev Device, name string) (EdgeSource, error) {
	return graphio.OpenEdges(dev, name)
}

// ParseTextEdges parses "src dst [weight]" lines ('#' comments); edges
// without weights get deterministic pseudo-random weights in [0,1).
func ParseTextEdges(r io.Reader) ([]Edge, int64, error) { return graphio.ParseText(r) }

// WriteTextEdges writes edges in the text format.
func WriteTextEdges(w io.Writer, edges []Edge) error { return graphio.WriteText(w, edges) }

// Storage devices.
type (
	// Device is a storage device holding the out-of-core engine's
	// partition files.
	Device = storage.Device
	// DeviceStats snapshots device activity counters.
	DeviceStats = storage.Stats
	// SimParams is the cost model of a simulated device.
	SimParams = storage.SimParams
)

// Fault tolerance. Every on-disk artifact the engines read back is framed
// with a CRC32C recorded at write time; a mismatch surfaces as
// ErrCorrupted, never as a wrong result. Transient device failures are
// absorbed by the retry wrapper; chaos tests drive both paths with the
// deterministic fault injector.
type (
	// RetryOptions tunes NewRetryDevice's bounded exponential backoff.
	RetryOptions = storage.RetryOptions
	// FaultyOptions is NewFaultyDevice's deterministic fault schedule.
	FaultyOptions = storage.FaultyOptions
	// FaultInjector is implemented by NewFaultyDevice's Device so chaos
	// tests can assert the schedule actually fired.
	FaultInjector = storage.FaultInjector
)

// ErrCorrupted is wrapped by every checksum or framing failure on an
// on-disk artifact (edge tiles, update streams, spilled vertex windows,
// permutation files, checkpoints). Test with errors.Is.
var ErrCorrupted = storage.ErrCorrupted

// NewRetryDevice wraps a Device so transient failures of positional file
// operations are retried with jittered exponential backoff; retry counts
// surface through DeviceStats.Retries and Stats.IORetries. Corruption and
// permanent errors fail fast — corruption must go to the rebuild path.
func NewRetryDevice(inner Device, opts RetryOptions) Device { return storage.NewRetry(inner, opts) }

// NewFaultyDevice wraps a Device with deterministic, seedable fault
// injection (reported transient errors, short reads, torn writes, silent
// read corruption) for failure testing. The returned Device also
// implements FaultInjector.
func NewFaultyDevice(inner Device, opts FaultyOptions) Device { return storage.NewFaulty(inner, opts) }

// NewOSDevice returns a Device backed by real files under dir.
func NewOSDevice(name, dir string) (Device, error) { return storage.NewOS(name, dir) }

// NewSimDevice returns a simulated Device with the given cost model;
// useful for reproducing the paper's SSD/HDD experiments without the
// hardware.
func NewSimDevice(p SimParams) Device { return storage.NewSim(p) }

// SimSSD returns the cost model of the paper's RAID-0 PCIe SSD pair
// (disks members, timeScale 0 disables real-time pacing).
func SimSSD(name string, disks int, timeScale float64) SimParams {
	return storage.SSDParams(name, disks, timeScale)
}

// SimHDD returns the cost model of the paper's RAID-0 magnetic disk pair.
func SimHDD(name string, disks int, timeScale float64) SimParams {
	return storage.HDDParams(name, disks, timeScale)
}
