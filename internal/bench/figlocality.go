package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/graphio"
	"repro/internal/partition2ps"
)

// figlocality quantifies what the partitioner layer buys: the fraction of
// updates that must cross streaming partitions in the shuffle (pure
// shuffle traffic) and the end-to-end time, for the paper's fixed range
// split versus the 2PS-style streaming clusterer of internal/partition2ps.
//
// Two inputs expose the two regimes. "rmat" is the generator's native
// ordering, where the recursive quadrant construction already gives range
// partitioning considerable accidental locality — the partitioner's
// worst case. "rmat-shuffled" is the same graph under a random vertex
// permutation, the adversarial ordering §3 warns about (X-Stream never
// sorts, so it inherits whatever ordering the input arrives in); here
// range partitioning collapses to ~(1-1/K) cross traffic while 2PS
// recovers the structure.
func init() {
	register("figlocality", "Cross-partition update traffic: range vs 2PS", runFigLocality)
}

func runFigLocality(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scale := cfg.pick(18, 10)
	parts := cfg.pick(64, 8)
	prIters := 5

	// Both inputs are materialized once, so each of a partitioner's passes
	// over its input re-reads memory, not the generator: the preproc column
	// measures the partitioner.
	gen := graphgen.RMAT(graphgen.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 7})
	inputs := []struct {
		name string
		src  core.EdgeSource
	}{
		{"rmat", gen},
		{"rmat-shuffled", graphio.Relabeled(gen, randomPerm(gen.NumVertices(), 7))},
	}
	for i, in := range inputs {
		edges, err := core.Materialize(in.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		inputs[i].src = core.NewSliceSource(edges, in.src.NumVertices())
	}

	t := &Table{
		ID:    "figlocality",
		Title: fmt.Sprintf("Locality-aware partitioning, RMAT scale %d, K=%d (in-memory engine)", scale, parts),
		Columns: []string{"graph", "algorithm", "partitioner", "cross-updates",
			"combined", "update-bytes", "preproc", "scatter+shuffle", "total"},
	}

	type variant struct {
		name string
		part core.Partitioner
	}
	variants := []variant{
		{"range", core.RangePartitioner{}},
		{"2ps", partition2ps.New()},
	}
	crossBy := map[string]float64{}

	for _, in := range inputs {
		for _, v := range variants {
			mod := func(mc *core.Config) {
				mc.Partitions = parts
				mc.Partitioner = v.part
			}
			prs, err := runOn(in.src, algorithms.NewPageRank(prIters), nil, cfg, mod)
			if err != nil {
				return nil, fmt.Errorf("%s/%s pagerank: %w", in.name, v.name, err)
			}
			bfs, err := runOn(in.src, algorithms.NewBFS(0), nil, cfg, mod)
			if err != nil {
				return nil, fmt.Errorf("%s/%s bfs: %w", in.name, v.name, err)
			}
			for algo, s := range map[string]core.Stats{"PageRank": prs, "BFS": bfs} {
				t.Rows = append(t.Rows, []string{
					in.name, algo, v.name,
					fmt.Sprintf("%.1f%%", 100*s.CrossFraction()),
					fmt.Sprintf("%.1f%%", 100*s.CombinedFraction()),
					fmt.Sprintf("%d", s.UpdateBytes),
					fmtDur(s.PreprocessTime),
					fmtDur(s.ScatterTime + s.ShuffleTime),
					fmtDur(s.TotalTime),
				})
			}
			crossBy[in.name+"/"+v.name] = prs.CrossFraction()
			t.SetMetric(fmt.Sprintf("pagerank_%s_%s_cross_fraction", in.name, v.name), prs.CrossFraction())
		}
		rng, twops := crossBy[in.name+"/range"], crossBy[in.name+"/2ps"]
		ratio := 0.0
		if rng > 0 {
			ratio = twops / rng
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: 2PS carries %.2fx the cross-partition traffic of range (%.1f%% vs %.1f%%)",
			in.name, ratio, 100*twops, 100*rng))
	}
	sortRows(t)
	return t, nil
}

// randomPerm builds a deterministic random vertex permutation — the
// adversarial input ordering.
func randomPerm(n int64, seed int64) []core.VertexID {
	perm := make([]core.VertexID, n)
	for i := range perm {
		perm[i] = core.VertexID(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// sortRows orders rows by (graph, algorithm, partitioner) for a stable
// table regardless of map iteration order.
func sortRows(t *Table) {
	rows := t.Rows
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rowLess(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func rowLess(a, b []string) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
