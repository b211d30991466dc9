package memengine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/partition2ps"
)

// scheduleRun is a core.JobRun whose scheduling half is a core.Schedule —
// everything a partition plan asks of a run.
type scheduleRun struct {
	core.JobRun
	s *core.Schedule
}

func (r scheduleRun) NeedsPartition(p int) bool           { return r.s.NeedsPartition(p) }
func (r scheduleRun) PartiallyActive(p int) bool          { return r.s.PartiallyActive(p) }
func (r scheduleRun) NeedsTile(span core.SrcSpan) bool    { return r.s.NeedsTile(span) }
func (r scheduleRun) ActiveWords(p int) []uint32          { return r.s.ActiveWords(p) }
func (r scheduleRun) Skip(edges, partitions, tiles int64) { r.s.Skip(edges, partitions, tiles) }

// randomScheduleRuns draws one to three runs over pp's vertices: mostly
// partially active frontiers of random density, and among them, when
// drawn, one fully active run and one dense run.
func randomScheduleRuns(rng *rand.Rand, pp *Prepared) []scheduleRun {
	runs := make([]scheduleRun, 1+rng.Intn(3))
	for i := range runs {
		s := new(core.Schedule)
		switch kind := rng.Intn(6); {
		case kind == 0 && i == 0: // dense
			s.InitSchedule(pp.part, pp.nv, false)
		case kind == 1 && i == 1: // fully active
			s.InitSchedule(pp.part, pp.nv, true)
			for v := int64(0); v < pp.nv; v++ {
				s.Seed(core.VertexID(v))
			}
		default:
			s.InitSchedule(pp.part, pp.nv, true)
			density := rng.Float64() * rng.Float64() * 0.2
			for v := int64(0); v < pp.nv; v++ {
				if rng.Float64() < density {
					s.Seed(core.VertexID(v))
				}
			}
		}
		s.Recount()
		runs[i] = scheduleRun{s: s}
	}
	return runs
}

// TestMemTilePlanMatchesWalk is TestTilePlanMatchesWalk's in-memory twin:
// on seeded graphs — range-partitioned RMAT and 2PS-partitioned clique
// chains, K 1 to 16, tiles of 1 to 300 records — and random frontiers for
// one to three runs, the records each run is handed through the partition
// plan (core.PartitionPlan.Delivered) are exactly a walk of every tile of
// the chunk with that run's own tile predicate, in chunk order. Each run's
// delivered and booked-skipped records add up to the chunk, and so do the
// pass's streamed and skipped ones.
func TestMemTilePlanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 24; trial++ {
		cfg := Config{Threads: 1, Partitions: 1 << rng.Intn(5), Selective: true, TileEdges: 1 + rng.Intn(300)}
		var src core.EdgeSource
		if trial%2 == 0 {
			src = graphgen.RMAT(graphgen.RMATConfig{Scale: 9 + rng.Intn(2), EdgeFactor: 8, Seed: rng.Int63()})
		} else {
			src = graphgen.CliqueChain(16+rng.Intn(32), 4+rng.Intn(12), rng.Int63())
			cfg.Partitioner = partition2ps.New()
		}
		pp, err := Prepare(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf, ix := pp.edges(core.Forward, true)
		for draw := 0; draw < 8; draw++ {
			runs := randomScheduleRuns(rng, pp)
			subs := make([]core.JobRun, len(runs))
			for i, r := range runs {
				subs[i] = r
			}
			var plan core.PartitionPlan
			for p := 0; p < pp.part.K; p++ {
				what := fmt.Sprintf("trial %d draw %d (K %d, tiles of %d) partition %d", trial, draw, pp.part.K, cfg.TileEdges, p)
				chunk := buf.Bucket(p)
				plan.Plan(subs, p, int64(len(chunk)), cfg.TileEdges, ix)
				got := make([][]core.Edge, len(runs))
				for i, r := range plan.Needing {
					j := slices.Index(subs, r)
					for _, run := range plan.Delivered(i) {
						got[j] = append(got[j], chunk[run.Lo:run.Hi]...)
					}
				}
				for j, r := range runs {
					var want []core.Edge
					if r.NeedsPartition(p) {
						for lo := 0; lo < len(chunk); lo += cfg.TileEdges {
							if tile := chunk[lo:min(lo+cfg.TileEdges, len(chunk))]; r.NeedsTile(core.SpanOf(tile)) {
								want = append(want, tile...)
							}
						}
					}
					if !slices.Equal(got[j], want) {
						t.Fatalf("%s, run %d (tiled %v): handed %d records, the walk %d", what, j, plan.Tiled, len(got[j]), len(want))
					}
					var st core.Stats
					r.s.TakeSkips(&st)
					if int64(len(got[j]))+st.EdgesSkipped != int64(len(chunk)) {
						t.Fatalf("%s, run %d: handed %d records and skipped %d of %d", what, j, len(got[j]), st.EdgesSkipped, len(chunk))
					}
				}
				var pass core.Stats
				plan.Book(&pass)
				if plan.Streamed+pass.EdgesSkipped != int64(len(chunk)) {
					t.Fatalf("%s: streamed %d records and skipped %d of %d", what, plan.Streamed, pass.EdgesSkipped, len(chunk))
				}
			}
		}
	}
}

// TestSharedSelectiveJobsSkipAsAlone: in an in-memory selective shared
// pass — two BFS roots and an SSSP, on a 2PS clique chain and on a range
// RMAT, at Threads 1 to 4 — each job streams and skips exactly the edges,
// partitions and tiles of its solo run on the same Prepared: a tile the
// union streams is still withheld from a job whose own frontier misses it.
func TestSharedSelectiveJobsSkipAsAlone(t *testing.T) {
	graphs := []struct {
		name string
		src  core.EdgeSource
		part core.Partitioner
		a, b core.VertexID // the BFS roots; SSSP starts at a
	}{
		{"2ps clique chain", graphgen.CliqueChain(48, 12, 5), partition2ps.New(), 0, 300},
		{"range rmat", graphgen.RMAT(graphgen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 48}), nil, 1, 700},
	}
	for _, g := range graphs {
		for threads := 1; threads <= 4; threads++ {
			pp, err := Prepare(g.src, Config{Threads: threads, Partitions: 8, Partitioner: g.part, Selective: true, TileEdges: 16})
			if err != nil {
				t.Fatal(err)
			}
			jobs := func() core.ProgramSet {
				return core.ProgramSet{
					core.NewJob(algorithms.NewBFS(g.a)),
					core.NewJob(algorithms.NewBFS(g.b)),
					core.NewJob(algorithms.NewSSSP(g.a)),
				}
			}
			shared, _, err := pp.RunMany(context.Background(), jobs())
			if err != nil {
				t.Fatal(err)
			}
			withheld := false
			for i, job := range jobs() {
				solo, _, err := pp.RunMany(context.Background(), core.ProgramSet{job})
				if err != nil {
					t.Fatal(err)
				}
				got, want := shared[i].Stats, solo[0].Stats
				if got.EdgesStreamed != want.EdgesStreamed || got.EdgesSkipped != want.EdgesSkipped ||
					got.PartitionsSkipped != want.PartitionsSkipped || got.TilesSkipped != want.TilesSkipped {
					t.Errorf("%s, threads %d, job %d (%s): shared streamed %d and skipped %d edges, %d partitions, %d tiles; solo %d, %d, %d, %d",
						g.name, threads, i, job.Name(), got.EdgesStreamed, got.EdgesSkipped, got.PartitionsSkipped, got.TilesSkipped,
						want.EdgesStreamed, want.EdgesSkipped, want.PartitionsSkipped, want.TilesSkipped)
				}
				withheld = withheld || want.TilesSkipped > 0
			}
			if !withheld {
				t.Fatalf("%s, threads %d: no job skipped a tile; the workload lost its shape", g.name, threads)
			}
		}
	}
}
