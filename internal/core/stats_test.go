package core_test

import (
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/diskengine"
	"repro/internal/graphgen"
	"repro/internal/memengine"
	"repro/internal/storage"
)

// TestStatClasses: every Stats field has a class and the table names no
// field Stats lacks; and PageRank runs of one workload at Threads 1, 2 and 4,
// and a second run at 4 — in memory and out of core — agree on every field
// classed StatWork.
func TestStatClasses(t *testing.T) {
	st := reflect.TypeOf(core.Stats{})
	for i := 0; i < st.NumField(); i++ {
		if name := st.Field(i).Name; core.StatClasses[name] == 0 {
			t.Errorf("Stats.%s has no class in core.StatClasses", name)
		}
	}
	for name := range core.StatClasses {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("core.StatClasses classes %s, which is not a Stats field", name)
		}
	}

	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 41})
	runs := map[string]func(run, threads int) (core.Stats, error){
		"mem": func(_, threads int) (core.Stats, error) {
			res, err := memengine.Run(src, algorithms.NewPageRank(4), memengine.Config{Threads: threads, Partitions: 8})
			if err != nil {
				return core.Stats{}, err
			}
			return res.Stats, nil
		},
		"disk": func(run, threads int) (core.Stats, error) {
			dev := storage.NewSim(storage.SSDParams("stat-classes-"+string(rune('a'+run)), 2, 0))
			res, err := diskengine.Run(src, algorithms.NewPageRank(4), diskengine.Config{
				Device: dev, Threads: threads, IOUnit: 32 << 10, Partitions: 8,
			})
			if err != nil {
				return core.Stats{}, err
			}
			return res.Stats, nil
		},
	}
	for engine, run := range runs {
		var want map[string]float64
		for i, threads := range []int{4, 4, 2, 1} {
			s, err := run(i, threads)
			if err != nil {
				t.Fatalf("%s at Threads %d: %v", engine, threads, err)
			}
			if s.EdgesStreamed == 0 || s.UpdatesSent == 0 || s.UpdatesCombined == 0 {
				t.Fatalf("%s at Threads %d: the workload did no work or combined none: %+v", engine, threads, s)
			}
			got := s.Counters(core.StatWork)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: a run at Threads %d disagrees with one at 4 on deterministic work:\n %v\n %v", engine, threads, got, want)
			}
		}
	}
}
