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
// field Stats lacks; and two PageRank runs of one workload at Threads 4 —
// in memory and out of core — agree on every field classed StatWork.
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
	runs := map[string]func(run int) (core.Stats, error){
		"mem": func(int) (core.Stats, error) {
			res, err := memengine.Run(src, algorithms.NewPageRank(4), memengine.Config{Threads: 4, Partitions: 8})
			if err != nil {
				return core.Stats{}, err
			}
			return res.Stats, nil
		},
		"disk": func(run int) (core.Stats, error) {
			dev := storage.NewSim(storage.SSDParams("stat-classes-"+string(rune('a'+run)), 2, 0))
			res, err := diskengine.Run(src, algorithms.NewPageRank(4), diskengine.Config{
				Device: dev, Threads: 4, IOUnit: 32 << 10, Partitions: 8,
			})
			if err != nil {
				return core.Stats{}, err
			}
			return res.Stats, nil
		},
	}
	for engine, run := range runs {
		a, err := run(0)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		b, err := run(1)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if a.EdgesStreamed == 0 || a.UpdatesSent == 0 {
			t.Fatalf("%s: the workload did no work: %+v", engine, a)
		}
		wa, wb := a.Counters(core.StatWork), b.Counters(core.StatWork)
		if !reflect.DeepEqual(wa, wb) {
			t.Errorf("%s: two runs at Threads 4 disagree on deterministic work:\n %v\n %v", engine, wa, wb)
		}
	}
}
