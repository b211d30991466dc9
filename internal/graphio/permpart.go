package graphio

import (
	"repro/internal/core"
	"repro/internal/storage"
)

// SavingPartitioner wraps inner so that the relabeling permutation it plans
// is persisted as a binary permutation file on dev the first time an engine
// calls Assign. Together with LoadPartitioner this lets an expensive
// clustering pass (2PS streams the edge list twice) be paid once per
// dataset: save on the first run, replay on every later one. An identity
// assignment is saved as an explicit identity permutation, so the file
// always exists after a run and loads uniformly.
func SavingPartitioner(inner core.Partitioner, dev storage.Device, name string) core.Partitioner {
	return &savingPartitioner{inner: inner, dev: dev, file: name}
}

type savingPartitioner struct {
	inner core.Partitioner
	dev   storage.Device
	file  string
	saved bool
}

func (s *savingPartitioner) Name() string { return s.inner.Name() }

func (s *savingPartitioner) Assign(src core.EdgeSource, k int) (*core.Assignment, error) {
	asg, err := s.inner.Assign(src, k)
	if err != nil {
		return nil, err
	}
	if s.saved { // engines call Assign once per run; guard re-use anyway
		return asg, nil
	}
	perm := asg.Relabel
	if perm == nil {
		perm = make([]core.VertexID, src.NumVertices())
		for i := range perm {
			perm[i] = core.VertexID(i)
		}
	}
	if err := WritePermutation(s.dev, s.file, perm); err != nil {
		return nil, err
	}
	s.saved = true
	return asg, nil
}

// LoadPartitioner reads a permutation file written by SavingPartitioner (or
// WritePermutation) and returns a partitioner that replays it, skipping the
// clustering passes entirely. The partitioner reports itself as
// "perm:<file>" in stats tables.
func LoadPartitioner(dev storage.Device, name string) (core.Partitioner, error) {
	perm, err := ReadPermutation(dev, name)
	if err != nil {
		return nil, err
	}
	return core.NewPermutationPartitioner("perm:"+name, perm), nil
}
