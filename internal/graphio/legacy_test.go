package graphio_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graphgen"
	"repro/internal/graphio"
	"repro/internal/partition2ps"
	"repro/internal/storage"
)

// TestLegacyPermutationFilesReplanned: ReadPermutation rejects every
// earlier revision of the permutation file (TestPermutationVersionCompat),
// so a dataset whose persisted plan is such a file — version 1, version 2
// with or without a hub list, version 3 with the hub-list flag — plans
// again and rewrites the file in the current format instead of replaying
// the old permutation.
func TestLegacyPermutationFilesReplanned(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 71, Undirected: true})
	n := src.NumVertices()
	planted := make([]core.VertexID, n)
	for i := range planted {
		planted[i] = core.VertexID(n) - 1 - core.VertexID(i)
	}
	// A Dataset plans at K = 64 when MemPartitions is at most 64.
	want, err := partition2ps.New().Assign(src, 64)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"v1":            graphio.LegacyPerm(1, planted, nil),
		"v2":            graphio.LegacyPerm(2, planted, []core.VertexID{0, 2}),
		"v2-empty-hubs": graphio.LegacyPerm(2, planted, []core.VertexID{}),
		"v3-hubs":       graphio.LegacyPerm(3, planted, []core.VertexID{0, 2}),
		"v3-empty-hubs": graphio.LegacyPerm(3, planted, []core.VertexID{}),
	}
	for name, b := range files {
		dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
		const plan = "xserve-g-2ps.xsperm" // the registry's plan file for dataset g under 2ps
		graphio.PutFile(t, dev, plan, b)
		r := dataset.NewRegistry()
		d, err := r.Add("g", src, dataset.Options{Partitioner: "2ps", Device: dev, Threads: 2, MemPartitions: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Mem(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.Close()
		rewritten := graphio.ReadFile(t, dev, plan)
		if !bytes.HasPrefix(rewritten, []byte("XSPERM3\n")) || binary.LittleEndian.Uint64(rewritten[16:]) != 0 {
			t.Fatalf("%s: plan file not rewritten in the current format: header %x", name, rewritten[:24])
		}
		got, err := graphio.ReadPermutation(dev, plan)
		if err != nil {
			t.Fatalf("%s: rewritten plan: %v", name, err)
		}
		if !slices.Equal(got, want.Relabel) {
			t.Fatalf("%s: rewritten plan is not 2PS's plan for the source", name)
		}
	}
}
