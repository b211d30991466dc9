package xstream_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	xstream "repro"
)

// degreeProbe keeps, as each vertex's state, the out-degree the engine hands
// InitDegree, and sends nothing, so a run ends after one iteration.
type degreeProbe struct{}

func (degreeProbe) Name() string                   { return "degree-probe" }
func (degreeProbe) Init(xstream.VertexID, *uint32) {}
func (degreeProbe) InitDegree(_ xstream.VertexID, outDegree uint32, v *uint32) {
	*v = outDegree
}
func (degreeProbe) Scatter(xstream.Edge, *uint32) (uint32, bool) { return 0, false }
func (degreeProbe) Gather(xstream.VertexID, *uint32, uint32)     {}

// TestOutDegreesExact: the out-degree every engine hands a DegreeInit program
// is the number of edge records with the vertex as source — self-loops and
// duplicates counted — in memory and out of core, with the state resident and
// spilled, over raw and compressed tiles, under the range and 2PS
// partitioners, at K 1, 4 and 16. One graph leaves its top vertices without
// out-edges, so a range partition's edge file is empty; another has fewer
// vertices than partitions, so partitions own no vertex at all.
func TestOutDegreesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const nv = 1000
	var edges []xstream.Edge
	for range 6000 {
		src := xstream.VertexID(rng.Intn(700)) // [700, 1000) sends nothing
		edges = append(edges, xstream.Edge{Src: src, Dst: xstream.VertexID(rng.Intn(nv))})
	}
	for v := xstream.VertexID(0); v < 50; v++ {
		edges = append(edges, xstream.Edge{Src: v, Dst: v})               // a self-loop
		edges = append(edges, edges[rng.Intn(len(edges))], edges[int(v)]) // duplicates
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	tiny := []xstream.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 2, Dst: 2}, {Src: 4, Dst: 0}}
	graphs := []struct {
		name  string
		edges []xstream.Edge
		nv    int64
	}{{"skewed", edges, nv}, {"tiny", tiny, 5}}

	for _, g := range graphs {
		want := make([]uint32, g.nv)
		for _, ed := range g.edges {
			want[ed.Src]++
		}
		src := xstream.NewSliceSource(g.edges, g.nv)
		for _, pname := range []string{"range", "2ps"} {
			for _, k := range []int{1, 4, 16} {
				for _, placement := range []string{"memory", "disk resident", "disk spilled", "disk compressed", "disk compressed spilled"} {
					what := fmt.Sprintf("%s/%s/K %d/%s", g.name, pname, k, placement)
					cfg := xstream.Config{Threads: 2, Partitions: k}
					if pname == "2ps" {
						cfg.Partitioner = xstream.New2PSPartitioner()
					}
					var got []uint32
					if placement == "memory" {
						res, err := xstream.RunMemory[uint32, uint32](src, degreeProbe{}, cfg)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						got = res.Vertices
					} else {
						cfg.Device = xstream.NewSimDevice(xstream.SimSSD("degrees", 2, 0))
						cfg.IOUnit = 4 << 10
						cfg.CompressTiles = placement == "disk compressed" || placement == "disk compressed spilled"
						if placement == "disk spilled" || placement == "disk compressed spilled" {
							cfg.MemoryBudget = 5 * int64(cfg.IOUnit) * int64(k) // the stream buffers alone: the state spills
						}
						res, err := xstream.RunDisk[uint32, uint32](src, degreeProbe{}, cfg)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						got = res.Vertices
						if res.Stats.BytesRead < 4*g.nv {
							t.Fatalf("%s: read %d bytes, fewer than the %d of the degree files", what, res.Stats.BytesRead, 4*g.nv)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: out-degrees %v, want %v", what, head(got), head(want))
					}
				}
			}
		}
	}
}

// head returns at most the first 16 entries of s, for failure messages.
func head(s []uint32) []uint32 { return s[:min(len(s), 16)] }
