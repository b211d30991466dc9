package xstream_test

import (
	"bytes"
	"fmt"
	"testing"

	xstream "repro"
	"repro/internal/pod"
	"repro/internal/xstreamtest"
)

// TestPlacementInvisible: where a run's vertex state lives shows in neither
// its results nor its work. PageRank, BFS, WCC, SSSP, SCC and SpMV run in
// memory, out of core with the state resident and out of core with it
// spilled to the vertex files, at the same Partitions and at Threads 1, 2 and
// 4. Every run's vertex states are bit-identical to the in-memory one-thread
// run's, and so are its edges streamed, updates sent and updates combined.
func TestPlacementInvisible(t *testing.T) {
	directed, undirected := xstreamtest.RMAT(10, 57), xstreamtest.RMATUndirected(10, 57)
	checkPlacements(t, "PageRank", directed, func() xstream.Program[xstream.PRState, float32] { return xstream.NewPageRank(5) })
	checkPlacements(t, "BFS", directed, func() xstream.Program[xstream.BFSState, int32] { return xstream.NewBFS(3) })
	checkPlacements(t, "WCC", undirected, func() xstream.Program[xstream.WCCState, xstream.VertexID] { return xstream.NewWCC() })
	checkPlacements(t, "SSSP", directed, func() xstream.Program[xstream.SSSPState, float32] { return xstream.NewSSSP(3) })
	checkPlacements(t, "SCC", directed, func() xstream.Program[xstream.SCCState, uint32] { return xstream.NewSCC() })
	checkPlacements(t, "SpMV", directed, func() xstream.Program[xstream.SpMVState, float32] { return xstream.NewSpMV() })
}

// checkPlacements runs newProg's program on src in every placement at every
// thread count and holds each run to the first.
func checkPlacements[V, M any](t *testing.T, name string, src xstream.EdgeSource, newProg func() xstream.Program[V, M]) {
	t.Helper()
	const k = 4
	var want []byte
	var wantStats xstream.Stats
	for _, threads := range []int{1, 2, 4} {
		var residentRead int64
		for _, placement := range []string{"memory", "disk resident", "disk spilled"} {
			what := fmt.Sprintf("%s %s threads %d", name, placement, threads)
			var verts []V
			var st xstream.Stats
			if placement == "memory" {
				res, err := xstream.RunMemory(src, newProg(), xstream.MemConfig{Threads: threads, Partitions: k})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				verts, st = res.Vertices, res.Stats
			} else {
				cfg := xstreamtest.DiskConfig("placement")
				cfg.Threads, cfg.Partitions = threads, k
				if placement == "disk spilled" {
					cfg.MemoryBudget = 5 * int64(cfg.IOUnit) * k // the stream buffers alone: any state spills
				}
				res, err := xstream.RunDisk(src, newProg(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				verts, st = res.Vertices, res.Stats
				if placement == "disk resident" {
					residentRead = st.BytesRead
				} else if st.BytesRead <= residentRead {
					t.Fatalf("%s: read %d bytes, the resident run %d: the state did not spill", what, st.BytesRead, residentRead)
				}
			}
			got := pod.AsBytes(verts)
			if want == nil {
				if st.EdgesStreamed == 0 || st.UpdatesSent == 0 {
					t.Fatalf("%s: streamed %d edges and sent %d updates", what, st.EdgesStreamed, st.UpdatesSent)
				}
				want, wantStats = bytes.Clone(got), st
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: vertex states differ from the in-memory one-thread run's", what)
			}
			if st.EdgesStreamed != wantStats.EdgesStreamed || st.UpdatesSent != wantStats.UpdatesSent || st.UpdatesCombined != wantStats.UpdatesCombined {
				t.Errorf("%s: %d edges streamed, %d updates sent, %d combined; the in-memory one-thread run %d, %d, %d", what,
					st.EdgesStreamed, st.UpdatesSent, st.UpdatesCombined,
					wantStats.EdgesStreamed, wantStats.UpdatesSent, wantStats.UpdatesCombined)
			}
		}
	}
}
