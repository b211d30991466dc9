package diskengine

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/pod"
)

// pushProg sends a value that depends on the edge and its source's state over
// most edges, so a kernel that mixes up vertices, values or the ok flag shows.
type pushProg struct{}

func (pushProg) Name() string                              { return "push-test" }
func (pushProg) Init(id core.VertexID, v *int32)           { *v = int32(id%13) + 1 }
func (pushProg) Gather(_ core.VertexID, v *int32, m int32) { *v += m }
func (pushProg) Scatter(e core.Edge, src *int32) (int32, bool) {
	return *src + int32(e.Dst%5), (e.Src+e.Dst)%7 != 0
}

type pushCombProg struct{ pushProg }

func (pushCombProg) Combine(a, b int32) int32 { return a + b }

// pushOpProg declares its Combine to be core.CombineSum and panics when
// called through the func value, so a caller that does not merge inline shows.
type pushOpProg struct{ pushProg }

func (pushOpProg) Combine(a, b int32) int32  { panic("merged through the func value, not inline") }
func (pushOpProg) CombineOp() core.CombineOp { return core.CombineSum }

// pushBlockProg is pushOpProg scattering a block per call.
type pushBlockProg struct{ pushOpProg }

func (pushBlockProg) ScatterBlock(blk []core.Edge, verts []int32, base core.VertexID, out []core.Update[int32]) int {
	n := 0
	for _, e := range blk {
		out[n] = core.Update[int32]{Dst: e.Dst, Val: verts[e.Src-base] + int32(e.Dst%5)}
		if (e.Src+e.Dst)%7 != 0 {
			n++
		}
	}
	return n
}

// scatterPartitions drives e's sink over every partition of pp as the pass
// does — NewScatter, Edges per read chunk, Flush — and returns the counts it
// tallied.
func scatterPartitions(t *testing.T, e *probedRun, pp *Prepared) core.ScatterCounts {
	t.Helper()
	for p := 0; p < pp.k; p++ {
		edges := partitionEdges(t, pp, p)
		sink := e.NewScatter(0, p)
		for off := 0; off < len(edges); off += pp.bufEdgeRecs {
			if err := sink.Edges(edges[off:min(off+pp.bufEdgeRecs, len(edges))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	n := *e.it
	*e.it = core.ScatterCounts{}
	return n
}

// memSink runs prog's in-memory sink — the per-worker sink of a run set up
// by pp as the in-memory engine sets its runs up, lent no stores — through one
// scatter of every partition and one gather, and returns the gathered vertex
// states and the run's stats.
func memSink(t *testing.T, pp *Prepared, prog core.Program[int32, int32]) ([]int32, core.Stats) {
	t.Helper()
	run := core.NewJob(prog).NewRun()
	defer run.Close()
	setup := pp.jobSetup(nil, 1)
	setup.Spill, setup.UpdateCap = nil, int(pp.ne)
	if err := run.Setup(setup); err != nil {
		t.Fatal(err)
	}
	if err := run.BeginScatter(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pp.k; p++ {
		edges := partitionEdges(t, pp, p)
		ms := run.NewScatter(0, p)
		if err := ms.Edges(edges); err != nil {
			t.Fatal(err)
		}
		if err := ms.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.EndScatter(); err != nil {
		t.Fatal(err)
	}
	if err := run.Gather(1); err != nil {
		t.Fatal(err)
	}
	verts, st, err := run.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return verts.([]int32), st
}

// memSequence is the record sequence the in-memory sink emits over pp's
// partitions: per partition one kernel task Begun on the whole vertex array,
// fed the partition's edges and ended, as core's jobScatter runs it, into a
// transport that keeps what it is sent.
func memSequence(t *testing.T, pp *Prepared, prog core.Program[int32, int32]) []core.Update[int32] {
	t.Helper()
	combine, op := core.Combining(prog, false)
	tp := &stubTransport[int32]{keep: true}
	k := core.NewScatterKernel(prog, tp, combine, op, core.DefaultPrivateBufBytes/pod.Size[core.Update[int32]](), pp.nv)
	verts := make([]int32, pp.nv)
	for v := range verts {
		prog.Init(core.VertexID(v), &verts[v])
	}
	for p := 0; p < pp.k; p++ {
		edges := partitionEdges(t, pp, p)
		k.Begin(p, pp.part, verts, 0)
		k.Edges(edges)
		if _, err := k.End(); err != nil {
			t.Fatal(err)
		}
	}
	return tp.recs
}

// taskDestinations is the number of distinct destinations prog sends
// updates to from each of pp's partitions, summed over them.
func taskDestinations(t *testing.T, pp *Prepared, prog core.Program[int32, int32]) int64 {
	t.Helper()
	var n int64
	for p := 0; p < pp.k; p++ {
		dsts := map[core.VertexID]bool{}
		for _, ed := range partitionEdges(t, pp, p) {
			var src int32
			prog.Init(ed.Src, &src)
			if _, ok := prog.Scatter(ed, &src); ok {
				dsts[ed.Dst] = true
			}
		}
		n += int64(len(dsts))
	}
	return n
}

// spreadGraph is src with vertex v renamed v·stride, over stride times as
// many vertices: the same edges and, under range partitioning into a
// partition count dividing src's vertex count, the same partitions, over a
// destination range stride times wider.
func spreadGraph(t *testing.T, src core.EdgeSource, stride int64) core.EdgeSource {
	t.Helper()
	var edges []core.Edge
	if err := src.Edges(func(batch []core.Edge) error {
		for _, ed := range batch {
			edges = append(edges, core.Edge{Src: ed.Src * core.VertexID(stride), Dst: ed.Dst * core.VertexID(stride)})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return core.NewSliceSource(edges, src.NumVertices()*stride)
}

// pastBoundGraph is src spread (spreadGraph) by the smallest stride that
// makes its int32 destinations too many for the dense accumulator, so the
// scatter kernels of runs over it append plainly even for a Combiner.
func pastBoundGraph(t *testing.T, src core.EdgeSource) core.EdgeSource {
	t.Helper()
	stride := int64(2)
	for core.DenseCombines[int32](src.NumVertices() * stride) {
		stride++
	}
	return spreadGraph(t, src, stride)
}

// TestMemSinkAndDiskSinkShareTheKernel: the in-memory engine's per-worker
// sink and the out-of-core engine's window sink are two callers of one
// kernel, which at Threads 1 both keep open for a whole partition. So from the same edges they
// account the same (sent, cross, combined), emit the same record sequence —
// the disk sink's sent straight into a transport whose window fills and
// flushes while the sink scatters and sweeps, which may reorder no record —
// and deliver the same total to every destination: with
// and without a Combiner, and with a Combiner that declares an op, which both
// must merge inline. Each Combiner row runs over the RMAT graph, whose
// destinations fit the dense accumulator, and over the graph spread until
// they do not (pastBoundGraph), where the kernel appends plainly and
// combines nothing. The block rows scatter through a core.BlockScatterer,
// whose kernel must emit the per-edge kernel's record sequence exactly.
func TestMemSinkAndDiskSinkShareTheKernel(t *testing.T) {
	rmat := graphgen.RMAT(graphgen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 20})
	spread := pastBoundGraph(t, rmat)
	for _, c := range []struct {
		name                      string
		combine, op, dense, block bool
	}{
		{"plain", false, false, true, false},
		{"combine dense", true, false, true, false}, {"combine op dense", true, true, true, false},
		{"combine past the bound", true, false, false, false}, {"combine op past the bound", true, true, false, false},
		{"block dense", true, true, true, true}, {"block past the bound", true, true, false, true},
	} {
		cfg := Config{Device: ssd(0), Threads: 1, Partitions: 4, IOUnit: 64 << 10, Prefix: c.name}
		var prog core.Program[int32, int32] = pushProg{}
		if c.block {
			prog = pushBlockProg{}
		} else if c.op {
			prog = pushOpProg{}
		} else if c.combine {
			prog = pushCombProg{}
		}
		src := rmat
		if !c.dense {
			src = spread
		}
		if core.DenseCombines[int32](src.NumVertices()) != c.dense {
			t.Fatalf("%s: %d destinations do not select the representation the row names", c.name, src.NumVertices())
		}
		disk := &stubTransport[int32]{keep: true, window: 1000}
		e, pp := setupRun(t, src, prog, cfg, disk)
		if !pp.asg.Identity() {
			t.Fatalf("%s: range partitioning planned a relabeling", c.name)
		}
		n := scatterPartitions(t, e, pp)
		got, st := memSink(t, pp, prog)
		seq := memSequence(t, pp, prog)

		if n.Sent == 0 || n.Sent == n.Streamed || n.Cross == 0 || (n.Combined > 0) != (c.combine && c.dense) {
			t.Fatalf("%s: workload lost its shape: %+v", c.name, n)
		}
		if disk.flushes == 0 {
			t.Fatalf("%s: the disk sink's window never filled", c.name)
		}
		if n.Combined != n.Sent-int64(len(disk.recs)) {
			t.Errorf("%s: disk sink combined %d of %d sent but emitted %d", c.name, n.Combined, n.Sent, len(disk.recs))
		}
		memEmitted := st.TransportBytes / int64(pod.Size[core.Update[int32]]())
		memCounts := core.ScatterCounts{
			Streamed: st.EdgesStreamed, Sent: st.UpdatesSent, Cross: st.CrossPartitionUpdates,
			Combined: st.UpdatesSent - memEmitted,
		}
		if memCounts != n {
			t.Errorf("%s: mem sink counted %+v, disk sink %+v", c.name, memCounts, n)
		}
		// A combining task emits exactly a record per destination; one past
		// the bound every update it sends.
		if perTask := taskDestinations(t, pp, prog); c.combine && c.dense != (int64(len(disk.recs)) == perTask) {
			t.Fatalf("%s: emitted %d records for %d destinations of partition tasks", c.name, len(disk.recs), perTask)
		}
		if memEmitted != int64(len(disk.recs)) || len(seq) != len(disk.recs) {
			t.Fatalf("%s: mem sink emitted %d updates (one task per partition: %d), disk sink %d", c.name, memEmitted, len(seq), len(disk.recs))
		}
		for i := range seq {
			if seq[i] != disk.recs[i] {
				t.Fatalf("%s: record %d: one task per partition emits %+v, the disk sink %+v", c.name, i, seq[i], disk.recs[i])
			}
		}
		if c.block {
			if perEdge := memSequence(t, pp, pushOpProg{}); !slices.Equal(perEdge, seq) {
				t.Fatalf("%s: the block hook's kernel emitted %d records, the per-edge kernel's %d or others", c.name, len(seq), len(perEdge))
			}
		}
		// The mem run gathered its stream onto Init's states; the disk
		// sink's records, summed per destination, must account for every
		// vertex's difference.
		want := make([]int32, len(got))
		for v := range want {
			prog.Init(core.VertexID(v), &want[v])
		}
		for _, u := range disk.recs {
			want[u.Dst] += u.Val
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: vertex %d gathered to %d from the mem sink, %d from the disk sink's updates", c.name, v, got[v], want[v])
			}
		}
	}
}
