package diskengine

import (
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

// TestMemSinkAndDiskRangeShareTheKernel: the in-memory run's partition sink
// and the spillable run's scatter range are two callers of one kernel, so
// from the same edges they account the same (sent, cross, combined, synced),
// put the same number of records into their transports and deliver the same
// total to every destination — with and without a Combiner, with and without
// a mirror set (which a program without a Combiner must ignore), and with a
// Combiner that declares an op, which both must merge inline.
func TestMemSinkAndDiskRangeShareTheKernel(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 20})
	for _, c := range []struct {
		name                string
		combine, op, mirror bool
	}{{"plain", false, false, false}, {"combine", true, false, false}, {"combine op", true, true, false},
		{"combine+mirrors", true, false, true}, {"mirrors ignored", false, false, true}} {
		cfg := Config{Device: ssd(0), Threads: 1, Partitions: 4, IOUnit: 64 << 10, Prefix: c.name}
		if c.mirror {
			cfg.Partitioner = core.NewReplicatingPartitioner(core.RangePartitioner{}, core.ReplicationConfig{})
		}
		var prog core.Program[int32, int32] = pushProg{}
		if c.op {
			prog = pushOpProg{}
		} else if c.combine {
			prog = pushCombProg{}
		}
		disk := &stubTransport[int32]{keep: true}
		e, pp := setupEngine(t, src, prog, cfg, disk)
		if got := pp.asg.Mirrors.Len() > 0; got != c.mirror || !pp.asg.Identity() {
			t.Fatalf("%s: mirror set planned: %v, identity relabeling: %v", c.name, got, pp.asg.Identity())
		}
		run := core.NewJob(prog).NewRun()
		if err := run.Setup(pp.jobSetup()); err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		if err := run.BeginScatter(); err != nil {
			t.Fatal(err)
		}

		var n core.ScatterCounts
		for p := 0; p < pp.k; p++ {
			edges := partitionEdges(t, pp, p)
			if len(edges) < basePrivCap {
				t.Fatalf("partition %d has %d edges: a range shorter than the base window combines in a narrower one than the sink", p, len(edges))
			}
			sink := e.NewScatter(0, p, int64(len(edges))).(*soloScatter[int32, int32])
			dn, err := e.scatterRange(0, edges, sink.verts, sink.lo, p, sink.window)
			if err != nil {
				t.Fatal(err)
			}
			n.Add(dn)
			ms := run.NewScatter(0, p, int64(len(edges)))
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

		if n.Sent == 0 || n.Sent == n.Streamed || n.Cross == 0 || (n.Combined > 0) != c.combine || (n.Synced > 0) != (c.combine && c.mirror) {
			t.Fatalf("%s: workload lost its shape: %+v", c.name, n)
		}
		if n.Combined != n.Sent-int64(len(disk.recs)) {
			t.Errorf("%s: disk range combined %d of %d sent but emitted %d", c.name, n.Combined, n.Sent, len(disk.recs))
		}
		memEmitted := st.TransportBytes / int64(pod.Size[core.Update[int32]]())
		memCounts := core.ScatterCounts{
			Streamed: st.EdgesStreamed, Sent: st.UpdatesSent, Cross: st.CrossPartitionUpdates,
			Combined: st.UpdatesSent - memEmitted, Synced: st.MirrorSyncUpdates,
		}
		if memCounts != n {
			t.Errorf("%s: mem sink counted %+v, disk range %+v", c.name, memCounts, n)
		}
		if memEmitted != int64(len(disk.recs)) {
			t.Errorf("%s: mem sink emitted %d updates, disk range %d", c.name, memEmitted, len(disk.recs))
		}
		// The mem run gathered its stream onto Init's states; the disk
		// range's records, summed per destination, must account for every
		// vertex's difference.
		got := verts.([]int32)
		want := make([]int32, len(got))
		for v := range want {
			prog.Init(core.VertexID(v), &want[v])
		}
		for _, u := range disk.recs {
			want[u.Dst] += u.Val
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: vertex %d gathered to %d from the mem sink, %d from the disk range's updates", c.name, v, got[v], want[v])
			}
		}
	}
}
