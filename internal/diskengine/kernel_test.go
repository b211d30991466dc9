package diskengine

import (
	"encoding/binary"
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

// frameLog is a core.Exchange that decodes and keeps every update sent
// through it, and delivers the frames so the iteration can be sealed.
type frameLog struct {
	frames [][][]byte
	recs   []core.Update[int32]
}

func (x *frameLog) Send(dst int, frame []byte) error {
	recs := make([]core.Update[int32], binary.LittleEndian.Uint32(frame[8:]))
	copy(pod.AsBytes(recs), frame[16:])
	x.recs = append(x.recs, recs...)
	x.frames[dst] = append(x.frames[dst], slices.Clone(frame))
	return nil
}

func (x *frameLog) Drain(dst int, fn func([]byte) error) error {
	for _, f := range x.frames[dst] {
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func (x *frameLog) Close() error { return nil }

// TestMemSinkAndDiskRangeShareTheKernel: the in-memory run's partition sink
// and the spillable run's scatter range are two callers of one kernel, so
// from the same edges they account the same (sent, cross, combined, synced)
// and put the same multiset of updates into their transports — with and
// without a Combiner, with and without a mirror set (which a program without
// a Combiner must ignore).
func TestMemSinkAndDiskRangeShareTheKernel(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 20})
	byDst := func(a, b core.Update[int32]) int {
		if a.Dst != b.Dst {
			return int(a.Dst) - int(b.Dst)
		}
		return int(a.Val) - int(b.Val)
	}
	for _, c := range []struct {
		name            string
		combine, mirror bool
	}{{"plain", false, false}, {"combine", true, false}, {"combine+mirrors", true, true}, {"mirrors ignored", false, true}} {
		cfg := Config{Device: ssd(0), Threads: 1, Partitions: 4, IOUnit: 64 << 10, Prefix: c.name}
		if c.mirror {
			cfg.Partitioner = core.NewReplicatingPartitioner(core.RangePartitioner{}, core.ReplicationConfig{})
		}
		var prog core.Program[int32, int32] = pushProg{}
		if c.combine {
			prog = pushCombProg{}
		}
		disk := &stubTransport[int32]{keep: true}
		e, pp := setupEngine(t, src, prog, cfg, disk)
		if got := pp.asg.Mirrors.Len() > 0; got != c.mirror {
			t.Fatalf("%s: mirror set planned: %v", c.name, got)
		}
		mem := &frameLog{frames: make([][][]byte, pp.k)}
		setup := pp.jobSetup()
		setup.Exchange = func(int) core.Exchange { return mem }
		run := core.NewJob(prog).NewRun()
		if err := run.Setup(setup); err != nil {
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
			n.Add(e.scatterRange(0, edges, sink.verts, sink.lo, p, sink.window))
			ms := run.NewScatter(0, p, int64(len(edges)))
			ms.Edges(edges)
			ms.Flush()
		}
		if err := run.EndScatter(); err != nil {
			t.Fatal(err)
		}
		_, st, err := run.Finalize()
		if err != nil {
			t.Fatal(err)
		}

		if n.Sent == 0 || n.Sent == n.Streamed || n.Cross == 0 || (n.Combined > 0) != c.combine || (n.Synced > 0) != (c.combine && c.mirror) {
			t.Fatalf("%s: workload lost its shape: %+v", c.name, n)
		}
		if n.Combined != n.Sent-int64(len(disk.recs)) {
			t.Errorf("%s: disk range combined %d of %d sent but emitted %d", c.name, n.Combined, n.Sent, len(disk.recs))
		}
		memCounts := core.ScatterCounts{
			Streamed: st.EdgesStreamed, Sent: st.UpdatesSent, Cross: st.CrossPartitionUpdates,
			Combined: st.UpdatesSent - int64(len(mem.recs)), Synced: st.MirrorSyncUpdates,
		}
		if memCounts != n {
			t.Errorf("%s: mem sink counted %+v, disk range %+v", c.name, memCounts, n)
		}
		slices.SortFunc(disk.recs, byDst)
		slices.SortFunc(mem.recs, byDst)
		if !slices.Equal(mem.recs, disk.recs) {
			t.Errorf("%s: mem sink emitted %d updates, disk range %d, and they differ as multisets", c.name, len(mem.recs), len(disk.recs))
		}
	}
}
