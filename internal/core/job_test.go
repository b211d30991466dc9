package core

import (
	"errors"
	"testing"

	"repro/internal/streambuf"
)

// inDegree counts in-edges: every edge sends 1, gather adds. No Combiner,
// so the gather sees one update per edge.
type inDegree struct{}

func (inDegree) Name() string                                    { return "in-degree" }
func (inDegree) Init(_ VertexID, v *int32)                       { *v = 0 }
func (inDegree) Scatter(Edge, *int32) (int32, bool)              { return 1, true }
func (inDegree) Gather(_ VertexID, v *int32, m int32)            { *v += m }
func (inDegree) EndIteration(int, int64, VertexView[int32]) bool { return true }

// faultyTransport fails the calls whose errors jobRun used to drop.
type faultyTransport struct {
	UpdateTransport[int32]
	drainErr, endErr error
}

func (f *faultyTransport) Drain(p int, fn func([]Update[int32]) error) error {
	if f.drainErr != nil {
		return f.drainErr
	}
	return f.UpdateTransport.Drain(p, fn)
}

func (f *faultyTransport) EndIteration() error {
	if f.endErr != nil {
		return f.endErr
	}
	return f.UpdateTransport.EndIteration()
}

// scatteredRun returns a set-up run of inDegree over a ring of n vertices
// whose first iteration has been scattered, and the transport seam to
// break.
func scatteredRun(t *testing.T, n int64, k int) (*jobRun[int32, int32], *faultyTransport) {
	t.Helper()
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(i), Dst: VertexID((int64(i) + 1) % n)}
	}
	plan, err := streambuf.NewPlan(k, k)
	if err != nil {
		t.Fatal(err)
	}
	r := NewJob[int32, int32](inDegree{}).NewRun().(*jobRun[int32, int32])
	err = r.Setup(JobSetup{
		Assignment: &Assignment{Split: NewSplit(n, k)}, NumVertices: n, NumEdges: n,
		Threads: 4, Plan: plan, UpdateCap: int(n), PrivateBufRecs: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ft := &faultyTransport{UpdateTransport: r.tp}
	r.tp = ft
	if err := r.BeginScatter(); err != nil {
		t.Fatal(err)
	}
	sink := r.NewScatter(0, 0, n)
	sink.Edges(edges)
	sink.Flush()
	return r, ft
}

// TestGatherReportsTransportErrors: a failing Drain or EndIteration fails
// the iteration through EndAndGather, and a failing release fails the next
// BeginScatter — none of them is swallowed.
func TestGatherReportsTransportErrors(t *testing.T) {
	boom := errors.New("boom")

	r, _ := scatteredRun(t, 1000, 8)
	if _, err := EndAndGather([]JobRun{r}, 4); err != nil {
		t.Fatal(err)
	}
	for v, d := range r.verts {
		if d != 1 {
			t.Fatalf("vertex %d has in-degree %d on a ring", v, d)
		}
	}

	r, ft := scatteredRun(t, 1000, 8)
	ft.drainErr = boom
	if _, err := EndAndGather([]JobRun{r}, 4); !errors.Is(err, boom) {
		t.Errorf("a failing Drain surfaced as %v", err)
	}

	r, ft = scatteredRun(t, 1000, 8)
	ft.endErr = boom
	if _, err := EndAndGather([]JobRun{r}, 1); !errors.Is(err, boom) {
		t.Errorf("a failing EndIteration in Gather surfaced as %v", err)
	}
	if err := r.BeginScatter(); !errors.Is(err, boom) {
		t.Errorf("a failing EndIteration in BeginScatter surfaced as %v", err)
	}

	// Among co-scheduled jobs one failure fails the pass.
	ok, _ := scatteredRun(t, 1000, 8)
	bad, ft := scatteredRun(t, 1000, 8)
	ft.drainErr = boom
	if _, err := EndAndGather([]JobRun{ok, bad}, 4); !errors.Is(err, boom) {
		t.Errorf("a failing Drain among two jobs surfaced as %v", err)
	}
}

// gatherSpy records the worker count EndAndGather hands a job.
type gatherSpy struct {
	JobRun
	workers int
}

func (g *gatherSpy) EndScatter() error { return nil }
func (g *gatherSpy) Gather(workers int) error {
	g.workers = workers
	return nil
}

// TestEndAndGatherSplitsThreads: a job gathers on the threads it has to
// itself — all of them alone, an equal share among co-scheduled jobs,
// never fewer than one.
func TestEndAndGatherSplitsThreads(t *testing.T) {
	for _, c := range []struct{ jobs, threads, want int }{
		{1, 8, 8}, {1, 1, 1}, {2, 8, 4}, {3, 8, 2}, {4, 2, 1}, {2, 0, 1},
	} {
		live := make([]JobRun, c.jobs)
		for i := range live {
			live[i] = &gatherSpy{}
		}
		if _, err := EndAndGather(live, c.threads); err != nil {
			t.Fatal(err)
		}
		for _, r := range live {
			if got := r.(*gatherSpy).workers; got != c.want {
				t.Errorf("%d jobs on %d threads: a job gathers on %d workers, want %d", c.jobs, c.threads, got, c.want)
			}
		}
	}
}

// TestCloseIsIdempotent: Close is safe before Setup, after a failed pass
// and after Finalize.
func TestCloseIsIdempotent(t *testing.T) {
	NewJob[int32, int32](inDegree{}).NewRun().Close()
	r, _ := scatteredRun(t, 100, 4)
	r.Close()
	r.Close()
	if _, _, err := r.Finalize(); err != nil {
		t.Fatal(err)
	}
	r.Close()
}
