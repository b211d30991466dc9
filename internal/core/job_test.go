package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

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

// faultyTransport fails the calls whose errors jobRun used to drop, and
// counts its closes when closes is set.
type faultyTransport struct {
	UpdateTransport[int32]
	drainErr, endErr error
	closes           *atomic.Int64
}

func (f *faultyTransport) Close() error {
	if f.closes != nil {
		f.closes.Add(1)
	}
	return f.UpdateTransport.Close()
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
		Threads: 4, Plan: plan, UpdateCap: int(n), PrivateBufBytes: 8 * 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ft := &faultyTransport{UpdateTransport: r.tp}
	r.tp = ft
	if err := r.BeginScatter(); err != nil {
		t.Fatal(err)
	}
	sink := r.NewScatter(0, 0)
	if err := sink.Edges(edges); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
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

// rounds is inDegree for a fixed number of iterations; it cancels a context
// when iteration cancelAt starts, if it has one to cancel.
type rounds struct {
	inDegree
	n, cancelAt int
	cancel      context.CancelFunc
}

func (r rounds) StartIteration(iter int) {
	if r.cancel != nil && iter == r.cancelAt {
		r.cancel()
	}
}

func (r rounds) EndIteration(iter int, _ int64, _ VertexView[int32]) bool { return iter+1 >= r.n }

// countedRun is a jobRun whose transport, once set up, is a faultyTransport
// failing Drain with drainErr and counting its closes.
type countedRun struct {
	*jobRun[int32, int32]
	made, closes *atomic.Int64
	drainErr     error
}

func (c *countedRun) Setup(s JobSetup) error {
	if err := c.jobRun.Setup(s); err != nil {
		return err
	}
	c.made.Add(1)
	c.tp = &faultyTransport{UpdateTransport: c.tp, drainErr: c.drainErr, closes: c.closes}
	return nil
}

// TestProgramSetClosesEveryTransport: however a pass over a program set ends
// — done, failed in the middle of an iteration, cancelled, or refused at
// setup — NewRuns and the CloseRuns an engine defers close each run's
// transport exactly once.
func TestProgramSetClosesEveryTransport(t *testing.T) {
	const n, k = 256, 4
	ring := make([]Edge, n)
	for i := range ring {
		ring[i] = Edge{Src: VertexID(i), Dst: VertexID((i + 1) % n)}
	}
	plan, err := streambuf.NewPlan(k, k)
	if err != nil {
		t.Fatal(err)
	}
	setup := JobSetup{
		Assignment: &Assignment{Split: NewSplit(n, k)}, NumVertices: n, NumEdges: n,
		Threads: 2, Plan: plan, UpdateCap: n, PrivateBufBytes: 8 * 8,
	}
	var made, closes atomic.Int64
	job := func(prog rounds, drainErr error) *Job {
		j := NewJob[int32, int32](prog)
		j.newRun = func() JobRun {
			return &countedRun{jobRun: &jobRun[int32, int32]{prog: prog}, made: &made, closes: &closes, drainErr: drainErr}
		}
		return j
	}
	// pass is an engine's iteration loop in miniature: every partition's
	// edges through every live run's sink, then EndAndGather.
	pass := func(ctx context.Context, set ProgramSet) error {
		runs, err := set.NewRuns(setup)
		if err != nil {
			return err
		}
		defer CloseRuns(runs)
		for iter := 0; ; iter++ {
			var live []JobRun
			for _, r := range runs {
				if !r.Done() {
					live = append(live, r)
				}
			}
			if len(live) == 0 {
				break
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			for _, r := range live {
				r.StartIteration(iter)
				if err := r.BeginScatter(); err != nil {
					return err
				}
			}
			for p := 0; p < k; p++ {
				lo, hi := setup.Assignment.Split.Range(p, n)
				for _, r := range live {
					s := r.NewScatter(0, p)
					if err := s.Edges(ring[lo:hi]); err != nil {
						return err
					}
					if err := s.Flush(); err != nil {
						return err
					}
				}
			}
			if _, err := EndAndGather(live, setup.Threads); err != nil {
				return err
			}
			for _, r := range live {
				if err := r.EndIteration(iter); err != nil {
					return err
				}
			}
		}
		_, err = FinishPass(runs, &Stats{}, time.Now())
		return err
	}
	check := func(name string, want int64) {
		t.Helper()
		if m, c := made.Swap(0), closes.Swap(0); m != want || c != want {
			t.Errorf("%s: %d transports made, %d closed, want %d of each", name, m, c, want)
		}
	}

	if err := pass(context.Background(), ProgramSet{job(rounds{n: 3}, nil), job(rounds{n: 5}, nil)}); err != nil {
		t.Fatal(err)
	}
	check("completed pass", 2)

	boom := errors.New("boom")
	if err := pass(context.Background(), ProgramSet{job(rounds{n: 3}, nil), job(rounds{n: 3}, boom)}); !errors.Is(err, boom) {
		t.Fatalf("a pass over a failing transport returned %v, want its error", err)
	}
	check("failed pass", 2)

	ctx, cancel := context.WithCancel(context.Background())
	if err := pass(ctx, ProgramSet{job(rounds{n: 5, cancelAt: 2, cancel: cancel}, nil), job(rounds{n: 5}, nil)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled pass returned %v, want context.Canceled", err)
	}
	check("cancelled pass", 2)

	// The second job is refused at setup; the first one's transport already
	// exists.
	refused := job(rounds{n: 3}, nil)
	refused.check = func() error { return errors.New("refused") }
	if err := pass(context.Background(), ProgramSet{job(rounds{n: 3}, nil), refused}); err == nil {
		t.Fatal("a set with a refused job was accepted")
	}
	check("refused set", 1)
}
