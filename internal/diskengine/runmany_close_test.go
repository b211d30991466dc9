package diskengine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// downExchange refuses every frame and counts how often it is closed.
type downExchange struct{ closed *atomic.Int64 }

var errWireDown = errors.New("wire down")

func (downExchange) Send(int, []byte) error              { return errWireDown }
func (downExchange) Drain(int, func([]byte) error) error { return nil }
func (x downExchange) Close() error                      { x.closed.Add(1); return nil }

// TestSharedPassClosesTransportsOnFailure: a shared pass that fails in its
// first iteration, or is cancelled before it, still closes each run's
// transport — once. Finalize, which a failed pass never reaches, used to
// be the only place that did.
func TestSharedPassClosesTransportsOnFailure(t *testing.T) {
	var made, closed atomic.Int64
	pp, err := Prepare(graphgen.Chain(256, 1), Config{
		Device: ssd(0), Threads: 2, Partitions: 4, IOUnit: 16 << 10,
		Exchange: func(int) core.Exchange { made.Add(1); return downExchange{&closed} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	set := func() core.ProgramSet {
		return core.ProgramSet{core.NewJob[bfsState, int32](&bfsProg{root: 0}), core.NewJob[bfsState, int32](&bfsProg{root: 9})}
	}

	if _, _, err := pp.RunMany(context.Background(), set()); !errors.Is(err, errWireDown) {
		t.Fatalf("a pass over a dead exchange returned %v, want the wire error", err)
	}
	if m, c := made.Swap(0), closed.Swap(0); m != 2 || c != 2 {
		t.Errorf("failed pass: %d exchanges made, %d closed, want 2 of each", m, c)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pp.RunMany(ctx, set()); !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled pass returned %v, want context.Canceled", err)
	}
	if m, c := made.Swap(0), closed.Swap(0); m != 2 || c != 2 {
		t.Errorf("cancelled pass: %d exchanges made, %d closed, want 2 of each", m, c)
	}
}
