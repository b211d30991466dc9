package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/streambuf"
	"repro/internal/transport/conformance"
)

// TestShuffleTransportConformance pins the builtin in-memory shuffle —
// the transport the solo in-memory engine and the shared-pass job runner
// use — to the UpdateTransport contract.
func TestShuffleTransportConformance(t *testing.T) {
	conformance.Run(t, conformance.Maker{
		Name: "shuffle",
		New: func(t *testing.T, k int, nv int64, capacity, threads int, combine bool) core.UpdateTransport[int64] {
			split := core.NewSplit(nv, k)
			plan, err := streambuf.NewPlan(k, k)
			if err != nil {
				t.Fatalf("NewPlan: %v", err)
			}
			var folder *streambuf.Folder[core.Update[int64]]
			if combine {
				folder = core.NewUpdateFolder(split, threads, func(a, b int64) int64 { return a + b })
			}
			key := func(u core.Update[int64]) uint32 { return split.Of(u.Dst) }
			return core.NewShuffleTransport(capacity, plan, threads, key, folder)
		},
	})
}

// TestShuffleTransportHoldsTwoWindows is the no-regression guard of the
// in-memory runs' peak RSS: a transport without a spill store allocates its
// two window buffers and nothing of their size besides, and a Send starts
// no write goroutine, across iterations that fill the window; a batch past
// the window is refused, and Err names the capacity.
func TestShuffleTransportHoldsTwoWindows(t *testing.T) {
	const (
		k        = 8
		nv       = 1 << 12
		capacity = 1 << 18
	)
	split := core.NewSplit(nv, k)
	plan, err := streambuf.NewPlan(k, k)
	if err != nil {
		t.Fatal(err)
	}
	key := func(u core.Update[int64]) uint32 { return split.Of(u.Dst) }
	batch := make([]core.Update[int64], capacity/4)
	for i := range batch {
		batch[i] = core.Update[int64]{Dst: core.VertexID(i % nv), Val: 1}
	}
	window := uint64(capacity * pod.Size[core.Update[int64]]())
	goroutines := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tp := core.NewShuffleTransport(capacity, plan, 2, key, nil)
	for iter := 0; iter < 3; iter++ {
		for i := 0; i < 4; i++ {
			if !tp.Send(i, batch) {
				t.Fatalf("iteration %d: Send refused a batch within the window: %v", iter, tp.Err())
			}
		}
		if iter == 0 {
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Fatalf("%d goroutines after a full window of Sends, %d before the transport", n, goroutines)
			}
		}
		if tp.Send(0, batch[:1]) {
			t.Fatalf("iteration %d: Send accepted a record past the window", iter)
		}
		if err := tp.Err(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("capacity %d records", capacity)) {
			t.Fatalf("iteration %d: a refused Send's reason does not name the capacity: %v", iter, err)
		}
		flow, err := tp.Seal()
		if err != nil || flow.Delivered != capacity {
			t.Fatalf("iteration %d: Seal delivered %d of %d: %v", iter, flow.Delivered, capacity, err)
		}
		var drained int64
		for p := 0; p < k; p++ {
			if err := tp.Drain(p, func(run []core.Update[int64]) error { drained += int64(len(run)); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if drained != capacity {
			t.Fatalf("iteration %d: drained %d of %d", iter, drained, capacity)
		}
		if err := tp.EndIteration(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	tp.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got < 2*window || got >= 3*window {
		t.Fatalf("three iterations allocated %d bytes, want two %d-byte windows", got, window)
	}
}
