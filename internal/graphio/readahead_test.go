package graphio

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/storage"
)

// readAheadSource writes an RMAT-10 graph (8 192 records) to a fresh
// device and opens it with 256-record chunks: 32 batches a stream.
func readAheadSource(t *testing.T) (*FileSource, []core.Edge) {
	t.Helper()
	dev := testDev(t)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 5})
	if err := WriteEdges(dev, "g", src); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenEdges(dev, "g")
	if err != nil {
		t.Fatal(err)
	}
	fs.ChunkEdges = 256
	want, _ := core.Materialize(src)
	return fs, want
}

// settleGoroutines waits for the goroutine count to fall back to base:
// Edges returns once its reader has closed the ready channel, a few
// instructions before the runtime retires the goroutine.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Edges returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadStopsOnFnError: an error from fn on batch 3 is what Edges
// returns, no batch follows it, and the reader goroutine is gone.
func TestReadAheadStopsOnFnError(t *testing.T) {
	fs, _ := readAheadSource(t)
	stop := errors.New("stop")
	base := runtime.NumGoroutine()
	calls := 0
	err := fs.Edges(func([]core.Edge) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 3 {
		t.Fatalf("Edges returned %v after %d batches, want %v after 3", err, calls, stop)
	}
	settleGoroutines(t, base)
}

// TestReadAheadReadFault: a device error on the k-th read request reaches
// the caller after exactly the k−1 batches read before it.
func TestReadAheadReadFault(t *testing.T) {
	fs, want := readAheadSource(t)
	inner := fs.dev
	for k := 1; k <= 5; k++ {
		opts := storage.FaultyOptions{FailAfterOps: int64(k - 1)}
		if k == 1 { // FailAfterOps 0 is off: fail every read instead
			opts = storage.FaultyOptions{ReadErr: 1}
		}
		fs.dev = storage.NewFaulty(inner, opts)
		base := runtime.NumGoroutine()
		var got []core.Edge
		batches := 0
		err := fs.Edges(func(b []core.Edge) error {
			batches++
			got = append(got, b...)
			return nil
		})
		if !errors.Is(err, storage.ErrInjected) || batches != k-1 {
			t.Fatalf("fault on read %d: %d batches then %v, want %d then %v", k, batches, err, k-1, storage.ErrInjected)
		}
		if !slices.Equal(got, want[:len(got)]) || len(got) != (k-1)*fs.ChunkEdges {
			t.Fatalf("fault on read %d: the %d records delivered are not the file's first %d", k, len(got), (k-1)*fs.ChunkEdges)
		}
		settleGoroutines(t, base)
	}
}

// TestReadAheadHeldBatchUnchanged: a slow fn finds its batch as it was
// handed over at the end of its call, so the reader, which runs ahead
// meanwhile, never writes into the batch fn holds; the stream is still
// the file's records in order.
func TestReadAheadHeldBatchUnchanged(t *testing.T) {
	fs, want := readAheadSource(t)
	var got []core.Edge
	err := fs.Edges(func(b []core.Edge) error {
		held := slices.Clone(b)
		time.Sleep(200 * time.Microsecond)
		if !slices.Equal(b, held) {
			t.Errorf("batch at record %d changed while fn held it", len(got))
		}
		got = append(got, b...)
		return nil
	})
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("slow fn: %d records, err %v; want the file's %d", len(got), err, len(want))
	}
}

// TestReadAheadConcurrentCalls: two Edges calls on one FileSource at once
// deliver the same stream, each its own (run it under -race).
func TestReadAheadConcurrentCalls(t *testing.T) {
	fs, want := readAheadSource(t)
	var got [2][]core.Edge
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fs.Edges(func(b []core.Edge) error {
				got[i] = append(got[i], b...)
				return nil
			})
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || !slices.Equal(got[i], want) {
			t.Fatalf("call %d: %d records, err %v; want the file's %d", i, len(got[i]), errs[i], len(want))
		}
	}
}
