package diskengine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/streambuf"
	"repro/internal/transport/conformance"
)

// spillingTransport is the solo run's update transport over update files of
// its own, which it removes when it closes, so the conformance suite can own
// the full lifecycle.
type spillingTransport struct {
	*core.ShuffleTransport[int64]
	files []*partFile
}

func (s *spillingTransport) Close() error {
	err := s.ShuffleTransport.Close()
	for _, f := range s.files {
		f.remove()
	}
	return err
}

// newSpillingTransport builds a core.ShuffleTransport of window-record
// windows spilling to fresh update files on dev, the way a run lent the
// engine's stores sets its transport up.
func newSpillingTransport(t *testing.T, dev storage.Device, k int, nv int64, window, threads int, combine bool) *spillingTransport {
	t.Helper()
	files := make([]*partFile, k)
	for p := range files {
		var err error
		if files[p], err = createPartFile(dev, fmt.Sprintf("conf-p%04d.updates", p)); err != nil {
			t.Fatalf("createPartFile: %v", err)
		}
	}
	split := core.NewSplit(nv, k)
	plan, err := streambuf.NewPlan(k, k)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	var folder *streambuf.Folder[core.Update[int64]]
	if combine {
		folder = core.NewUpdateFolder(split, threads, func(a, b int64) int64 { return a + b })
	}
	rec := pod.Size[core.Update[int64]]()
	store := &updateStore{files: files, recSize: rec, chunkBytes: window * rec, prefetch: true, verify: true, drain: make([]readScratch[byte], threads)}
	tp := core.NewSpillTransport(window, plan, threads, func(u core.Update[int64]) uint32 { return split.Of(u.Dst) }, folder, store)
	return &spillingTransport{ShuffleTransport: tp, files: files}
}

// TestFileTransportConformance runs the contract suite over a solo run's
// transport spilling to update files, in its three shapes: a window that
// holds the whole iteration ("bypass", never spills), a quarter of it
// ("windowed", spills mid-iteration) and one 64-record send batch
// ("writeback", spills every batch). The fault rows follow.
func TestFileTransportConformance(t *testing.T) {
	shapes := []struct {
		name   string
		window func(capacity int) int
		spills bool
	}{
		{"bypass", func(capacity int) int { return capacity }, false},
		{"windowed", func(capacity int) int { return (capacity + 3) / 4 }, true},
		{"writeback", func(int) int { return 64 }, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			dev := storage.NewSim(storage.SSDParams("conf", 1, 0))
			conformance.Run(t, conformance.Maker{
				Name: "disk-file-" + sh.name,
				New: func(t *testing.T, k int, nv int64, capacity, threads int, combine bool) core.UpdateTransport[int64] {
					return newSpillingTransport(t, dev, k, nv, sh.window(capacity), threads, combine)
				},
				Window: sh.window,
			})
			if spilled := dev.Stats().BytesWritten > 0; spilled != sh.spills {
				t.Fatalf("spilled to the device: %v, want %v", spilled, sh.spills)
			}
		})
	}

	const k, nv = 4, 1 << 10
	split := core.NewSplit(nv, k)
	updates := make([]core.Update[int64], 1000)
	for i := range updates {
		updates[i] = core.Update[int64]{Dst: core.VertexID(i % nv), Val: int64(i)}
	}
	// send sends updates through 100-record windows, flushing each full one,
	// and returns the first Flush error.
	send := func(tp core.UpdateTransport[int64]) error {
		for off := 0; off < len(updates); off += 100 {
			if err := tp.Flush(); err != nil {
				return err
			}
			if !tp.Send(0, updates[off:off+100]) {
				t.Fatalf("Send refused 100 records with room %d", tp.Room())
			}
		}
		return nil
	}

	t.Run("bit-flip", func(t *testing.T) {
		tp := newSpillingTransport(t, storage.NewSim(storage.SSDParams("conf", 1, 0)), k, nv, 100, 2, false)
		defer tp.Close()
		if err := send(tp); err != nil {
			t.Fatal(err)
		}
		if _, err := tp.Seal(); err != nil {
			t.Fatal(err)
		}
		f := tp.files[1]
		b := make([]byte, 1)
		if _, err := f.f.ReadAt(b, 5); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.f.WriteAt(b, 5); err != nil {
			t.Fatal(err)
		}
		err := tp.Drain(1, func([]core.Update[int64]) error { return nil })
		if !errors.Is(err, storage.ErrCorrupted) {
			t.Fatalf("Drain of a flipped update file: %v, want ErrCorrupted", err)
		}
		if err := tp.Drain(2, func(run []core.Update[int64]) error {
			for _, u := range run {
				if split.Of(u.Dst) != 2 {
					return fmt.Errorf("update for vertex %d drained from partition 2", u.Dst)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("Drain of an intact update file: %v", err)
		}
	})

	t.Run("failed-append", func(t *testing.T) {
		dev := storage.NewFaulty(storage.NewSim(storage.SSDParams("conf", 1, 0)), storage.FaultyOptions{FailAfterOps: 1})
		tp := newSpillingTransport(t, dev, k, nv, 100, 2, false)
		defer tp.Close()
		flushErr := send(tp)
		_, sealErr := tp.Seal()
		if !errors.Is(sealErr, storage.ErrInjected) {
			t.Fatalf("Seal after a failed append: %v (Flush: %v), want the injected fault", sealErr, flushErr)
		}
		if flushErr != nil && !errors.Is(flushErr, storage.ErrInjected) {
			t.Fatalf("Flush: %v, want the injected fault", flushErr)
		}
	})
}
