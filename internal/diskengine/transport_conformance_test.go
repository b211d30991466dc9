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
	store *windowCount
}

// windowCount is a spill store that counts the windows it takes: the writer
// appends a window's runs in partition order, so a run for a lower partition
// than the one before starts the next window of records that reach every
// partition.
type windowCount struct {
	core.SpillStore
	windows, last int
}

func (s *windowCount) Append(p int, run []byte) error {
	if s.windows == 0 || p < s.last {
		s.windows++
	}
	s.last = p
	return s.SpillStore.Append(p, run)
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
func newSpillingTransport(t *testing.T, dev storage.Device, k int, nv int64, window, threads int) *spillingTransport {
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
	rec := pod.Size[core.Update[int64]]()
	store := &windowCount{SpillStore: &updateStore{files: files, crcs: make([]uint32, k), recSize: rec, chunkBytes: window * rec, prefetch: true, verify: true, io: new(core.SpillIO), drain: make([]chunkScratch, threads)}}
	tp := core.NewSpillTransport(window, plan, threads, func(u core.Update[int64]) uint32 { return split.Of(u.Dst) }, store)
	return &spillingTransport{ShuffleTransport: tp, files: files, store: store}
}

// TestFileTransportConformance runs the contract suite over a solo run's
// transport spilling to update files, in its three shapes: a window that
// holds the whole iteration ("bypass", spills only a batch of several
// windows), a quarter of it
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
			var made []*spillingTransport
			conformance.Run(t, conformance.Maker{
				Name: "disk-file-" + sh.name,
				New: func(t *testing.T, k int, nv int64, capacity, threads int) core.UpdateTransport[int64] {
					tp := newSpillingTransport(t, dev, k, nv, sh.window(capacity), threads)
					made = append(made, tp)
					return tp
				},
				Window:       sh.window,
				StoreWindows: func(tp core.UpdateTransport[int64]) int { return tp.(*spillingTransport).store.windows },
			})
			// Of the transports of a window that holds the whole iteration,
			// only the spill-batch row's, sent several windows at once, spills.
			spilled := 0
			for _, tp := range made {
				if tp.store.windows > 0 {
					spilled++
				}
			}
			if spilled == 0 || (spilled > 1) != sh.spills {
				t.Fatalf("%d of %d transports spilled to the device; spills past the spill-batch row: %v", spilled, len(made), sh.spills)
			}
		})
	}

	const k, nv = 4, 1 << 10
	split := core.NewSplit(nv, k)
	updates := make([]core.Update[int64], 1000)
	for i := range updates {
		updates[i] = core.Update[int64]{Dst: core.VertexID(i % nv), Val: int64(i)}
	}
	// send sends updates in 100-record batches through 100-record windows,
	// which spill as the batches fill them, and returns why a Send refused.
	send := func(tp core.UpdateTransport[int64]) error {
		for off := 0; off < len(updates); off += 100 {
			if !tp.Send(0, updates[off:off+100]) {
				return tp.Err()
			}
		}
		return nil
	}

	t.Run("bit-flip", func(t *testing.T) {
		tp := newSpillingTransport(t, storage.NewSim(storage.SSDParams("conf", 1, 0)), k, nv, 100, 2)
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
		tp := newSpillingTransport(t, dev, k, nv, 100, 2)
		defer tp.Close()
		sendErr := send(tp)
		_, sealErr := tp.Seal()
		if !errors.Is(sealErr, storage.ErrInjected) {
			t.Fatalf("Seal after a failed append: %v (Send: %v), want the injected fault", sealErr, sendErr)
		}
		if sendErr != nil && !errors.Is(sendErr, storage.ErrInjected) {
			t.Fatalf("Send: %v, want the injected fault", sendErr)
		}
	})
}
