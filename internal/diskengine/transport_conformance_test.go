package diskengine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/streambuf"
	"repro/internal/transport/conformance"
)

// closingFileTransport closes the update files it drains through with the
// transport, so the conformance suite can own the full lifecycle.
type closingFileTransport struct {
	*fileTransport[int64]
	files []*partFile
}

func (c *closingFileTransport) Close() error {
	err := c.fileTransport.Close()
	for _, f := range c.files {
		f.remove()
	}
	return err
}

// newConformanceFileTransport builds a fileTransport over fresh update
// files on a zero-latency simulated SSD.
func newConformanceFileTransport(t *testing.T, k int, nv int64, capacity, bufRecs, threads int, combine, bypass bool) core.UpdateTransport[int64] {
	t.Helper()
	dev := storage.NewSim(storage.SSDParams("conf", 1, 0))
	files := make([]*partFile, k)
	for p := 0; p < k; p++ {
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
	var fold func(*streambuf.Buffer[core.Update[int64]]) int64
	if combine {
		fold = core.NewUpdateFolder(split, threads, func(a, b int64) int64 { return a + b }).Fold
	}
	var checked atomic.Int64
	tp := newFileTransport(fileTransportConfig[int64]{
		files:      files,
		plan:       plan,
		key:        func(u core.Update[int64]) uint32 { return split.Of(u.Dst) },
		threads:    threads,
		bufRecs:    bufRecs,
		fold:       fold,
		bypass:     bypass,
		prefetch:   true,
		verify:     true,
		onVerified: func(n int64) { checked.Add(n) },
	})
	return &closingFileTransport{fileTransport: tp, files: files}
}

// TestFileTransportConformance pins the out-of-core update-file writeback
// to the UpdateTransport contract in its three operating shapes: the
// single-buffer bypass (updates never touch disk), the always-write path
// (bypass off, one window), and the windowed path (several shuffle+write
// flushes per iteration).
func TestFileTransportConformance(t *testing.T) {
	shapes := []struct {
		name   string
		bypass bool
		window func(capacity int) int
	}{
		{"bypass", true, nil},
		{"writeback", false, nil},
		{"windowed", false, func(capacity int) int { return (capacity + 3) / 4 }},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			conformance.Run(t, conformance.Maker{
				Name: "disk-file-" + sh.name,
				New: func(t *testing.T, k int, nv int64, capacity, threads int, combine bool) core.UpdateTransport[int64] {
					bufRecs := capacity
					if sh.window != nil {
						bufRecs = sh.window(capacity)
					}
					return newConformanceFileTransport(t, k, nv, capacity, bufRecs, threads, combine, sh.bypass)
				},
				Window: sh.window,
			})
		})
	}
}
