package diskengine

import (
	"context"
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/storage"
)

// TestSharedPassClosesTransportsOnFailure: a pass whose edge-file reads
// fault in its first iteration, or that is cancelled before it, returns the
// typed error and closes every run it made — whichever kind runPass drives:
// the solo run's update files are gone as soon as the pass returns, next to
// the Prepared's edge files, and the Prepared's Close then leaves the device
// directory empty.
func TestSharedPassClosesTransportsOnFailure(t *testing.T) {
	for _, kind := range []struct {
		name string
		run  func(ctx context.Context, pp *Prepared) error
	}{
		{"shared pass", func(ctx context.Context, pp *Prepared) error {
			set := core.ProgramSet{core.NewJob[bfsState, int32](&bfsProg{root: 0}), core.NewJob[bfsState, int32](&bfsProg{root: 9})}
			_, _, err := pp.RunMany(ctx, set)
			return err
		}},
		{"solo", func(ctx context.Context, pp *Prepared) error {
			_, _, err := pp.runPass(ctx, time.Now(), "bfs", pp.runs(core.ProgramSet{core.NewJob[bfsState, int32](&bfsProg{root: 0})}, true))
			return err
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			dir := t.TempDir()
			osd, err := storage.NewOS("os", dir)
			if err != nil {
				t.Fatal(err)
			}
			dev := &hookFaults{Device: osd, faulty: storage.NewFaulty(osd, storage.FaultyOptions{Seed: 3, ReadErr: 1})}
			pp, err := Prepare(graphgen.Chain(256, 1), Config{Device: dev, Threads: 2, Partitions: 4, IOUnit: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			files := func() []string {
				t.Helper()
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, f := range entries {
					names = append(names, f.Name())
				}
				return names
			}
			edgeFiles := files()

			dev.armed.Store(true)
			err = kind.run(context.Background(), pp)
			dev.armed.Store(false)
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("a pass whose edge-file reads fault returned %v, want ErrInjected", err)
			}
			if left := files(); !slices.Equal(left, edgeFiles) {
				t.Errorf("failed pass: %v on the device, want only the edge files %v", left, edgeFiles)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := kind.run(ctx, pp); !errors.Is(err, context.Canceled) {
				t.Fatalf("a cancelled pass returned %v, want context.Canceled", err)
			}
			if left := files(); !slices.Equal(left, edgeFiles) {
				t.Errorf("cancelled pass: %v on the device, want only the edge files %v", left, edgeFiles)
			}

			pp.Close()
			if left := files(); len(left) != 0 {
				t.Errorf("files left on the device: %v", left)
			}
		})
	}
}
