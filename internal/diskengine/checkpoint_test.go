package diskengine

// checkpoint_test.go covers the checkpoint lifecycle (checkpoint.go) as one
// table over every way a run snapshots: a solo Run with its state in
// memory, a solo Run with its state spilled to vertex files, a shared pass
// of one job and a shared pass of two. Each is driven over a dense workload
// (wcc: vertex bytes only) and a selective one (bfs: frontier words in the
// section): crash a checkpointed run mid-stream and require the rerun to
// resume past the restored iterations with bit-identical state; leave a
// snapshot that must not be trusted — bit-flipped, torn, from another run
// shape, or in the XSCKPT1 frame an older binary wrote — and require a
// fresh start with the right result; and leave no slot behind on success.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/storage"
)

// typedRun is how a solo Run returns once its vertex type is erased.
type typedRun func(src core.EdgeSource, cfg Config) (any, core.Stats, error)

// soloAndJob adapts one program to both ways of running it: typed through
// Run, vertex type erased afterwards, and as a core.Job. Programs are
// stateful, so every run gets a fresh one.
func soloAndJob[V, M any](newProg func() core.Program[V, M]) (typedRun, func() *core.Job) {
	solo := func(src core.EdgeSource, cfg Config) (any, core.Stats, error) {
		res, err := Run(src, newProg(), cfg)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return res.Vertices, res.Stats, nil
	}
	return solo, func() *core.Job { return core.NewJob(newProg()) }
}

// ckptWorkload is one program over one graph, runnable typed (solo) or as
// a job.
type ckptWorkload struct {
	name string
	src  core.EdgeSource
	cfg  Config
	solo typedRun
	job  func() *core.Job
}

func ckptWorkloads() []ckptWorkload {
	dense, _ := smallGraph(31)
	wcc := ckptWorkload{
		name: "wcc", src: dense,
		cfg: Config{Threads: 2, IOUnit: 8 << 10, Partitions: 4, Checkpoint: true},
	}
	wcc.solo, wcc.job = soloAndJob(func() core.Program[wccState, core.VertexID] { return &wccProg{} })
	bfs := ckptWorkload{
		name: "bfs-selective", src: graphgen.Chain(384, 13),
		cfg: Config{Threads: 2, IOUnit: 16 << 10, Partitions: 4, TileEdges: 32, Selective: true, Checkpoint: true},
	}
	bfs.solo, bfs.job = soloAndJob(func() core.Program[bfsState, int32] { return &bfsProg{root: 0} })
	return []ckptWorkload{wcc, bfs}
}

// ckptMode is one way of running a workload w under cfg (Device set by the
// caller); the pass of two co-schedules the other workload's program over
// w's graph. It returns every job's final vertices.
type ckptMode struct {
	name string
	run  func(w, other ckptWorkload, cfg Config) ([]any, core.Stats, error)
}

var ckptModes = []ckptMode{
	{"solo", func(w, _ ckptWorkload, cfg Config) ([]any, core.Stats, error) {
		v, st, err := w.solo(w.src, cfg)
		return []any{v}, st, err
	}},
	{"solo-spilled", func(w, _ ckptWorkload, cfg Config) ([]any, core.Stats, error) {
		v, st, err := w.solo(w.src, spilled(cfg))
		return []any{v}, st, err
	}},
	{"pass-of-one", func(w, _ ckptWorkload, cfg Config) ([]any, core.Stats, error) {
		res, err := RunJob(nil, w.src, w.job(), cfg)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return []any{res.Vertices}, res.Stats, nil
	}},
	{"pass-of-two", func(w, other ckptWorkload, cfg Config) ([]any, core.Stats, error) {
		res, pass, err := RunMany(nil, w.src, core.ProgramSet{w.job(), other.job()}, cfg)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return []any{res[0].Vertices, res[1].Vertices}, pass, nil
	}},
}

// ckptSlots opens the snapshot slots on dev that were published — the magic
// is written last, so a slot the crash itself tore has none.
func ckptSlots(dev storage.Device) []storage.File {
	var files []storage.File
	for slot := 0; slot < 2; slot++ {
		f, err := dev.Open(fmt.Sprintf("ds-checkpoint-%d.xsck", slot))
		if err != nil {
			continue
		}
		magic := make([]byte, len(ckptMagic))
		if readBytes(f, magic, 0) != nil || string(magic) != ckptMagic {
			f.Close()
			continue
		}
		files = append(files, f)
	}
	return files
}

func requireNoCheckpoints(t *testing.T, dev storage.Device, context string) {
	t.Helper()
	for slot := 0; slot < 2; slot++ {
		name := fmt.Sprintf("ds-checkpoint-%d.xsck", slot)
		if f, err := dev.Open(name); err == nil {
			f.Close()
			t.Fatalf("%s: %s survived", context, name)
		}
	}
}

// crashed kills run at several points of the clean run's operation count
// until one crash leaves a published snapshot behind, and returns the device holding
// it — every device operation past the budget fails, the snapshots written
// before that survive on the inner device.
func crashed(t *testing.T, totalOps int64, run func(storage.Device) error) storage.Device {
	t.Helper()
	for _, frac := range []float64{0.6, 0.45, 0.75, 0.3, 0.9} {
		inner := ssd(0)
		budget := max(int64(float64(totalOps)*frac), 1)
		if run(storage.NewFaulty(inner, storage.FaultyOptions{FailAfterOps: budget})) == nil {
			continue // budget outlasted the run
		}
		if slots := ckptSlots(inner); len(slots) > 0 {
			for _, f := range slots {
				f.Close()
			}
			return inner
		}
	}
	t.Fatal("no crash window left a snapshot behind")
	return nil
}

func TestCheckpointLifecycle(t *testing.T) {
	// What the rerun finds in place of a trustworthy snapshot, and so must
	// ignore: tamper edits a surviving slot, recfg changes the run's shape.
	distrusted := []struct {
		name   string
		tamper func(t *testing.T, f storage.File)
		recfg  func(cfg *Config)
	}{
		{name: "bit-flip", tamper: func(t *testing.T, f storage.File) {
			b := make([]byte, 1)
			if _, err := f.ReadAt(b, ckptHeaderLen+13); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x10
			if _, err := f.WriteAt(b, ckptHeaderLen+13); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn", tamper: func(t *testing.T, f storage.File) {
			if err := f.Truncate(f.Size() - 7); err != nil {
				t.Fatal(err)
			}
		}},
		// k is in the identity fingerprint.
		{name: "identity-mismatch", recfg: func(cfg *Config) { cfg.Partitions *= 2 }},
		// The frame the solo engine wrote before the formats were merged,
		// told apart by its magic alone.
		{name: "stale-XSCKPT1", tamper: func(t *testing.T, f storage.File) {
			if _, err := f.WriteAt([]byte("XSCKPT1\n"), 0); err != nil {
				t.Fatal(err)
			}
		}},
	}

	workloads := ckptWorkloads()
	for wi, w := range workloads {
		other := workloads[1-wi]
		for _, mode := range ckptModes {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				on := func(dev storage.Device, cfg Config) ([]any, core.Stats, error) {
					cfg.Device = dev
					return mode.run(w, other, cfg)
				}
				clean := ssd(0)
				want, _, err := on(clean, w.cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireNoCheckpoints(t, clean, "completed run")
				ds := clean.Stats()
				totalOps := ds.Reads + ds.Writes
				crash := func(t *testing.T) storage.Device {
					return crashed(t, totalOps, func(dev storage.Device) error {
						_, _, err := on(dev, w.cfg)
						return err
					})
				}

				t.Run("resume", func(t *testing.T) {
					inner := crash(t)
					got, st, err := on(inner, w.cfg)
					if err != nil {
						t.Fatalf("resume after crash: %v", err)
					}
					if st.ResumedIterations == 0 || st.ResumedIterations >= st.Iterations {
						t.Fatalf("resumed %d of %d iterations, want some restored and some executed", st.ResumedIterations, st.Iterations)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatal("resumed run's vertices differ from the fault-free run's")
					}
					requireNoCheckpoints(t, inner, "resumed run")
				})
				for _, d := range distrusted {
					t.Run(d.name, func(t *testing.T) {
						inner := crash(t)
						cfg := w.cfg
						if d.recfg != nil {
							d.recfg(&cfg)
						}
						if d.tamper != nil {
							for _, f := range ckptSlots(inner) {
								d.tamper(t, f)
								f.Close()
							}
						}
						got, st, err := on(inner, cfg)
						if err != nil {
							t.Fatalf("rerun over a distrusted snapshot: %v", err)
						}
						if st.ResumedIterations != 0 {
							t.Fatalf("resumed %d iterations from a snapshot that must be ignored", st.ResumedIterations)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatal("vertices differ from the fault-free run's")
						}
					})
				}
			})
		}
	}
}

// TestCheckpointInterchangeable: a solo Run and a RunJob of the same
// program over the same layout share a snapshot identity, so either resumes
// what the other left behind — spilled or not.
func TestCheckpointInterchangeable(t *testing.T) {
	w := ckptWorkloads()[0]
	solo, spilledSolo, job := ckptModes[0], ckptModes[1], ckptModes[2]
	clean := ssd(0)
	cfg := w.cfg
	cfg.Device = clean
	want, _, err := solo.run(w, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := clean.Stats()
	for _, pair := range [][2]ckptMode{{spilledSolo, job}, {job, solo}} {
		inner := crashed(t, ds.Reads+ds.Writes, func(dev storage.Device) error {
			cfg := w.cfg
			cfg.Device = dev
			_, _, err := pair[0].run(w, w, cfg)
			return err
		})
		cfg := w.cfg
		cfg.Device = inner
		got, st, err := pair[1].run(w, w, cfg)
		if err != nil {
			t.Fatalf("%s resuming %s: %v", pair[1].name, pair[0].name, err)
		}
		if st.ResumedIterations == 0 {
			t.Fatalf("%s did not resume the snapshot %s left", pair[1].name, pair[0].name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s resuming %s: vertices differ from the fault-free run's", pair[1].name, pair[0].name)
		}
	}
}

// ckptCounting counts the bytes written to the snapshot slots of the device
// it wraps.
type ckptCounting struct {
	storage.Device
	written *int64
}

type ckptCountingFile struct {
	storage.File
	written *int64
}

func (d ckptCounting) Create(name string) (storage.File, error) {
	f, err := d.Device.Create(name)
	if err != nil || !strings.Contains(name, "checkpoint") {
		return f, err
	}
	return ckptCountingFile{f, d.written}, nil
}

func (f ckptCountingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	*f.written += int64(n)
	return n, err
}

// TestCheckpointWritesOnlySnapshots: checkpointing a solo run adds exactly
// the snapshot bytes to its BytesWritten — serializing a spilled run's
// vertex windows reads the vertex files and never writes them back.
func TestCheckpointWritesOnlySnapshots(t *testing.T) {
	for _, w := range ckptWorkloads() {
		for _, mode := range ckptModes[:2] {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				cfg := w.cfg
				cfg.Checkpoint = false
				cfg.Device = ssd(0)
				want, plain, err := mode.run(w, w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var snapBytes int64
				cfg.Checkpoint = true
				cfg.Device = ckptCounting{ssd(0), &snapBytes}
				got, ckpt, err := mode.run(w, w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("checkpointed run's vertices differ from the plain run's")
				}
				if snapBytes == 0 {
					t.Fatal("checkpointed run wrote no snapshot")
				}
				if extra := ckpt.BytesWritten - plain.BytesWritten; extra != snapBytes {
					t.Fatalf("checkpointing added %d bytes written, want the %d snapshot bytes", extra, snapBytes)
				}
			})
		}
	}
}
