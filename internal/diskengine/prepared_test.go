package diskengine

// prepared_test.go pins that the Prepared is the engine's one dataset layer
// — a solo Run lays out, accounts and removes exactly the files a RunJob of
// the same config does — and that the one partition reader refuses a
// corrupted record on the serving path too.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/partition2ps"
	"repro/internal/storage"
)

// keepRemoved is a device that remembers every edge and degree file's bytes
// at the moment the engine removes it.
type keepRemoved struct {
	storage.Device
	edges map[string][]byte
}

func (d *keepRemoved) Remove(name string) error {
	if strings.HasSuffix(name, "edges") || strings.HasSuffix(name, ".deg") { // .edges, .redges and .deg
		if f, err := d.Device.Open(name); err == nil {
			b := make([]byte, f.Size())
			if err := storage.ReadFull(f, b, 0); err == nil {
				d.edges[name] = b
			}
			f.Close()
		}
	}
	return d.Device.Remove(name)
}

// TestSoloRunsOnPrepared: for PageRank, which reads the degree files, a
// transposing SCC, a selective BFS over compressed tiles and WCC under 2PS,
// solo Run and RunJob on the same config write byte-identical forward and
// transposed edge files and degree files, report the same layout, and leave
// the device empty — as do a run whose reads fault and a cancelled RunJob.
func TestSoloRunsOnPrepared(t *testing.T) {
	src, _ := smallGraph(17)
	type workload struct {
		name string
		cfg  Config
		solo typedRun
		job  func() *core.Job
	}
	pagerank := workload{name: "pagerank"}
	pagerank.solo, pagerank.job = soloAndJob(func() core.Program[algorithms.PRState, float32] { return algorithms.NewPageRank(3) })
	scc := workload{name: "scc"}
	scc.solo, scc.job = soloAndJob(func() core.Program[algorithms.SCCState, uint32] { return algorithms.NewSCC() })
	bfs := workload{name: "bfs-selective", cfg: Config{Selective: true, CompressTiles: true, TileEdges: 256}}
	bfs.solo, bfs.job = soloAndJob(func() core.Program[bfsState, int32] { return &bfsProg{root: 3} })
	wcc := workload{name: "wcc-2ps", cfg: Config{Partitioner: partition2ps.New(), CompressTiles: true, TileEdges: 256}}
	wcc.solo, wcc.job = soloAndJob(func() core.Program[wccState, core.VertexID] { return &wccProg{} })
	workloads := []workload{pagerank, scc, bfs, wcc}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// run executes the workload solo or as a job under ctx on a fresh
			// directory and requires the directory empty afterwards.
			run := func(context string, solo bool, ctx context.Context, mod func(*Config)) (core.Stats, map[string][]byte, error) {
				t.Helper()
				dir := t.TempDir()
				osd, err := storage.NewOS("os", dir)
				if err != nil {
					t.Fatal(err)
				}
				dev := &keepRemoved{Device: osd, edges: map[string][]byte{}}
				cfg := w.cfg
				cfg.Device, cfg.Threads, cfg.IOUnit, cfg.Partitions = dev, 2, 8<<10, 4
				if mod != nil {
					mod(&cfg)
				}
				var st core.Stats
				if solo {
					_, st, err = w.solo(src, cfg)
				} else {
					var res *core.JobResult
					if res, err = RunJob(ctx, src, w.job(), cfg); err == nil {
						st = res.Stats
					}
				}
				left, rerr := os.ReadDir(dir)
				if rerr != nil {
					t.Fatal(rerr)
				}
				var names []string
				for _, f := range left {
					names = append(names, f.Name())
				}
				if len(names) != 0 {
					t.Errorf("%s: files left on the device: %v", context, names)
				}
				return st, dev.edges, err
			}

			soloSt, soloFiles, err := run("solo", true, context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			jobSt, jobFiles, err := run("job", false, context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for name := range jobFiles {
				names = append(names, name)
			}
			sort.Strings(names)
			wantFiles := 8 // four edge files, four degree files
			if w.name == "scc" {
				wantFiles = 12 // and the transpose's four
			}
			if len(names) != wantFiles || len(soloFiles) != wantFiles {
				t.Fatalf("job removed %d edge and degree files %v, solo %d, want %d of each", len(names), names, len(soloFiles), wantFiles)
			}
			for _, name := range names {
				if !bytes.Equal(soloFiles[name], jobFiles[name]) {
					t.Errorf("%s: solo wrote %d bytes, job %d, not identical", name, len(soloFiles[name]), len(jobFiles[name]))
				}
			}
			if soloSt.Partitions != jobSt.Partitions || soloSt.Partitioner != jobSt.Partitioner ||
				soloSt.TilesCompressed != jobSt.TilesCompressed || soloSt.CompressedRatio != jobSt.CompressedRatio {
				t.Errorf("layout stats differ: solo {K %d, %s, %d tiles, ratio %v}, job {K %d, %s, %d tiles, ratio %v}",
					soloSt.Partitions, soloSt.Partitioner, soloSt.TilesCompressed, soloSt.CompressedRatio,
					jobSt.Partitions, jobSt.Partitioner, jobSt.TilesCompressed, jobSt.CompressedRatio)
			}
			if w.cfg.CompressTiles && soloSt.TilesCompressed == 0 {
				t.Error("compressed layout reports no encoded tiles")
			}

			// Pre-processing only writes, so the first read — PageRank's
			// degree file, an edge file, or the transpose build's pass over
			// them — faults.
			faulty := func(cfg *Config) {
				cfg.Device = storage.NewFaulty(cfg.Device, storage.FaultyOptions{Seed: 5, ReadErr: 1})
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			for _, solo := range []bool{true, false} {
				if _, _, err := run("failed run", solo, context.Background(), faulty); !errors.Is(err, storage.ErrInjected) {
					t.Errorf("solo=%v: a run whose edge-file reads fault returned %v, want ErrInjected", solo, err)
				}
			}
			if _, _, err := run("cancelled run", false, cancelled, nil); !errors.Is(err, context.Canceled) {
				t.Errorf("a cancelled RunJob returned %v, want context.Canceled", err)
			}
		})
	}
}

// TestCorruptedRecordSharedPass: the raw tile verifier closes a tile's CRC
// only once the whole tile has been fed, and with chunks smaller than a
// tile (IOUnit 8 KiB × K 2 = 1365 records against 4096) the first chunks of
// a tile scatter before that. A bit-flipped source beyond the vertex count
// must come back from the pass as ErrCorrupted, not index a run's vertex
// array — one guard in the one partition reader, for a pass of one run or
// of two.
func TestCorruptedRecordSharedPass(t *testing.T) {
	src, _ := smallGraph(41)
	for _, kind := range []struct {
		name string
		run  func(pp *Prepared) error
	}{
		{"shared pass", func(pp *Prepared) error {
			_, _, err := pp.RunMany(context.Background(), core.ProgramSet{core.NewJob[wccState, core.VertexID](&wccProg{}), core.NewJob[bfsState, int32](&bfsProg{root: 0})})
			return err
		}},
		{"solo", func(pp *Prepared) error {
			_, _, err := pp.RunMany(nil, core.ProgramSet{core.NewJob[wccState, core.VertexID](&wccProg{})})
			return err
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			dev := ssd(0)
			pp, err := Prepare(src, Config{Device: dev, Threads: 2, IOUnit: 8 << 10, Partitions: 2, TileEdges: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer pp.Close()
			if recs := pp.tilesFwd.totalRecs(0); recs <= int64(pp.bufEdgeRecs) {
				t.Fatalf("partition 0 holds %d records, one chunk of %d: the tile CRC would close first", recs, pp.bufEdgeRecs)
			}
			f, err := dev.Open("ds-p0000.edges")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var srcHi [1]byte // top byte of the first record's little-endian Src
			if _, err := f.ReadAt(srcHi[:], 3); err != nil {
				t.Fatal(err)
			}
			srcHi[0] ^= 0x80
			if _, err := f.WriteAt(srcHi[:], 3); err != nil {
				t.Fatal(err)
			}
			if err := kind.run(pp); !errors.Is(err, storage.ErrCorrupted) {
				t.Fatalf("a pass over a corrupted record returned %v, want ErrCorrupted", err)
			}
		})
	}
}
