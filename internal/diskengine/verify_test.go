package diskengine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/pod"
	"repro/internal/storage"
)

// TestEveryEdgeByteVerified: every edge file is written with its tile index,
// so with verification on every byte a pass reads is checked — raw tiles
// against the checksums the shuffle recorded, compressed tiles inside their
// frames, update files and vertex windows by their stores — and
// BytesChecksummed equals BytesRead. That holds for a dense Run, a selective
// Run and passes over a cached Prepare, in both layouts, with PageRank
// (which reads the degree files at set-up), SCC (whose first backward
// iteration builds the transposed files from the forward ones and reads
// them) and a BFS whose frontier skips tiles. And one flipped weight bit,
// which no record-range check can see, in any tile of a dense raw run's edge
// files is storage.ErrCorrupted, whether the scatter or the transpose build
// reads it, as is one flipped bit in any degree file. With verification off
// nothing is checksummed.
func TestEveryEdgeByteVerified(t *testing.T) {
	chain, rmat := graphgen.Chain(1024, 13), graphgen.RMAT(graphgen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 41})
	pagerank := func() *core.Job { return core.NewJob[algorithms.PRState, float32](algorithms.NewPageRank(3)) }
	bfs := func() *core.Job { return core.NewJob[bfsState, int32](&bfsProg{root: 0}) }
	scc := func() *core.Job { return core.NewJob[algorithms.SCCState, uint32](algorithms.NewSCC()) }
	check := func(name string, pass core.Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pass.BytesRead == 0 || pass.BytesChecksummed != pass.BytesRead {
			t.Errorf("%s: %d bytes checksummed of %d read", name, pass.BytesChecksummed, pass.BytesRead)
		}
	}
	for _, compressed := range []bool{false, true} {
		for _, selective := range []bool{false, true} {
			cfg := spillsUpdates(t, spilled(Config{
				Device: ssd(0), Threads: 2, IOUnit: 1 << 10, Partitions: 4, TileEdges: 128,
				CompressTiles: compressed, Selective: selective,
			}))
			var skipped int64
			for _, job := range []*core.Job{pagerank(), bfs(), scc()} {
				name := fmt.Sprintf("compressed %v/selective %v/Run %s", compressed, selective, job.Name())
				res, err := RunJob(context.Background(), chain, job, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(name, res.Stats, nil)
				skipped += res.Stats.TilesSkipped
			}
			if selective && skipped == 0 {
				t.Errorf("compressed %v: the selective runs skipped no tile", compressed)
			}
		}
		cfg := spillsUpdates(t, spilled(Config{
			Device: ssd(0), Threads: 2, IOUnit: 1 << 10, Partitions: 4, TileEdges: 128,
			CompressTiles: compressed, Selective: true,
		}))
		pp, err := Prepare(chain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range []core.ProgramSet{{pagerank(), bfs()}, {bfs()}, {scc()}} {
			_, pass, err := pp.RunMany(context.Background(), set)
			check(fmt.Sprintf("compressed %v/cached Prepare/RunMany %s", compressed, set.Label()), pass, err)
		}
		pp.Close()
	}
	// Verification off, nothing is checksummed, raw or compressed.
	for _, compressed := range []bool{false, true} {
		res, err := RunJob(context.Background(), chain, pagerank(), spilled(Config{
			Device: ssd(0), Threads: 2, IOUnit: 1 << 10, Partitions: 4, TileEdges: 128,
			CompressTiles: compressed, NoVerify: true,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BytesRead == 0 || res.Stats.BytesChecksummed != 0 {
			t.Errorf("compressed %v, verification off: %d of %d bytes checksummed", compressed, res.Stats.BytesChecksummed, res.Stats.BytesRead)
		}
	}

	cfg := Config{Device: ssd(0), Threads: 2, IOUnit: 4 << 10, Partitions: 4, TileEdges: 256}
	pp, err := prepare(rmat, cfg, int64(pod.Size[algorithms.PRState]()), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	flip := func(f *partFile, off int64) {
		t.Helper()
		var b [1]byte
		if _, err := f.f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	flips := 0
	for p, tiles := range pp.tilesFwd.parts {
		for i, tl := range tiles {
			off := (tl.lo+tl.recs/2)*edgeRecSize + 10 // the weight of the tile's middle record
			flip(pp.edgeFiles[p], off)
			for _, job := range []*core.Job{core.NewJob[wccState, core.VertexID](&wccProg{}), pagerank(), scc()} {
				if _, _, err := pp.RunMany(context.Background(), core.ProgramSet{job}); !errors.Is(err, storage.ErrCorrupted) {
					t.Fatalf("partition %d tile %d flipped: %s returned %v, want ErrCorrupted", p, i, job.Name(), err)
				}
			}
			flip(pp.edgeFiles[p], off)
			flips++
		}
	}
	if flips < 8 {
		t.Fatalf("only %d tiles to flip", flips)
	}
	for p, f := range pp.degs.files {
		off := f.size / 2
		flip(f, off)
		if _, _, err := pp.RunMany(context.Background(), core.ProgramSet{pagerank()}); !errors.Is(err, storage.ErrCorrupted) {
			t.Fatalf("degree file %d flipped: PageRank returned %v, want ErrCorrupted", p, err)
		}
		flip(f, off)
	}
	if _, _, err := pp.RunMany(context.Background(), core.ProgramSet{pagerank()}); err != nil {
		t.Fatalf("restored files: %v", err)
	}
}

// cutShort truncates file name on dev to its size less n bytes, behind the
// back of whoever wrote it.
func cutShort(dev storage.Device, name string, n int64) error {
	f, err := dev.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Truncate(f.Size() - n)
}

// TestDegreeFileCutShortIsCorrupted: a degree file that lost its tail reads
// short, and a PageRank over the handle fails with storage.ErrCorrupted —
// on raw and compressed handles, verifying or not: the window store checks
// a window's length before, and apart from, its checksum.
func TestDegreeFileCutShortIsCorrupted(t *testing.T) {
	src, _ := smallGraph(49)
	for _, compressed := range []bool{false, true} {
		for _, noVerify := range []bool{false, true} {
			dev := ssd(0)
			pp, err := Prepare(src, Config{Device: dev, Threads: 2, IOUnit: 4 << 10, Partitions: 4, TileEdges: 128, CompressTiles: compressed, NoVerify: noVerify})
			if err != nil {
				t.Fatal(err)
			}
			if err := cutShort(dev, "ds-p0001.deg", 4); err != nil {
				t.Fatal(err)
			}
			job := core.NewJob[algorithms.PRState, float32](algorithms.NewPageRank(3))
			if _, _, err := pp.RunMany(context.Background(), core.ProgramSet{job}); !errors.Is(err, storage.ErrCorrupted) {
				t.Errorf("compressed %v, NoVerify %v: PageRank over a cut degree file returned %v, want ErrCorrupted", compressed, noVerify, err)
			}
			pp.Close()
		}
	}
}

// TestSpilledVertexCutShortIsCorrupted: a solo PageRank whose vertex state
// spills, with partition 2's vertex file cut short between the store that
// wrote it and the load that reads it back, fails with
// storage.ErrCorrupted, verifying or not — never a window of stale bytes.
func TestSpilledVertexCutShortIsCorrupted(t *testing.T) {
	src, _ := smallGraph(43)
	for _, noVerify := range []bool{false, true} {
		dev := ssd(0)
		var cutErr error
		prog := &flipAtStart{PageRank: algorithms.NewPageRank(3), at: 1, flip: func() { cutErr = cutShort(dev, "r0-p0002.verts", 8) }}
		_, err := Run[algorithms.PRState, float32](src, prog, spilled(Config{Device: dev, Threads: 2, IOUnit: 8 << 10, Partitions: 4, NoVerify: noVerify}))
		if cutErr != nil {
			t.Fatalf("NoVerify %v: cutting the spilled vertex file: %v", noVerify, cutErr)
		}
		if !errors.Is(err, storage.ErrCorrupted) {
			t.Fatalf("NoVerify %v: a run over a cut vertex window returned %v, want ErrCorrupted", noVerify, err)
		}
	}
}
