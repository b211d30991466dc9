package graphio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/storage"
)

func testDev(t *testing.T) storage.Device {
	t.Helper()
	return storage.NewSim(storage.SSDParams("t", 1, 0))
}

func TestBinaryRoundTrip(t *testing.T) {
	dev := testDev(t)
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 11})
	if err := WriteEdges(dev, "g.xsedge", src); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenEdges(dev, "g.xsedge")
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumVertices() != src.NumVertices() || fs.NumEdges() != src.NumEdges() {
		t.Fatalf("header mismatch: %d/%d", fs.NumVertices(), fs.NumEdges())
	}
	want, _ := core.Materialize(src)
	got, err := core.Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestBinarySmallChunks(t *testing.T) {
	dev := testDev(t)
	src := core.NewSliceSource([]core.Edge{
		{Src: 0, Dst: 1, Weight: 0.5},
		{Src: 1, Dst: 2, Weight: 0.25},
		{Src: 2, Dst: 0, Weight: 0.75},
		{Src: 0, Dst: 2, Weight: 1},
	}, 3)
	if err := WriteEdges(dev, "s", src); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenEdges(dev, "s")
	if err != nil {
		t.Fatal(err)
	}
	fs.ChunkEdges = 1 // force many tiny reads
	got, err := core.Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3] != (core.Edge{Src: 0, Dst: 2, Weight: 1}) {
		t.Fatalf("got %+v", got)
	}
}

func TestBinaryRestream(t *testing.T) {
	dev := testDev(t)
	src := graphgen.Grid(5, 5, 1)
	if err := WriteEdges(dev, "grid", src); err != nil {
		t.Fatal(err)
	}
	fs, _ := OpenEdges(dev, "grid")
	for pass := 0; pass < 2; pass++ {
		n := int64(0)
		if err := fs.Edges(func(b []core.Edge) error { n += int64(len(b)); return nil }); err != nil {
			t.Fatal(err)
		}
		if n != src.NumEdges() {
			t.Fatalf("pass %d: %d edges", pass, n)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dev := testDev(t)
	f, _ := dev.Create("junk")
	f.WriteAt([]byte("this is not an edge file, not even close"), 0)
	f.Close()
	if _, err := OpenEdges(dev, "junk"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := OpenEdges(dev, "missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	dev := testDev(t)
	src := graphgen.Grid(3, 3, 1)
	if err := WriteEdges(dev, "t", src); err != nil {
		t.Fatal(err)
	}
	f, _ := dev.Open("t")
	f.Truncate(f.Size() - 5)
	f.Close()
	if _, err := OpenEdges(dev, "t"); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestTextRoundTrip(t *testing.T) {
	in := []core.Edge{{Src: 0, Dst: 1, Weight: 0.5}, {Src: 5, Dst: 2, Weight: 0.125}}
	var buf bytes.Buffer
	if err := WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, n, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("n=%d got=%+v", n, got)
	}
}

func TestTextParsing(t *testing.T) {
	input := `# a comment
0 1
1 2 0.5

# another
2 0 0.25
`
	edges, n, err := ParseText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 3 {
		t.Fatalf("n=%d len=%d", n, len(edges))
	}
	if edges[1].Weight != 0.5 {
		t.Fatalf("explicit weight lost: %+v", edges[1])
	}
	if w := edges[0].Weight; w < 0 || w >= 1 {
		t.Fatalf("assigned weight %f out of [0,1)", w)
	}

	if _, _, err := ParseText(strings.NewReader("0\n")); err == nil {
		t.Fatal("short line accepted")
	}
	if _, _, err := ParseText(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-numeric accepted")
	}
	if _, _, err := ParseText(strings.NewReader("1 2 x\n")); err == nil {
		t.Fatal("bad weight accepted")
	}
}

// streamThroughFaults writes src on dev, then streams it back and checks
// record-for-record equality with the original.
func streamThroughFaults(t *testing.T, dev storage.Device, src core.EdgeSource) {
	t.Helper()
	if err := WriteEdges(dev, "g", src); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenEdges(dev, "g")
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Materialize(src)
	if len(got) != len(want) {
		t.Fatalf("streamed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestShortReadRecovery(t *testing.T) {
	// A device that returns short reads must still stream whole records.
	inner := storage.NewSim(storage.SSDParams("t", 1, 0))
	dev := storage.NewFaulty(inner, storage.FaultyOptions{ShortReads: 17}) // not a multiple of 12
	streamThroughFaults(t, dev, graphgen.Grid(4, 4, 2))
}

// TestShortReadRecoveryOneByte: the pathological device that never hands
// back more than one byte per ReadAt — every header field and every
// 12-byte edge record must be reassembled from single-byte reads.
func TestShortReadRecoveryOneByte(t *testing.T) {
	inner := storage.NewSim(storage.SSDParams("t", 1, 0))
	dev := storage.NewFaulty(inner, storage.FaultyOptions{ShortReads: 1})
	streamThroughFaults(t, dev, graphgen.Grid(3, 3, 1))
}

// TestShortReadRecoveryRandom: probabilistic short reads splitting
// requests at schedule-driven points mid-record must never change the
// streamed records, and the schedule must actually fire.
func TestShortReadRecoveryRandom(t *testing.T) {
	inner := storage.NewSim(storage.SSDParams("t", 1, 0))
	dev := storage.NewFaulty(inner, storage.FaultyOptions{Seed: 7, ShortRead: 0.5})
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 3})
	streamThroughFaults(t, dev, src)
	if n := dev.(storage.FaultInjector).Faults(); n == 0 {
		t.Fatal("short-read schedule never fired")
	}
}

// shortWriteDev hands out files whose every WriteAt writes at most 100
// bytes and reports that count with a nil error, as storage.File allows.
type shortWriteDev struct{ storage.Device }

func (d shortWriteDev) Create(name string) (storage.File, error) {
	f, err := d.Device.Create(name)
	return shortWriteFile{f}, err
}

type shortWriteFile struct{ storage.File }

func (f shortWriteFile) WriteAt(p []byte, off int64) (int, error) {
	return f.File.WriteAt(p[:min(len(p), 100)], off)
}

// TestWriteEdgesShortWriteAndClose: WriteEdges finishes a write the device
// reports short with a nil error — the file reads back whole — and returns
// the error of a Close that fails instead of a nil over a file it cannot
// vouch for.
func TestWriteEdgesShortWriteAndClose(t *testing.T) {
	src := graphgen.RMAT(graphgen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 5})
	inner := testDev(t)
	if err := WriteEdges(shortWriteDev{inner}, "short", src); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenEdges(inner, "short")
	if err != nil {
		t.Fatalf("a file written in short writes: %v", err)
	}
	want, _ := core.Materialize(src)
	got, err := core.Materialize(fs)
	if err != nil || len(got) != len(want) {
		t.Fatalf("read back %d of %d edges, err %v", len(got), len(want), err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: %+v want %+v", i, got[i], want[i])
		}
	}

	failClose := storage.NewFaulty(testDev(t), storage.FaultyOptions{CloseErr: 1})
	if err := WriteEdges(failClose, "unclosed", src); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("WriteEdges over a failing Close returned %v, want ErrInjected", err)
	}
}
