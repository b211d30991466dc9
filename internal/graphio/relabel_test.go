package graphio

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func testPerm() []core.VertexID { return []core.VertexID{2, 0, 3, 1} }

func TestRelabeledSource(t *testing.T) {
	edges := []core.Edge{{Src: 0, Dst: 1, Weight: 0.5}, {Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 0, Weight: 2}}
	src := core.NewSliceSource(edges, 4)
	rel := Relabeled(src, testPerm())
	if rel.NumVertices() != 4 || rel.NumEdges() != 3 {
		t.Fatalf("counts: %d vertices, %d edges", rel.NumVertices(), rel.NumEdges())
	}
	got, err := core.Materialize(rel)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Edge{{Src: 2, Dst: 0, Weight: 0.5}, {Src: 3, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// Re-streamable: a second pass yields the same rewrite.
	again, err := core.Materialize(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got) || again[0] != got[0] {
		t.Fatal("second stream differs")
	}
	// nil perm is the identity shortcut.
	if Relabeled(src, nil) != src {
		t.Fatal("nil perm should return src unchanged")
	}
}

func TestRelabeledSourceErrors(t *testing.T) {
	src := core.NewSliceSource([]core.Edge{{Src: 0, Dst: 1}}, 2)
	// Wrong permutation length.
	err := Relabeled(src, []core.VertexID{0}).Edges(func([]core.Edge) error { return nil })
	if err == nil {
		t.Fatal("short permutation accepted")
	}
	// Edge outside the declared vertex count.
	bad := core.NewSliceSource([]core.Edge{{Src: 7, Dst: 1}}, 2)
	err = Relabeled(bad, []core.VertexID{0, 1}).Edges(func([]core.Edge) error { return nil })
	if err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestPermutationFileRoundTrip(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	perm := testPerm()
	if err := WritePermutation(dev, "g.perm", perm); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPermutation(dev, "g.perm")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(perm) {
		t.Fatalf("length %d, want %d", len(got), len(perm))
	}
	for i := range perm {
		if got[i] != perm[i] {
			t.Fatalf("entry %d: %d, want %d", i, got[i], perm[i])
		}
	}
	// Empty permutation round-trips too.
	if err := WritePermutation(dev, "empty.perm", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadPermutation(dev, "empty.perm"); err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
}

// TestPermutationChecksumDetectsCorruption: a single flipped bit anywhere
// in a permutation file — header count, flags word, permutation body, or
// the trailer itself — must surface as storage.ErrCorrupted, never as a
// silently different permutation.
func TestPermutationChecksumDetectsCorruption(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	n := 64
	perm := make([]core.VertexID, n)
	for i := range perm {
		perm[i] = core.VertexID(n - 1 - i)
	}
	if err := WritePermutation(dev, "c.xsperm", perm); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPermutation(dev, "c.xsperm"); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	f, err := dev.Open("c.xsperm")
	if err != nil {
		t.Fatal(err)
	}
	size := f.Size()
	f.Close()
	offsets := []int64{
		8,                  // header: entry count
		16,                 // header: flags word
		permHeaderLen + 13, // permutation body
		size - 2,           // trailer checksum
	}
	for _, off := range offsets {
		flip := func() {
			f, err := dev.Open("c.xsperm")
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 1)
			if _, err := f.ReadAt(b, off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x04
			if _, err := f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		flip()
		if _, err := ReadPermutation(dev, "c.xsperm"); !errors.Is(err, storage.ErrCorrupted) {
			t.Fatalf("bit flip at offset %d: got %v, want ErrCorrupted", off, err)
		}
		flip() // restore for the next offset
		if _, err := ReadPermutation(dev, "c.xsperm"); err != nil {
			t.Fatalf("restored file rejected after offset %d: %v", off, err)
		}
	}
}

// TestPermutationTruncationDetected: cutting a permutation file anywhere
// is reported as corruption, including cuts too short to hold the frame.
func TestPermutationTruncationDetected(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	if err := WritePermutation(dev, "t.xsperm", []core.VertexID{3, 1, 0, 2}); err != nil {
		t.Fatal(err)
	}
	file := readFile(t, dev, "t.xsperm")
	f, err := dev.Open("t.xsperm")
	if err != nil {
		t.Fatal(err)
	}
	size := f.Size()
	f.Close()
	for _, cut := range []int64{size - 3, size - 5, 30, 10} {
		f, err := dev.Open("t.xsperm")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = ReadPermutation(dev, "t.xsperm")
		if cut >= 16 {
			if !errors.Is(err, storage.ErrCorrupted) {
				t.Fatalf("cut to %d bytes: got %v, want ErrCorrupted", cut, err)
			}
		} else if err == nil {
			t.Fatalf("cut to %d bytes accepted", cut)
		}
		putFile(t, dev, "t.xsperm", file)
	}
}

// TestPermutationShortReadRecovery: the permutation reader must survive a
// device that returns one byte per ReadAt — the pathological legal short
// read — and still verify the checksum over the reassembled stream.
func TestPermutationShortReadRecovery(t *testing.T) {
	inner := storage.NewSim(storage.SSDParams("t", 1, 0))
	dev := storage.NewFaulty(inner, storage.FaultyOptions{ShortReads: 1})
	perm := testPerm()
	putFile(t, dev, "s.xsperm", goldenBytes(t, goldenPermV3))
	got, err := ReadPermutation(dev, "s.xsperm")
	if err != nil {
		t.Fatal(err)
	}
	for i := range perm {
		if got[i] != perm[i] {
			t.Fatalf("entry %d: %d, want %d", i, got[i], perm[i])
		}
	}
}

func TestReadPermutationRejectsNonPermutation(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("t", 1, 0))
	// Duplicate entry.
	if err := WritePermutation(dev, "dup.perm", []core.VertexID{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPermutation(dev, "dup.perm"); err == nil {
		t.Fatal("duplicate entries accepted")
	}
	// Out-of-range entry.
	if err := WritePermutation(dev, "oor.perm", []core.VertexID{0, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPermutation(dev, "oor.perm"); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	// Not a permutation file at all.
	if err := WriteEdges(dev, "edges.bin", core.NewSliceSource([]core.Edge{{Src: 0, Dst: 1}}, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPermutation(dev, "edges.bin"); err == nil {
		t.Fatal("edge file accepted as permutation")
	}
}
