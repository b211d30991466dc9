package graphio

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/partition2ps"
	"repro/internal/pod"
	"repro/internal/storage"
)

// legacyPerm returns a permutation file byte-for-byte as an earlier writer
// emitted it: version 1 (no hub list), version 2 (hub list, no checksum) or
// version 3 with the hub-list flag set, its hub list checksummed with the
// rest. The writer emits none of these today; the reader must keep loading
// all of them.
func legacyPerm(version int, perm, hubs []core.VertexID) []byte {
	buf := fmt.Appendf(nil, "XSPERM%d\n", version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(perm)))
	if version == 3 {
		buf = binary.LittleEndian.AppendUint64(buf, permFlagMirrors)
	}
	buf = append(buf, pod.AsBytes(perm)...)
	if version > 1 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(hubs)))
		buf = append(buf, pod.AsBytes(hubs)...)
	}
	if version == 3 {
		buf = binary.LittleEndian.AppendUint32(buf, storage.ChecksumUpdate(0, buf[8:]))
	}
	return buf
}

// putFile stores b as the whole of file name on dev.
func putFile(t testing.TB, dev storage.Device, name string, b []byte) {
	t.Helper()
	f, err := dev.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readFile returns the whole of file name on dev.
func readFile(t testing.TB, dev storage.Device, name string) []byte {
	t.Helper()
	f, err := dev.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, f.Size())
	if err := readFullAt(f, b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSaveLoadPartitionerRoundTrip: a 2PS assignment saved during Assign
// must replay identically from the permutation file, with no clustering
// pass on replay.
func TestSaveLoadPartitionerRoundTrip(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	edges := []core.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 2},
		{Src: 4, Dst: 5}, {Src: 5, Dst: 4},
		{Src: 0, Dst: 2}, {Src: 1, Dst: 3},
	}
	src := core.NewSliceSource(edges, 8)

	saving := SavingPartitioner(partition2ps.New(), dev, "g.xsperm")
	if saving.Name() != partition2ps.New().Name() {
		t.Fatalf("saving wrapper changed the policy name to %q", saving.Name())
	}
	want, err := saving.Assign(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Validate(8); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadPartitioner(dev, "g.xsperm")
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Assign(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(8); err != nil {
		t.Fatal(err)
	}
	for v := core.VertexID(0); v < 8; v++ {
		if got.NewID(v) != want.NewID(v) {
			t.Fatalf("vertex %d: replayed id %d, want %d", v, got.NewID(v), want.NewID(v))
		}
	}
}

// TestSavingPartitionerIdentity: an identity assignment (range) persists
// an explicit identity permutation so later loads work uniformly.
func TestSavingPartitionerIdentity(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	src := core.NewSliceSource([]core.Edge{{Src: 0, Dst: 1}}, 2)
	if _, err := SavingPartitioner(core.RangePartitioner{}, dev, "id.xsperm").Assign(src, 2); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPartitioner(dev, "id.xsperm")
	if err != nil {
		t.Fatal(err)
	}
	asg, err := loaded.Assign(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if asg.NewID(0) != 0 || asg.NewID(1) != 1 {
		t.Fatalf("identity permutation did not replay: %v %v", asg.NewID(0), asg.NewID(1))
	}
}

// TestLoadPartitionerMissingFile: a missing permutation file errors
// instead of silently degrading to the identity.
func TestLoadPartitionerMissingFile(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	if _, err := LoadPartitioner(dev, "nope.xsperm"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Files the writer of the previous format revision produced for the
// permutation [2 0 3 1]: without a hub list (the only shape it still
// writes), with the hub list [0 3], and with an empty hub list.
const (
	goldenPermV3      = "58535045524d330a04000000000000000000000000000000020000000000000003000000010000005a35ff9b"
	goldenPermV3Hubs  = "58535045524d330a040000000000000001000000000000000200000000000000030000000100000002000000000000000000000003000000fed80c81"
	goldenPermV3NoHub = "58535045524d330a0400000000000000010000000000000002000000000000000300000001000000000000000000000087ef374e"
)

func goldenBytes(t testing.TB, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWritePermutationGoldenBytes: the writer's output is byte-identical
// to what the previous format revision wrote for a permutation without a
// hub list, and legacyPerm reproduces that revision's files with one.
func TestWritePermutationGoldenBytes(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	perm := []core.VertexID{2, 0, 3, 1}
	if err := WritePermutation(dev, "g.xsperm", perm); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(readFile(t, dev, "g.xsperm")); got != goldenPermV3 {
		t.Fatalf("writer emitted %s, want %s", got, goldenPermV3)
	}
	if got := hex.EncodeToString(legacyPerm(3, perm, []core.VertexID{0, 3})); got != goldenPermV3Hubs {
		t.Fatalf("legacyPerm v3 with hubs = %s, want %s", got, goldenPermV3Hubs)
	}
	if got := hex.EncodeToString(legacyPerm(3, perm, []core.VertexID{})); got != goldenPermV3NoHub {
		t.Fatalf("legacyPerm v3 with an empty hub list = %s, want %s", got, goldenPermV3NoHub)
	}
}

// TestLoadPartitionerLegacyHubList: a file the previous writer saved
// with a hub list replays through LoadPartitioner to the same relabeling
// as the file without one.
func TestLoadPartitionerLegacyHubList(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	src := core.NewSliceSource([]core.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 2}}, 4)
	putFile(t, dev, "plain.xsperm", goldenBytes(t, goldenPermV3))
	putFile(t, dev, "hubs.xsperm", goldenBytes(t, goldenPermV3Hubs))
	var asgs []*core.Assignment
	for _, name := range []string{"plain.xsperm", "hubs.xsperm"} {
		pr, err := LoadPartitioner(dev, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		asg, err := pr.Assign(src, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := asg.Validate(4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		asgs = append(asgs, asg)
	}
	for v := core.VertexID(0); v < 4; v++ {
		if asgs[1].NewID(v) != asgs[0].NewID(v) {
			t.Fatalf("vertex %d: replayed id %d with a hub list, %d without", v, asgs[1].NewID(v), asgs[0].NewID(v))
		}
	}
}

// TestPermutationVersionCompat: version-1 files (no hub list), version-2
// files (hub list, no checksum) and version-3 files with or without a hub
// list all load to the same permutation; the hub list is discarded.
func TestPermutationVersionCompat(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	perm := []core.VertexID{2, 0, 3, 1}
	files := map[string][]byte{
		"v1":            legacyPerm(1, perm, nil),
		"v2":            legacyPerm(2, perm, []core.VertexID{0, 2}),
		"v2-empty-hubs": legacyPerm(2, perm, []core.VertexID{}),
		"v3":            goldenBytes(t, goldenPermV3),
		"v3-hubs":       goldenBytes(t, goldenPermV3Hubs),
		"v3-empty-hubs": goldenBytes(t, goldenPermV3NoHub),
	}
	for name, b := range files {
		putFile(t, dev, name, b)
		got, err := ReadPermutation(dev, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, perm) {
			t.Fatalf("%s: loaded %v, want %v", name, got, perm)
		}
	}
}

// TestPermutationBadMirrorsRejected: a malformed legacy hub list (out of
// range, unsorted) is an error, not a list silently dropped.
func TestPermutationBadMirrorsRejected(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	perm := []core.VertexID{0, 1, 2}
	for _, version := range []int{2, 3} {
		for _, hubs := range [][]core.VertexID{{5}, {2, 1}} {
			putFile(t, dev, "bad.xsperm", legacyPerm(version, perm, hubs))
			if _, err := ReadPermutation(dev, "bad.xsperm"); err == nil {
				t.Fatalf("version %d hub list %v accepted", version, hubs)
			}
		}
	}
}

// TestPermutationTruncatedMirrorHeaderRejected: a v2 file cut right after
// the permutation is a damaged file and must error.
func TestPermutationTruncatedMirrorHeaderRejected(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	perm := []core.VertexID{1, 0, 2}
	full := legacyPerm(2, perm, []core.VertexID{0, 2})
	putFile(t, dev, "cut.xsperm", full[:16+len(perm)*4]) // header + permutation, no hub count
	if _, err := ReadPermutation(dev, "cut.xsperm"); err == nil {
		t.Fatal("truncated v2 file accepted")
	}
}

// TestPermutationHeaderCountBounded: an unverified v1/v2 header whose entry
// count the file cannot hold — including counts that turn negative, or
// overflow when multiplied by the entry size — is a typed corruption error,
// never an allocation panic.
func TestPermutationHeaderCountBounded(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	for _, magic := range []string{"XSPERM1\n", "XSPERM2\n"} {
		for _, n := range []uint64{1 << 63, 1<<62 + 1, 1<<61 + 3, 3} {
			b := binary.LittleEndian.AppendUint64([]byte(magic), n)
			b = append(b, make([]byte, 8)...) // 24 bytes: room for two entries
			putFile(t, dev, "n.xsperm", b)
			if _, err := ReadPermutation(dev, "n.xsperm"); !errors.Is(err, storage.ErrCorrupted) {
				t.Fatalf("%q count %#x: got %v, want ErrCorrupted", magic[:7], n, err)
			}
		}
	}
}

// FuzzReadPermutation: whatever the bytes, the reader returns an error or
// a permutation of [0, n) — it never panics. Seeded with every shape the
// writers have emitted.
func FuzzReadPermutation(f *testing.F) {
	perm := []core.VertexID{2, 0, 3, 1}
	f.Add(legacyPerm(1, perm, nil))
	f.Add(legacyPerm(2, perm, []core.VertexID{0, 3}))
	f.Add(goldenBytes(f, goldenPermV3))
	f.Add(goldenBytes(f, goldenPermV3Hubs))
	f.Fuzz(func(t *testing.T, b []byte) {
		dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
		putFile(t, dev, "f.xsperm", b)
		got, err := ReadPermutation(dev, "f.xsperm")
		if err != nil {
			return
		}
		seen := make([]bool, len(got))
		for i, v := range got {
			if int(v) >= len(got) || seen[v] {
				t.Fatalf("entry %d = %d: %v is not a permutation", i, v, got)
			}
			seen[v] = true
		}
	})
}
