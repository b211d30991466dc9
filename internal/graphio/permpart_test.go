package graphio

import (
	"encoding/binary"
	"encoding/hex"
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
// rest. The writer emits none of these today, and the reader loads none.
func legacyPerm(version int, perm, hubs []core.VertexID) []byte {
	buf := fmt.Appendf(nil, "XSPERM%d\n", version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(perm)))
	if version == 3 {
		buf = binary.LittleEndian.AppendUint64(buf, 1) // the hub-list flag
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
	if err := storage.ReadFull(f, b, 0); err != nil {
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

// TestLoadPartitionerLegacyHubList: a file an earlier writer saved with a
// hub list does not replay through LoadPartitioner, while the same
// permutation without one does.
func TestLoadPartitionerLegacyHubList(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	src := core.NewSliceSource([]core.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 2}}, 4)
	putFile(t, dev, "plain.xsperm", goldenBytes(t, goldenPermV3))
	putFile(t, dev, "hubs.xsperm", goldenBytes(t, goldenPermV3Hubs))
	pr, err := LoadPartitioner(dev, "plain.xsperm")
	if err != nil {
		t.Fatal(err)
	}
	asg, err := pr.Assign(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := asg.Validate(4); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPartitioner(dev, "hubs.xsperm"); err == nil {
		t.Fatal("LoadPartitioner replays a file with a hub list")
	}
}

// TestPermutationVersionCompat: ReadPermutation reads only what
// WritePermutation writes. Version-1 files, version-2 files and version-3
// files with the hub-list flag are errors, even though each holds a valid
// permutation; the current file loads.
func TestPermutationVersionCompat(t *testing.T) {
	dev := storage.NewSim(storage.SSDParams("perm", 1, 0))
	perm := []core.VertexID{2, 0, 3, 1}
	putFile(t, dev, "v3", goldenBytes(t, goldenPermV3))
	got, err := ReadPermutation(dev, "v3")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, perm) {
		t.Fatalf("v3: loaded %v, want %v", got, perm)
	}
	retired := map[string][]byte{
		"v1":            legacyPerm(1, perm, nil),
		"v2":            legacyPerm(2, perm, []core.VertexID{0, 2}),
		"v2-empty-hubs": legacyPerm(2, perm, []core.VertexID{}),
		"v3-hubs":       goldenBytes(t, goldenPermV3Hubs),
		"v3-empty-hubs": goldenBytes(t, goldenPermV3NoHub),
	}
	for name, b := range retired {
		putFile(t, dev, name, b)
		if got, err := ReadPermutation(dev, name); err == nil {
			t.Fatalf("%s: loaded %v from a retired format", name, got)
		}
	}
}

// TestPermutationBadMirrorsRejected: a file with a malformed hub list (out
// of range, unsorted) is an error like every file with a hub list.
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

// FuzzReadPermutation: whatever the bytes, the reader returns an error or
// a permutation of [0, n) — it never panics. Seeded with every shape the
// writers have emitted, the retired ones included.
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
