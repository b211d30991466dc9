package graphio

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

// Partition plans src's partitioning into k parts with pr — the range
// partitioner when nil, a locality-aware one paying its streaming passes
// now — and returns the validated plan, the partitioner's name and src
// rewritten through the plan's relabeling: both engines' ingest up to
// their edge shuffle.
func Partition(src core.EdgeSource, pr core.Partitioner, k int) (core.EdgeSource, *core.Assignment, string, error) {
	if pr == nil {
		pr = core.RangePartitioner{}
	}
	asg, err := pr.Assign(src, k)
	if err == nil {
		err = asg.Validate(src.NumVertices())
	}
	if err != nil {
		return nil, nil, "", fmt.Errorf("partitioner %s: %w", pr.Name(), err)
	}
	return Relabeled(src, asg.Relabel), asg, pr.Name(), nil
}

// Relabeled returns an EdgeSource streaming src with both endpoints of
// every edge rewritten through perm (original ID -> relabeled ID). It is a
// pure streaming transformation, the remap stage engines insert between
// the input edge list and their partition shuffle when a locality-aware
// Partitioner is active. A nil perm returns src unchanged. perm must have
// exactly src.NumVertices() entries; a mismatch surfaces as an error from
// Edges rather than a panic mid-stream.
func Relabeled(src core.EdgeSource, perm []core.VertexID) core.EdgeSource {
	if perm == nil {
		return src
	}
	return &relabeledSource{inner: src, perm: perm}
}

type relabeledSource struct {
	inner core.EdgeSource
	perm  []core.VertexID
}

func (r *relabeledSource) NumVertices() int64 { return r.inner.NumVertices() }
func (r *relabeledSource) NumEdges() int64    { return r.inner.NumEdges() }

func (r *relabeledSource) Edges(fn func([]core.Edge) error) error {
	if int64(len(r.perm)) != r.inner.NumVertices() {
		return fmt.Errorf("graphio: relabel permutation has %d entries for %d vertices", len(r.perm), r.inner.NumVertices())
	}
	n := core.VertexID(len(r.perm))
	buf := make([]core.Edge, 0, 64<<10)
	return r.inner.Edges(func(batch []core.Edge) error {
		// Batches alias the inner source's buffers; rewrite into our own.
		if cap(buf) < len(batch) {
			buf = make([]core.Edge, 0, len(batch))
		}
		buf = buf[:len(batch)]
		for i, e := range batch {
			if e.Src >= n || e.Dst >= n {
				return fmt.Errorf("graphio: edge (%d,%d) references a vertex outside [0,%d)", e.Src, e.Dst, n)
			}
			buf[i] = core.Edge{Src: r.perm[e.Src], Dst: r.perm[e.Dst], Weight: e.Weight}
		}
		return fn(buf)
	})
}

// permMagic identifies binary permutation files. A permutation file
// stores a vertex ID map — a partitioner's plan, persisted so its passes
// are paid once per dataset — as a 24-byte header (magic, entry count, a
// flags word that must be 0), the entries, and a CRC32C trailer covering
// everything between the magic and the trailer. A permutation steers every
// edge of every later run, so a silently corrupted file would skew results
// with no visible failure; the checksum turns that into a typed
// storage.ErrCorrupted at load time. The "3" is the format's revision:
// earlier revisions are not read, a plan being a derived artifact that
// its planner recomputes.
var permMagic = [8]byte{'X', 'S', 'P', 'E', 'R', 'M', '3', '\n'}

const permHeaderLen = 24

// WritePermutation stores a vertex ID map as a checksummed permutation
// file.
func WritePermutation(dev storage.Device, name string, perm []core.VertexID) error {
	f, err := dev.Create(name)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		return fmt.Errorf("graphio: write %s: %w", name, err)
	}
	hdr := make([]byte, permHeaderLen)
	copy(hdr, permMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(perm)))
	if err := storage.WriteFull(f, hdr, 0); err != nil {
		return fail(err)
	}
	crc := storage.ChecksumUpdate(0, hdr[8:])
	off := int64(permHeaderLen)
	if len(perm) > 0 {
		body := pod.AsBytes(perm)
		if err := storage.WriteFull(f, body, off); err != nil {
			return fail(err)
		}
		crc = storage.ChecksumUpdate(crc, body)
		off += int64(len(body))
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	if err := storage.WriteFull(f, trailer[:], off); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graphio: write %s: %w", name, err)
	}
	return nil
}

// ReadPermutation loads a permutation file as WritePermutation writes it
// and validates that it is a permutation of [0, n). The checksum is
// verified over the whole payload before a single field is trusted; a
// mismatch, or an entry count that does not match the file's length,
// surfaces as an error wrapping storage.ErrCorrupted. A file of an earlier
// revision (another magic, or nonzero flags) is an error too.
func ReadPermutation(dev storage.Device, name string) ([]core.VertexID, error) {
	f, err := dev.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := f.Size()
	hdr := make([]byte, permHeaderLen)
	if size < 8 {
		return nil, fmt.Errorf("graphio: %s: not a permutation file", name)
	}
	if err := storage.ReadFull(f, hdr[:8], 0); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != string(permMagic[:]) {
		if string(hdr[:6]) == string(permMagic[:6]) {
			return nil, fmt.Errorf("graphio: %s: permutation format %q is no longer read; plan again to rewrite it", name, hdr[:7])
		}
		return nil, fmt.Errorf("graphio: %s: not a permutation file", name)
	}
	corrupt := func(detail string) error {
		return fmt.Errorf("graphio: %s: %s: %w", name, detail, storage.ErrCorrupted)
	}
	body := size - permHeaderLen - 4
	if body < 0 || body%4 != 0 {
		return nil, corrupt(fmt.Sprintf("truncated: %d bytes", size))
	}
	// The entries are read once, sized by the file rather than by the
	// not yet verified header, and checksummed in place.
	perm := make([]core.VertexID, body/4)
	var trailer [4]byte
	if err := storage.ReadFull(f, hdr[8:], 8); err != nil {
		return nil, err
	}
	if err := storage.ReadFull(f, pod.AsBytes(perm), permHeaderLen); err != nil {
		return nil, err
	}
	if err := storage.ReadFull(f, trailer[:], size-4); err != nil {
		return nil, err
	}
	crc := storage.ChecksumUpdate(storage.ChecksumUpdate(0, hdr[8:]), pod.AsBytes(perm))
	if binary.LittleEndian.Uint32(trailer[:]) != crc {
		return nil, corrupt("checksum mismatch")
	}
	if flags := binary.LittleEndian.Uint64(hdr[16:]); flags != 0 {
		return nil, fmt.Errorf("graphio: %s: permutation flags %#x are no longer read; plan again to rewrite it", name, flags)
	}
	if n := binary.LittleEndian.Uint64(hdr[8:]); n != uint64(len(perm)) {
		return nil, corrupt(fmt.Sprintf("%d entries in a %d-byte file", n, size))
	}
	if err := validatePermEntries(name, perm); err != nil {
		return nil, err
	}
	return perm, nil
}

// validatePermEntries checks that perm is a permutation of [0, len(perm)).
func validatePermEntries(name string, perm []core.VertexID) error {
	n := int64(len(perm))
	seen := make([]bool, n)
	for i, v := range perm {
		if int64(v) >= n || seen[v] {
			return fmt.Errorf("graphio: %s: entry %d = %d is not part of a permutation of [0,%d)", name, i, v, n)
		}
		seen[v] = true
	}
	return nil
}
