package graphio

import (
	"encoding/binary"
	"fmt"
	"io"

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

// WriteRelabeledEdges rewrites src through perm and writes the result as a
// binary edge file on dev — the offline remap for graphs processed many
// times, so the relabeling pass is paid once instead of per run.
func WriteRelabeledEdges(dev storage.Device, name string, src core.EdgeSource, perm []core.VertexID) error {
	return WriteEdges(dev, name, Relabeled(src, perm))
}

// permMagic identifies binary permutation files (version 1). A permutation
// file stores the relabeled->original inverse map alongside a relabeled
// edge file, so results computed over the rewritten graph can be reported
// in the original ID space.
var permMagic = [8]byte{'X', 'S', 'P', 'E', 'R', 'M', '1', '\n'}

// permMagic2 identifies version-2 permutation files, which append a list
// of hub vertices after the permutation: a hub count followed by the hubs'
// execution IDs in ascending order. No engine uses the list; the reader
// checks it and discards it, so these files keep loading.
var permMagic2 = [8]byte{'X', 'S', 'P', 'E', 'R', 'M', '2', '\n'}

// permMagic3 identifies version-3 permutation files, the format the writer
// emits today. Version 3 widens the header to 24 bytes — magic, entry
// count, and a flags word whose low bit records whether a legacy hub list
// follows — and appends a CRC32C trailer covering everything between the
// magic and the trailer. A permutation steers every edge of every later
// run, so a silently corrupted file would skew results with no visible
// failure; the checksum turns that into a typed storage.ErrCorrupted at
// load time. Versions 1 and 2 keep loading unverified, so existing
// datasets need no migration.
var permMagic3 = [8]byte{'X', 'S', 'P', 'E', 'R', 'M', '3', '\n'}

const (
	permV3HeaderLen = 24
	permFlagMirrors = 1 << 0 // a legacy hub count + hub list follows the permutation
)

// writeFullAt writes all of b at off, retrying short writes.
func writeFullAt(f storage.File, b []byte, off int64) error {
	for len(b) > 0 {
		n, err := f.WriteAt(b, off)
		if err != nil {
			return err
		}
		if n <= 0 {
			return fmt.Errorf("write stalled at offset %d", off)
		}
		off += int64(n)
		b = b[n:]
	}
	return nil
}

// readFullAt reads len(b) bytes at off, retrying legal short reads.
func readFullAt(f storage.File, b []byte, off int64) error {
	for len(b) > 0 {
		n, err := f.ReadAt(b, off)
		if n > 0 {
			off += int64(n)
			b = b[n:]
			continue
		}
		if err == nil || err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// WritePermutation stores a vertex ID map as a checksummed version-3
// permutation file with flags 0.
func WritePermutation(dev storage.Device, name string, perm []core.VertexID) error {
	f, err := dev.Create(name)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		return fmt.Errorf("graphio: write %s: %w", name, err)
	}
	hdr := make([]byte, permV3HeaderLen)
	copy(hdr, permMagic3[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(perm)))
	if err := writeFullAt(f, hdr, 0); err != nil {
		return fail(err)
	}
	crc := storage.ChecksumUpdate(0, hdr[8:])
	off := int64(permV3HeaderLen)
	if len(perm) > 0 {
		body := pod.AsBytes(perm)
		if err := writeFullAt(f, body, off); err != nil {
			return fail(err)
		}
		crc = storage.ChecksumUpdate(crc, body)
		off += int64(len(body))
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	if err := writeFullAt(f, trailer[:], off); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graphio: write %s: %w", name, err)
	}
	return nil
}

// ReadPermutation loads a binary permutation file and validates that it is
// a permutation of [0, n). A legacy hub list (version 2, or version 3 with
// the mirror flag) must be well formed, and is then discarded. Version-3
// files are checksum-verified before a single field is trusted; a mismatch,
// or an entry count the file is too short to hold, surfaces as an error
// wrapping storage.ErrCorrupted.
func ReadPermutation(dev storage.Device, name string) ([]core.VertexID, error) {
	f, err := dev.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if f.Size() < 16 {
		return nil, fmt.Errorf("graphio: %s: not a permutation file", name)
	}
	hdr := make([]byte, 16)
	if err := readFullAt(f, hdr, 0); err != nil {
		return nil, err
	}
	if string(hdr[:8]) == string(permMagic3[:]) {
		return readPermV3(f, name)
	}
	v2 := string(hdr[:8]) == string(permMagic2[:])
	if !v2 && string(hdr[:8]) != string(permMagic[:]) {
		return nil, fmt.Errorf("graphio: %s: not a permutation file", name)
	}
	size := f.Size()
	n := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if n < 0 || n > (size-int64(len(hdr)))/4 {
		return nil, fmt.Errorf("graphio: %s: truncated: %d entries in a %d-byte file: %w", name, uint64(n), size, storage.ErrCorrupted)
	}
	perm := make([]core.VertexID, n)
	if n > 0 {
		if err := readFullAt(f, pod.AsBytes(perm), int64(len(hdr))); err != nil {
			return nil, err
		}
	}
	if err := validatePermEntries(name, perm); err != nil {
		return nil, err
	}
	if !v2 {
		return perm, nil
	}
	off := int64(len(hdr)) + n*4
	// The hub count must actually be present: a v2 file cut right after
	// the permutation is a damaged file, not one without a hub list.
	if size < off+8 {
		return nil, fmt.Errorf("graphio: %s: truncated mirror header: %d bytes, want %d", name, size, off+8)
	}
	cnt := make([]byte, 8)
	if err := readFullAt(f, cnt, off); err != nil {
		return nil, err
	}
	h := int64(binary.LittleEndian.Uint64(cnt))
	if h < 0 || h > n {
		return nil, fmt.Errorf("graphio: %s: %d mirrored hubs for %d vertices", name, h, n)
	}
	if want := off + 8 + h*4; size < want {
		return nil, fmt.Errorf("graphio: %s: truncated mirror list: %d bytes, want %d", name, size, want)
	}
	if err := checkHubList(f, name, off+8, h, n); err != nil {
		return nil, err
	}
	return perm, nil
}

// readPermV3 loads a version-3 permutation file. The trailer checksum is
// verified over the whole payload before any field is interpreted, so a
// flipped bit anywhere — header, permutation, hub list — is reported as
// storage.ErrCorrupted rather than loaded.
func readPermV3(f storage.File, name string) ([]core.VertexID, error) {
	corrupt := func(detail string) error {
		return fmt.Errorf("graphio: %s: %s: %w", name, detail, storage.ErrCorrupted)
	}
	size := f.Size()
	if size < permV3HeaderLen+4 {
		return nil, corrupt(fmt.Sprintf("truncated: %d bytes", size))
	}
	hdr := make([]byte, permV3HeaderLen)
	if err := readFullAt(f, hdr, 0); err != nil {
		return nil, err
	}
	crc := storage.ChecksumUpdate(0, hdr[8:])
	buf := make([]byte, 1<<20)
	end := size - 4
	for off := int64(permV3HeaderLen); off < end; {
		n := int64(len(buf))
		if n > end-off {
			n = end - off
		}
		if err := readFullAt(f, buf[:n], off); err != nil {
			return nil, err
		}
		crc = storage.ChecksumUpdate(crc, buf[:n])
		off += n
	}
	var trailer [4]byte
	if err := readFullAt(f, trailer[:], end); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(trailer[:]) != crc {
		return nil, corrupt("checksum mismatch")
	}

	n := int64(binary.LittleEndian.Uint64(hdr[8:]))
	flags := binary.LittleEndian.Uint64(hdr[16:])
	if n < 0 || n > (size-permV3HeaderLen-4)/4 {
		return nil, corrupt(fmt.Sprintf("%d entries in a %d-byte file", n, size))
	}
	off := int64(permV3HeaderLen)
	perm := make([]core.VertexID, n)
	if n > 0 {
		if err := readFullAt(f, pod.AsBytes(perm), off); err != nil {
			return nil, err
		}
	}
	off += n * 4
	var hubOff, h int64
	if flags&permFlagMirrors != 0 {
		if size < off+8+4 {
			return nil, corrupt("truncated mirror header")
		}
		cnt := make([]byte, 8)
		if err := readFullAt(f, cnt, off); err != nil {
			return nil, err
		}
		if h = int64(binary.LittleEndian.Uint64(cnt)); h < 0 || h > n {
			return nil, corrupt(fmt.Sprintf("%d mirrored hubs for %d vertices", h, n))
		}
		hubOff = off + 8
		off = hubOff + h*4
	}
	if off+4 != size {
		return nil, corrupt(fmt.Sprintf("%d bytes, sections account for %d", size, off+4))
	}
	if err := validatePermEntries(name, perm); err != nil {
		return nil, err
	}
	if err := checkHubList(f, name, hubOff, h, n); err != nil {
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

// checkHubList reads the h-entry legacy hub list at off and checks that it
// is strictly ascending in [0, n).
func checkHubList(f storage.File, name string, off, h, n int64) error {
	hubs := make([]core.VertexID, h)
	if h > 0 {
		if err := readFullAt(f, pod.AsBytes(hubs), off); err != nil {
			return err
		}
	}
	for i, hv := range hubs {
		if int64(hv) >= n || (i > 0 && hv <= hubs[i-1]) {
			return fmt.Errorf("graphio: %s: mirror entry %d = %d is not strictly ascending in [0,%d)", name, i, hv, n)
		}
	}
	return nil
}
