// Package graphio reads and writes edge lists.
//
// The binary format is exactly what X-Stream consumes: a small header
// followed by unordered fixed-size edge records — no sorting, no index.
// Binary files live on a storage.Device so that reading them during
// out-of-core runs is charged to the device like any other stream.
//
// A whitespace text format ("src dst [weight]" lines, # comments) is
// provided for interoperability with SNAP-style downloads.
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

// magic identifies binary edge files (version 1).
var magic = [8]byte{'X', 'S', 'E', 'D', 'G', 'E', '1', '\n'}

const headerSize = 8 + 8 + 8 // magic + numVertices + numEdges

// edgeSize is the on-disk record size.
var edgeSize = pod.Size[core.Edge]()

// WriteEdges streams src into the named binary edge file on dev. It
// returns nil only once every byte is written and the file closed: a short
// write is finished or an error, and so is a failed Close.
func WriteEdges(dev storage.Device, name string, src core.EdgeSource) error {
	f, err := dev.Create(name)
	if err != nil {
		return err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(src.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(src.NumEdges()))
	err = storage.WriteFull(f, hdr, 0)
	off := int64(headerSize)
	if err == nil {
		err = src.Edges(func(batch []core.Edge) error {
			b := pod.AsBytes(batch)
			if err := storage.WriteFull(f, b, off); err != nil {
				return err
			}
			off += int64(len(b))
			return nil
		})
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("graphio: write %s: %w", name, err)
	}
	return nil
}

// FileSource is a re-streamable EdgeSource backed by a binary edge file.
type FileSource struct {
	dev      storage.Device
	name     string
	vertices int64
	edges    int64
	// ChunkEdges is the number of edge records read per I/O request
	// while streaming; Edges holds two buffers of it, one being read
	// while fn consumes the other. The default, 2 MiB a request and
	// 4 MiB for the pair, keeps requests in the multi-megabyte range the
	// paper's Figure 9 identifies as bandwidth-saturating.
	ChunkEdges int
}

// OpenEdges opens a binary edge file for streaming.
func OpenEdges(dev storage.Device, name string) (*FileSource, error) {
	f, err := dev.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if f.Size() < int64(headerSize) {
		return nil, fmt.Errorf("graphio: %s: not a binary edge file", name)
	}
	hdr := make([]byte, headerSize)
	if err := storage.ReadFull(f, hdr, 0); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("graphio: %s: not a binary edge file", name)
	}
	s := &FileSource{
		dev:        dev,
		name:       name,
		vertices:   int64(binary.LittleEndian.Uint64(hdr[8:])),
		edges:      int64(binary.LittleEndian.Uint64(hdr[16:])),
		ChunkEdges: (2 << 20) / edgeSize,
	}
	want := int64(headerSize) + s.edges*int64(edgeSize)
	if got := f.Size(); got < want {
		return nil, fmt.Errorf("graphio: %s: truncated: %d bytes, want %d", name, got, want)
	}
	return s, nil
}

// NumVertices returns the vertex count recorded in the header.
func (s *FileSource) NumVertices() int64 { return s.vertices }

// NumEdges returns the edge record count recorded in the header.
func (s *FileSource) NumEdges() int64 { return s.edges }

// Edges streams the file in ChunkEdges-sized batches, in file order. One
// goroutine reads ahead into the second of two chunk buffers while fn
// consumes the first, so a pass's device reads overlap its compute (§3.3);
// the reader never writes into the batch fn holds. A batch aliases its
// buffer only while fn runs. A read error is returned once fn has seen
// every chunk before it, an fn error stops the reader, and Edges returns
// only after its goroutine has exited. Concurrent calls are independent.
func (s *FileSource) Edges(fn func([]core.Edge) error) error {
	f, err := s.dev.Open(s.name)
	if err != nil {
		return err
	}
	defer f.Close()
	off, remaining := int64(headerSize), s.edges
	var ahead storage.Prefetcher[core.Edge]
	var bufs [2][]core.Edge
	ahead.Start(storage.FillFunc[core.Edge](func(buf []core.Edge) ([]core.Edge, int64, error) {
		// The header's count is the file's: a file that ends first was
		// cut short after OpenEdges, storage.ErrCorrupted.
		recs := buf[:min(int64(len(buf)), remaining)]
		if len(recs) == 0 {
			return nil, 0, nil
		}
		if err := storage.ReadFull(f, pod.AsBytes(recs), off); err != nil {
			return nil, 0, fmt.Errorf("graphio: %s: %w", s.name, err)
		}
		off += int64(len(recs)) * int64(edgeSize)
		remaining -= int64(len(recs))
		return recs, 0, nil
	}), &bufs, int(min(int64(s.ChunkEdges), s.edges)), true)
	defer ahead.Stop() // the reader may be mid-read
	for {
		recs, _, err := ahead.Next()
		if err != nil || recs == nil {
			return err
		}
		if err := fn(recs); err != nil {
			return err
		}
	}
}

// ParseText parses a whitespace-separated text edge list: one "src dst"
// or "src dst weight" per line, '#' starting comments. Edges without
// weights are assigned deterministic pseudo-random weights in [0,1) keyed
// on their position, following the paper's procedure for unweighted inputs
// (§5.2). It returns the edges and the vertex count (max id + 1).
func ParseText(r io.Reader) ([]core.Edge, int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []core.Edge
	var maxID core.VertexID
	lineNo := 0
	rng := newSplitMix(0x9E3779B97F4A7C15)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graphio: line %d: want 'src dst [weight]', got %q", lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graphio: line %d: bad src: %v", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graphio: line %d: bad dst: %v", lineNo, err)
		}
		w := rng.float32()
		if len(fields) >= 3 {
			w64, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, 0, fmt.Errorf("graphio: line %d: bad weight: %v", lineNo, err)
			}
			w = float32(w64)
		}
		e := core.Edge{Src: core.VertexID(src), Dst: core.VertexID(dst), Weight: w}
		edges = append(edges, e)
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	n := int64(0)
	if len(edges) > 0 {
		n = int64(maxID) + 1
	}
	return edges, n, nil
}

// WriteText writes edges in the text format.
func WriteText(w io.Writer, edges []core.Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// splitMix is a tiny deterministic PRNG for assigning weights to
// unweighted inputs without importing math/rand state here.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitMix) float32() float32 {
	return float32(r.next()>>40) / float32(1<<24)
}
