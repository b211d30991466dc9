package diskengine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/storage"
)

// partFile is one append-only partition file (edges, updates or vertices),
// created empty. It keeps no checksum: each one lives with the code that
// verifies it — an edge file's in its tile index, an update file's and a
// vertex window's in their store.
type partFile struct {
	dev  storage.Device
	name string
	f    storage.File
	size int64 // append offset
}

func createPartFile(dev storage.Device, name string) (*partFile, error) {
	f, err := dev.Create(name)
	if err != nil {
		return nil, err
	}
	return &partFile{dev: dev, name: name, f: f}, nil
}

// appendBytes appends b at the current end of file. The append offset
// advances only once all of b is written, so a failed append leaves the
// file positionally consistent: a retry of the same append overwrites any
// torn prefix the device may have persisted.
func (p *partFile) appendBytes(b []byte) error {
	if err := storage.WriteFull(p.f, b, p.size); err != nil {
		return fmt.Errorf("diskengine: append %s: %w", p.name, err)
	}
	p.size += int64(len(b))
	return nil
}

// truncate empties the file. On SSDs the paper relies on truncation
// translating to TRIM to relieve the flash garbage collector (§3.3); the
// storage layer counts it as such.
func (p *partFile) truncate() error {
	p.size = 0
	return p.f.Truncate(0)
}

func (p *partFile) close() error { return p.f.Close() }

func (p *partFile) remove() error {
	p.f.Close()
	return p.dev.Remove(p.name)
}

// createPartFiles creates one empty file per partition of k on dev, named
// <name>0000.<ext> up: a set of edge, transposed edge, degree, update or
// vertex files. A failure removes the files already made.
func createPartFiles(dev storage.Device, name, ext string, k int) ([]*partFile, error) {
	files := make([]*partFile, k)
	for p := range files {
		f, err := createPartFile(dev, fmt.Sprintf("%s%04d.%s", name, p, ext))
		if err != nil {
			removePartFiles(files)
			return nil, err
		}
		files[p] = f
	}
	return files, nil
}

// removePartFiles closes and removes every file of the sets.
func removePartFiles(sets ...[]*partFile) {
	for _, files := range sets {
		for _, f := range files {
			if f != nil {
				f.remove()
			}
		}
	}
}

// readScratch is the reader-side record buffers an engine run, a shared
// pass or a drain worker owns for its whole life and lends to one open
// reader at a time: the two buffers of the prefetch double buffer, which
// the reader's storage.Prefetcher makes on first use and grows when a
// reader asks for more (one that reads inline uses only the first); a
// reader's Close hands them back.
type readScratch[T any] struct {
	busy atomic.Bool // lent to an open reader
	bufs [2][]T
}

// chunkScratch is the update store's drain scratch: byte buffers and the
// chunk reader lent them.
type chunkScratch struct {
	readScratch[byte]
	rd chunkReader
}

// chunkReader streams a byte range of an update file sequentially in
// fixed-size chunks, prefetching the next chunk while the caller processes
// the current one unless its storage.Prefetcher reads inline.
type chunkReader struct {
	sc         *chunkScratch // nil once closed
	f          storage.File
	chunkBytes int
	off, end   int64 // unread byte range
	pre        storage.Prefetcher[byte]
}

// openChunks lends the scratch to a reader streaming the byte range
// [start, end) of f, chunkBytes per I/O request. With prefetch a dedicated
// goroutine reads ahead — unless the range is a single chunk, which has
// nothing to overlap with and is read inline like the no-prefetch ablation.
// It returns nil when the scratch is still lent to another reader.
func (sc *chunkScratch) openChunks(f storage.File, start, end int64, chunkBytes int, prefetch bool) *chunkReader {
	if !sc.busy.CompareAndSwap(false, true) {
		return nil
	}
	r := &sc.rd
	*r = chunkReader{sc: sc, f: f, chunkBytes: chunkBytes, off: start, end: end}
	r.pre.Start(r, &sc.bufs, chunkBytes, prefetch && end-start > int64(chunkBytes))
	return r
}

// Fill implements storage.Filler: it reads the next chunk into buf. A file
// shorter than the range ends the stream early (storage.ReadUpTo); the
// caller's byte-count check turns the shortfall into ErrCorrupted.
func (r *chunkReader) Fill(buf []byte) ([]byte, int64, error) {
	n := min(int64(r.chunkBytes), r.end-r.off)
	if n <= 0 {
		return nil, 0, nil
	}
	got, err := storage.ReadUpTo(r.f, buf[:n], r.off)
	if err != nil || got == 0 {
		return nil, 0, err
	}
	r.off += int64(got)
	return buf[:got], int64(got), nil
}

// Next returns the next chunk, or nil at end of stream. The returned slice
// is only valid until the following Next call.
func (r *chunkReader) Next() ([]byte, error) {
	chunk, _, err := r.pre.Next()
	return chunk, err
}

// Close stops the prefetch and only then hands the scratch back: once it
// is free the next reader may overwrite this one. Safe on every path — end
// of stream, early close, read error — and idempotent.
func (r *chunkReader) Close() {
	if sc := r.sc; sc != nil {
		r.pre.Stop()
		r.sc = nil
		sc.busy.Store(false)
	}
}
