package diskengine

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// openStores is the core.JobSetup.Spill of each run of a pass of jobs runs
// over pp: the run's own files, next to the Prepared's edge files and named
// by a sequence number of the Prepared's (<prefix>r<n>-p0000.updates), so no
// two runs — of one pass or of concurrent passes — share one. The update
// transport's window is one stream buffer (S·K bytes) and its spill store
// the update files; the vertex state spills to the vertex files when it does
// not fit next to the five stream buffers in the run's share of the budget
// (§3.4: nv·|V| + 5·S·K > M/jobs). The stores count what they move on io,
// and a windowed gather stops between partitions once ctx is done.
func (pp *Prepared) openStores(ctx context.Context, jobs, vertexBytes, updateBytes int, io *core.SpillIO) (*core.Spill, error) {
	cfg := pp.cfg
	bufBytes := int64(cfg.IOUnit) * int64(pp.k)
	window := int(bufBytes / int64(updateBytes))
	if window < 1 {
		return nil, fmt.Errorf("diskengine: I/O unit %d too small for update records", cfg.IOUnit)
	}
	upd := &updateStore{
		crcs: make([]uint32, pp.k), recSize: updateBytes, chunkBytes: window * updateBytes,
		prefetch: !cfg.NoPrefetch, verify: !cfg.NoVerify, io: io,
		drain: make([]chunkScratch, cfg.Threads),
	}
	name := fmt.Sprintf("%sr%d-p", cfg.Prefix, pp.runSeq.Add(1)-1)
	var err error
	if upd.files, err = createPartFiles(cfg.UpdateDevice, name, "updates", pp.k); err != nil {
		return nil, err
	}
	sp := &core.Spill{Updates: upd, Window: window, Context: ctx, Close: func() { removePartFiles(upd.files) }}
	if pp.nv*int64(vertexBytes)+5*bufBytes > cfg.MemoryBudget/int64(jobs) {
		verts, err := newWindowStore(cfg, name, "verts", pp.k)
		if err != nil {
			removePartFiles(upd.files)
			return nil, err
		}
		sp.Vertices = vertexStore{verts, io}
		sp.Close = func() { removePartFiles(upd.files, verts.files) }
	}
	return sp, nil
}

// updateStore is the update transport's spill store (core.SpillStore): one
// append-only update file per partition, the update files of §3.2. A window
// the iteration outgrows is appended run by run on the transport's writer
// goroutine. Drain streams a file back with prefetch, verifies its byte
// count and, unless verification is off, its running CRC32C against the
// append side's — a mismatch is storage.ErrCorrupted — and truncates it, so
// the next iteration appends from zero (on SSDs the truncate is the TRIM
// hint of §3.3).
type updateStore struct {
	files      []*partFile
	crcs       []uint32 // per file, the running CRC32C of its appends; kept only under verify
	recSize    int      // bytes per update record
	chunkBytes int      // bytes per read request, whole records
	prefetch   bool
	verify     bool
	io         *core.SpillIO
	// drain is the read-back scratch, one per gather worker, each made on
	// first use. A Drain that finds them all lent reads through a scratch
	// of its own.
	drain []chunkScratch
}

// Append implements core.SpillStore.
func (s *updateStore) Append(p int, run []byte) error {
	if err := s.files[p].appendBytes(run); err != nil {
		return err
	}
	if s.verify {
		s.crcs[p] = storage.ChecksumUpdate(s.crcs[p], run)
	}
	s.io.Written.Add(int64(len(run)))
	return nil
}

// Pending implements core.SpillStore: the bytes appended to partition p's
// file.
func (s *updateStore) Pending(p int) int64 { return s.files[p].size }

// Drain implements core.SpillStore.
func (s *updateStore) Drain(p int, fn func([]byte) error) error {
	uf := s.files[p]
	var crc uint32
	var got int64
	var rd *chunkReader
	for i := 0; i < len(s.drain) && rd == nil; i++ {
		rd = s.drain[i].openChunks(uf.f, 0, uf.size, s.chunkBytes, s.prefetch)
	}
	if rd == nil {
		rd = new(chunkScratch).openChunks(uf.f, 0, uf.size, s.chunkBytes, s.prefetch)
	}
	defer rd.Close()
	for {
		chunk, err := rd.Next()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		if len(chunk)%s.recSize != 0 {
			return fmt.Errorf("diskengine: update file %s: torn record: %d bytes at offset %d: %w",
				uf.name, len(chunk), got, storage.ErrCorrupted)
		}
		got += int64(len(chunk))
		s.io.Read.Add(int64(len(chunk)))
		if s.verify {
			crc = storage.ChecksumUpdate(crc, chunk)
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
	if s.verify {
		if got != uf.size || crc != s.crcs[p] {
			return fmt.Errorf("diskengine: update file %s: %d of %d bytes, checksum %08x, want %08x: %w",
				uf.name, got, uf.size, crc, s.crcs[p], storage.ErrCorrupted)
		}
		s.io.Checked.Add(got)
	}
	s.crcs[p] = 0
	return uf.truncate()
}

// windowStore is one checked file per partition, each holding one window
// rewritten whole: a run's vertex state (the vertex files, .verts) or a
// handle's out-degrees (the degree files, .deg). Unless verification is off
// it keeps the CRC32C of each window last stored in memory, and load checks
// it: a file shorter than the window, or a mismatch, is
// storage.ErrCorrupted. The bytes moved, and checked, are counted on the
// tally each call is passed.
type windowStore struct {
	files []*partFile
	crcs  []uint32 // per file, the CRC32C of the window last stored; nil unless verifying
}

// newWindowStore creates the store's files, <name>0000.<ext> up, on
// cfg.Device.
func newWindowStore(cfg Config, name, ext string, k int) (*windowStore, error) {
	files, err := createPartFiles(cfg.Device, name, ext, k)
	if err != nil {
		return nil, err
	}
	s := &windowStore{files: files}
	if !cfg.NoVerify {
		s.crcs = make([]uint32, k)
	}
	return s, nil
}

// load fills window with partition p's stored window.
func (s *windowStore) load(p int, window []byte, io *core.SpillIO) error {
	f := s.files[p]
	got, err := storage.ReadUpTo(f.f, window, 0)
	if err != nil {
		return err
	}
	io.Read.Add(int64(got))
	if got != len(window) {
		return fmt.Errorf("diskengine: window file %s short: %d bytes, want %d: %w",
			f.name, got, len(window), storage.ErrCorrupted)
	}
	if s.crcs != nil {
		if sum := storage.Checksum(window); sum != s.crcs[p] {
			return fmt.Errorf("diskengine: window file %s: checksum %08x, want %08x: %w",
				f.name, sum, s.crcs[p], storage.ErrCorrupted)
		}
		io.Checked.Add(int64(len(window)))
	}
	return nil
}

// store replaces partition p's stored window with window. The next load
// verifies against exactly this window.
func (s *windowStore) store(p int, window []byte, io *core.SpillIO) error {
	f := s.files[p]
	if err := storage.WriteFull(f.f, window, 0); err != nil {
		return fmt.Errorf("diskengine: write %s: %w", f.name, err)
	}
	f.size = int64(len(window))
	if s.crcs != nil {
		s.crcs[p] = storage.Checksum(window)
	}
	io.Written.Add(int64(len(window)))
	return nil
}

// vertexStore is the vertex store (core.VertexStore) of a run whose state
// does not fit the budget: the run's vertex files, counting on its tally.
type vertexStore struct {
	*windowStore
	io *core.SpillIO
}

// Load implements core.VertexStore.
func (s vertexStore) Load(p int, window []byte) error { return s.load(p, window, s.io) }

// Store implements core.VertexStore.
func (s vertexStore) Store(p int, window []byte) error { return s.store(p, window, s.io) }
