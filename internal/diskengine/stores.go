package diskengine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// openStores is the core.JobSetup.Spill of a solo run over pp: the run's own
// files, next to the Prepared's edge files. The update transport's window is
// one stream buffer (S·K bytes) and its spill store the update files; the
// vertex state spills to the vertex files when it does not fit next to the
// five stream buffers in the budget (§3.4: nv·|V| + 5·S·K > M). verified is
// the run's BytesChecksummed hook.
func (pp *Prepared) openStores(vertexBytes, updateBytes int, verified func(int64)) (*core.Spill, error) {
	cfg := pp.cfg
	bufBytes := int64(cfg.IOUnit) * int64(pp.k)
	window := int(bufBytes / int64(updateBytes))
	if window < 1 {
		return nil, fmt.Errorf("diskengine: I/O unit %d too small for update records", cfg.IOUnit)
	}
	upd := &updateStore{
		files: make([]*partFile, pp.k), recSize: updateBytes, chunkBytes: window * updateBytes,
		prefetch: !cfg.NoPrefetch, verify: !cfg.NoVerify, verified: verified,
		drain: make([]readScratch[byte], cfg.Threads),
	}
	var verts *vertexStore
	if pp.nv*int64(vertexBytes)+5*bufBytes > cfg.MemoryBudget {
		verts = &vertexStore{files: make([]*partFile, pp.k), recSize: vertexBytes, verify: !cfg.NoVerify, verified: verified}
	}
	files := [][]*partFile{upd.files}
	if verts != nil {
		files = append(files, verts.files)
	}
	closeFiles := func() {
		for _, fs := range files {
			for _, f := range fs {
				if f != nil {
					f.remove()
				}
			}
		}
		files = nil
	}
	for p := 0; p < pp.k; p++ {
		var err error
		if upd.files[p], err = createPartFile(cfg.UpdateDevice, fmt.Sprintf("%sp%04d.updates", cfg.Prefix, p)); err == nil && verts != nil {
			verts.files[p], err = createPartFile(cfg.Device, fmt.Sprintf("%sp%04d.verts", cfg.Prefix, p))
		}
		if err != nil {
			closeFiles()
			return nil, err
		}
	}
	sp := &core.Spill{
		Updates: upd, Window: window, Context: cfg.Context,
		Device: func() core.DeviceIO { return devCounters(cfg) },
		Close:  closeFiles,
	}
	if verts != nil {
		sp.Vertices = verts
	}
	return sp, nil
}

// updateStore is the update transport's spill store (core.SpillStore): one
// append-only update file per partition, the update files of §3.2. A window
// the iteration outgrows is appended run by run on the transport's writer
// goroutine. Drain streams a file back with prefetch, verifies its byte
// count and running CRC32C against the append side's — a mismatch is
// storage.ErrCorrupted — and truncates it, so the next iteration appends
// from zero (on SSDs the truncate is the TRIM hint of §3.3).
type updateStore struct {
	files      []*partFile
	recSize    int // bytes per update record
	chunkBytes int // bytes per read request, whole records
	prefetch   bool
	verify     bool
	// verified is called with the byte count of every update file that
	// passed verification.
	verified func(int64)
	// drain is the read-back scratch, one per gather worker, each made on
	// first use. A Drain that finds them all lent reads through a scratch
	// of its own.
	drain []readScratch[byte]
}

// Append implements core.SpillStore.
func (s *updateStore) Append(p int, run []byte) error {
	return s.files[p].appendBytes(run)
}

// Pending implements core.SpillStore: the bytes appended to partition p's
// file.
func (s *updateStore) Pending(p int) int64 { return s.files[p].size }

// Drain implements core.SpillStore.
func (s *updateStore) Drain(p int, fn func([]byte) error) error {
	uf := s.files[p]
	var crc uint32
	var got int64
	var rd *chunkReader[byte]
	for i := 0; i < len(s.drain) && rd == nil; i++ {
		rd = s.drain[i].openChunks(uf.f, 0, uf.size, s.chunkBytes, s.prefetch)
	}
	if rd == nil {
		rd = new(readScratch[byte]).openChunks(uf.f, 0, uf.size, s.chunkBytes, s.prefetch)
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
		if s.verify {
			crc = storage.ChecksumUpdate(crc, chunk)
			got += int64(len(chunk))
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
	if s.verify {
		if got != uf.size || crc != uf.crc {
			return fmt.Errorf("diskengine: update file %s: %d of %d bytes, checksum %08x, want %08x: %w",
				uf.name, got, uf.size, crc, uf.crc, storage.ErrCorrupted)
		}
		if s.verified != nil {
			s.verified(got)
		}
	}
	return uf.truncate()
}

// vertexStore is the vertex store (core.VertexStore) of a run whose state
// does not fit the budget: one vertex file per partition, rewritten whole
// after every change. Load checks the file's size and, unless verification
// is off, its running CRC32C — a mismatch is storage.ErrCorrupted.
type vertexStore struct {
	files    []*partFile
	recSize  int // bytes per vertex record
	verify   bool
	verified func(int64)
}

// Load implements core.VertexStore.
func (s *vertexStore) Load(p int, window []byte) error {
	vf := s.files[p]
	got, err := readFull(vf.f, window, 0, 1)
	if err != nil {
		return err
	}
	if len(got) != len(window) {
		return fmt.Errorf("diskengine: vertex file %s short: %d records, want %d: %w",
			vf.name, len(got)/s.recSize, len(window)/s.recSize, storage.ErrCorrupted)
	}
	if s.verify {
		if sum := storage.Checksum(window); sum != vf.crc {
			return fmt.Errorf("diskengine: vertex file %s: checksum %08x, want %08x: %w",
				vf.name, sum, vf.crc, storage.ErrCorrupted)
		}
		s.verified(int64(len(window)))
	}
	return nil
}

// Store implements core.VertexStore. The rewrite resets the file's running
// checksum, so the next Load verifies against exactly this window.
func (s *vertexStore) Store(p int, window []byte) error {
	return s.files[p].writeAllAt(window)
}
