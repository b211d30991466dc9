package diskengine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

// updateStore is the spill store of the solo run's update transport
// (core.NewSpillTransport): one append-only update file per partition, the
// update files of §3.2. A window the iteration outgrows is appended run by
// run on the transport's writer goroutine. Drain streams a file back with
// prefetch, verifies its byte count and running CRC32C against the append
// side's — a mismatch is storage.ErrCorrupted — and truncates it, so the
// next iteration appends from zero (on SSDs the truncate is the TRIM hint of
// §3.3). The files belong to the engine, which removes them.
type updateStore[M any] struct {
	files     []*partFile
	chunkRecs int // records per read request
	prefetch  bool
	verify    bool
	// verified is called with the byte count of every update file that
	// passed verification — the engine's BytesChecksummed hook.
	verified func(int64)
	// drain is the read-back scratch, made on the first Drain. The engine
	// drains one partition at a time; a Drain that finds it lent (the
	// interface allows concurrent drains of distinct partitions) reads
	// through a scratch of its own.
	drain readScratch[core.Update[M]]
}

// Append implements core.SpillStore.
func (s *updateStore[M]) Append(p int, run []core.Update[M]) error {
	return s.files[p].appendBytes(pod.AsBytes(run))
}

// Pending implements core.SpillStore: the records appended to partition p's
// file.
func (s *updateStore[M]) Pending(p int) int64 {
	return s.files[p].size / int64(pod.Size[core.Update[M]]())
}

// Drain implements core.SpillStore.
func (s *updateStore[M]) Drain(p int, fn func([]core.Update[M]) error) error {
	uf := s.files[p]
	var crc uint32
	var got int64
	rd := s.drain.openChunks(uf.f, 0, uf.size, s.chunkRecs, s.prefetch)
	if rd == nil {
		rd = new(readScratch[core.Update[M]]).openChunks(uf.f, 0, uf.size, s.chunkRecs, s.prefetch)
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
		if s.verify {
			raw := pod.AsBytes(chunk)
			crc = storage.ChecksumUpdate(crc, raw)
			got += int64(len(raw))
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
