package diskengine

// checkpoint.go is the out-of-core engine's iteration-level checkpoint
// (Config.Checkpoint), one implementation and one format for a solo Run and
// for a shared pass (Prepared.RunMany / RunJob). At an iteration boundary
// the whole resumable state is, per job, exactly three things: the vertex
// bytes (post-EndIteration, so any phase fold is already applied), the
// frontier the next iteration scatters, and whether the job already
// converged — update streams are empty between iterations by construction.
// core.Snapshotter exposes those three, the vertex bytes a window at a time
// so that a solo run whose state is spilled to vertex files snapshots
// through the same code as a jobRun holding one slice: a solo run is a
// snapshot of one section. The snapshot concatenates every job's section
// into one framed, checksummed file next to the prepared partition files,
// double-buffered across two slots (iter&1) with the magic written last, so
// a torn write is indistinguishable from no snapshot:
//
//	[8B magic "XSCKPS1\n"][8B iteration][8B jobs][8B identity][16B zero]
//	per job: [8B flags][vertex bytes][frontier words?]
//	[4B crc32c]
//
// The CRC covers everything after the magic and before itself. identity
// fingerprints the pass shape (partitioner, partition count, graph size,
// and each job's name, state size and frontier-ness) so a stale snapshot
// from a different job set is never loaded; a solo Run and a RunJob of the
// same program over the same layout share it, and either resumes the other's
// snapshot. Resume picks the valid candidate with the highest iteration,
// verifies its checksum end to end before loading a byte, and falls back to
// a fresh start when none survives — a corrupt checkpoint costs the resume,
// never the result. Checkpointing assumes one checkpointed run per prefix
// at a time: this is the CLI/solo-job path, and the serving scheduler never
// sets Config.Checkpoint.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

const (
	ckptMagic     = "XSCKPS1\n"
	ckptHeaderLen = 48
	ckptDone      = 1 << 0 // job had already converged
	ckptFront     = 1 << 1 // job section carries frontier words
)

// snapshotters returns every run's checkpoint extension, or nil when any
// run does not implement core.Snapshotter — such a set is never
// checkpointed rather than partially checkpointed.
func snapshotters(runs []core.JobRun) []core.Snapshotter {
	snaps := make([]core.Snapshotter, len(runs))
	for i, r := range runs {
		s, ok := r.(core.Snapshotter)
		if !ok {
			return nil
		}
		snaps[i] = s
	}
	return snaps
}

func (pp *Prepared) ckptName(slot int) string {
	return fmt.Sprintf("%sds-checkpoint-%d.xsck", pp.cfg.Prefix, slot)
}

// ckptIdentity fingerprints the shape a snapshot is only valid for: the
// prepared layout plus each job's name, state size and whether it runs
// selectively.
func (pp *Prepared) ckptIdentity(snaps []core.Snapshotter) uint32 {
	s := fmt.Sprintf("%s|%d|%d|%d", pp.partName, pp.k, pp.nv, pp.ne)
	for _, sn := range snaps {
		s += fmt.Sprintf("|%s:%d:%t", sn.Name(), sn.StateSize(), sn.FrontierWords() != nil)
	}
	return storage.Checksum([]byte(s))
}

// ckptWant is the exact file size a valid snapshot of snaps must have.
func ckptWant(snaps []core.Snapshotter) int64 {
	want := int64(ckptHeaderLen)
	for _, s := range snaps {
		want += 8 + s.StateSize() + int64(len(s.FrontierWords()))*8
	}
	return want + 4
}

// writeFull writes all of b at off, retrying short writes.
func writeFull(f storage.File, b []byte, off int64) error {
	for len(b) > 0 {
		n, err := f.WriteAt(b, off)
		if err != nil {
			return err
		}
		if n <= 0 {
			return fmt.Errorf("diskengine: write stalled at offset %d", off)
		}
		off += int64(n)
		b = b[n:]
	}
	return nil
}

// writeCheckpoint snapshots the state iteration iter+1 starts from — called
// after every job's EndIteration, so phase folds (e.g. PageRank's rank
// update) are in the vertex bytes and the frontier swap has happened.
// Returns the bytes written, for a pass that tallies its own I/O.
func (pp *Prepared) writeCheckpoint(iter int, snaps []core.Snapshotter) (int64, error) {
	name := pp.ckptName(iter & 1)
	f, err := pp.cfg.Device.Create(name)
	if err != nil {
		return 0, fmt.Errorf("diskengine: checkpoint %s: %w", name, err)
	}
	fail := func(err error) (int64, error) {
		f.Close()
		return 0, fmt.Errorf("diskengine: checkpoint %s: %w", name, err)
	}

	hdr := make([]byte, ckptHeaderLen) // magic stays zero until the end
	binary.LittleEndian.PutUint64(hdr[8:], uint64(iter))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(snaps)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(pp.ckptIdentity(snaps)))
	if err := writeFull(f, hdr, 0); err != nil {
		return fail(err)
	}
	crc := storage.ChecksumUpdate(0, hdr[8:])
	off := int64(ckptHeaderLen)
	writeBody := func(raw []byte) error {
		if err := writeFull(f, raw, off); err != nil {
			return err
		}
		crc = storage.ChecksumUpdate(crc, raw)
		off += int64(len(raw))
		return nil
	}
	var jf [8]byte
	for _, s := range snaps {
		var flags uint64
		if s.Done() {
			flags |= ckptDone
		}
		fw := s.FrontierWords()
		if fw != nil {
			flags |= ckptFront
		}
		binary.LittleEndian.PutUint64(jf[:], flags)
		if err := writeBody(jf[:]); err != nil {
			return fail(err)
		}
		if err := s.VisitState(false, writeBody); err != nil {
			return fail(err)
		}
		if fw != nil {
			if err := writeBody(pod.AsBytes(fw)); err != nil {
				return fail(err)
			}
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	if err := writeFull(f, trailer[:], off); err != nil {
		return fail(err)
	}
	// Body and trailer are in place: publish the snapshot by writing the
	// magic last.
	if err := writeFull(f, []byte(ckptMagic), 0); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("diskengine: checkpoint %s: %w", name, err)
	}
	return off + 4, nil
}

// ckptRead accounts n snapshot bytes read on pass. Nothing encodes them, so
// they count the same physically and logically — BytesRead less
// BytesReadLogical stays exactly what the tile codec saved.
func ckptRead(pass *core.Stats, n int64) {
	pass.BytesRead += n
	pass.BytesReadLogical += n
}

// ckptInspect fully validates slot's snapshot — magic, shape, size and the
// end-to-end checksum — without loading any of it, and returns the
// iteration it captured. Any defect just disqualifies the candidate. The
// verification reads are accounted on pass.
func (pp *Prepared) ckptInspect(pass *core.Stats, slot int, snaps []core.Snapshotter) (int, bool) {
	f, err := pp.cfg.Device.Open(pp.ckptName(slot))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	hdr := make([]byte, ckptHeaderLen)
	if readBytes(f, hdr, 0) != nil || string(hdr[:8]) != ckptMagic {
		return 0, false
	}
	ckptRead(pass, ckptHeaderLen)
	iter := binary.LittleEndian.Uint64(hdr[8:])
	njobs := binary.LittleEndian.Uint64(hdr[16:])
	ident := binary.LittleEndian.Uint64(hdr[24:])
	if njobs != uint64(len(snaps)) || uint32(ident) != pp.ckptIdentity(snaps) {
		return 0, false
	}
	if iter >= uint64(pp.cfg.MaxIterations) {
		return 0, false
	}
	want := ckptWant(snaps)
	if f.Size() != want {
		return 0, false
	}
	crc := storage.ChecksumUpdate(0, hdr[8:])
	buf := make([]byte, 1<<20)
	end := want - 4
	for off := int64(ckptHeaderLen); off < end; {
		n := int64(len(buf))
		if n > end-off {
			n = end - off
		}
		if readBytes(f, buf[:n], off) != nil {
			return 0, false
		}
		crc = storage.ChecksumUpdate(crc, buf[:n])
		off += n
	}
	var trailer [4]byte
	if readBytes(f, trailer[:], end) != nil {
		return 0, false
	}
	ckptRead(pass, want-ckptHeaderLen)
	if binary.LittleEndian.Uint32(trailer[:]) != crc {
		return 0, false
	}
	pass.BytesChecksummed += want - 12 // everything between magic and CRC
	return int(iter), true
}

// ckptLoad restores every job's vertex state, frontier and converged flag
// from slot's already-verified snapshot.
func (pp *Prepared) ckptLoad(pass *core.Stats, slot int, snaps []core.Snapshotter) bool {
	f, err := pp.cfg.Device.Open(pp.ckptName(slot))
	if err != nil {
		return false
	}
	defer f.Close()
	off := int64(ckptHeaderLen)
	readBody := func(raw []byte) error {
		if err := readBytes(f, raw, off); err != nil {
			return err
		}
		off += int64(len(raw))
		ckptRead(pass, int64(len(raw)))
		return nil
	}
	var jf [8]byte
	for _, s := range snaps {
		if readBody(jf[:]) != nil {
			return false
		}
		flags := binary.LittleEndian.Uint64(jf[:])
		fw := s.FrontierWords()
		if (flags&ckptFront != 0) != (fw != nil) {
			return false
		}
		if s.VisitState(true, readBody) != nil {
			return false
		}
		if fw != nil {
			words := make([]uint64, len(fw))
			if readBody(pod.AsBytes(words)) != nil || s.RestoreFrontier(words) != nil {
				return false
			}
		}
		if flags&ckptDone != 0 {
			s.MarkDone()
		}
	}
	return true
}

// tryResume restores the newest valid snapshot into snaps and returns the
// iteration the loop should start from (0 when nothing usable was found).
// When a verified candidate still fails to load — device trouble between
// the two passes — reinit must re-establish freshly initialized state behind
// snaps, in place, before the next candidate is tried, so a failed resume
// can never leave half-restored vertices behind.
func (pp *Prepared) tryResume(pass *core.Stats, snaps []core.Snapshotter, reinit func() error) (int, error) {
	type cand struct{ slot, iter int }
	var cands []cand
	for slot := 0; slot < 2; slot++ {
		if it, ok := pp.ckptInspect(pass, slot, snaps); ok {
			cands = append(cands, cand{slot, it})
		}
	}
	if len(cands) == 2 && cands[1].iter > cands[0].iter {
		cands[0], cands[1] = cands[1], cands[0]
	}
	for _, c := range cands {
		if pp.ckptLoad(pass, c.slot, snaps) {
			return c.iter + 1, nil
		}
		if err := reinit(); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// removeCheckpoints deletes both snapshot slots — the run completed, so
// there is nothing left to resume — and the transposed partition files a
// crashed attempt built but this one never adopted: a resume can start past
// the only backward iteration (PageRank's degree pass), in which case the
// previous attempt's .redges files would otherwise be orphaned. Files this
// Prepared did build belong to it and are left for Close.
func (pp *Prepared) removeCheckpoints() {
	for slot := 0; slot < 2; slot++ {
		pp.cfg.Device.Remove(pp.ckptName(slot))
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.bwdFiles != nil {
		return
	}
	for p := 0; p < pp.k; p++ {
		pp.cfg.Device.Remove(fmt.Sprintf("%sds-p%04d.redges", pp.cfg.Prefix, p))
	}
}
