package diskengine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

// writeDegrees writes the out-degrees the pre-processing shuffle counted —
// deg, indexed by relabeled vertex ID — as one degree file per partition
// (<prefix>ds-p0000.deg): the partition's window of uint32s as raw bytes in
// host order — the files live only as long as the handle — 4·|V| bytes over
// all partitions. Under verification each file's CRC32C is kept on the
// handle, for readDegrees to check.
func (pp *Prepared) writeDegrees(deg []uint32) error {
	pp.degFiles = make([]*partFile, pp.k)
	if !pp.cfg.NoVerify {
		pp.degCRCs = make([]uint32, pp.k)
	}
	for p := 0; p < pp.k; p++ {
		f, err := createPartFile(pp.cfg.Device, fmt.Sprintf("%sds-p%04d.deg", pp.cfg.Prefix, p))
		if err != nil {
			return err
		}
		pp.degFiles[p] = f
		lo, hi := pp.part.Range(p, pp.nv)
		raw := pod.AsBytes(deg[lo:hi])
		if err := f.appendBytes(raw); err != nil {
			return err
		}
		if pp.degCRCs != nil {
			pp.degCRCs[p] = storage.Checksum(raw)
		}
	}
	return nil
}

// readDegrees is the core.JobSetup.Degrees of every run over pp: it reads
// partition p's degree file into *scratch, grown to a partition window when
// short, and, unless verification is off, checks it against the CRC32C
// written with it. A short file or a mismatch is storage.ErrCorrupted. The
// bytes read, and checked, are counted on io.
func (pp *Prepared) readDegrees(p int, scratch *[]uint32, io *core.SpillIO) ([]uint32, error) {
	lo, hi := pp.part.Range(p, pp.nv)
	if int64(cap(*scratch)) < hi-lo {
		*scratch = make([]uint32, pp.part.PerPartition())
	}
	deg := (*scratch)[:hi-lo]
	f := pp.degFiles[p]
	want := pod.AsBytes(deg)
	got, err := readAt(f.f, want, 0)
	if err != nil {
		return nil, err
	}
	io.Read.Add(int64(got))
	if got != len(want) {
		return nil, fmt.Errorf("diskengine: degree file %s short: %d bytes, want %d: %w",
			f.name, got, len(want), storage.ErrCorrupted)
	}
	if pp.degCRCs != nil {
		if sum := storage.Checksum(want); sum != pp.degCRCs[p] {
			return nil, fmt.Errorf("diskengine: degree file %s: checksum %08x, want %08x: %w",
				f.name, sum, pp.degCRCs[p], storage.ErrCorrupted)
		}
		io.Checked.Add(int64(got))
	}
	return deg, nil
}
