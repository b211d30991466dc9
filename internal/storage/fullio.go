package storage

import (
	"fmt"
	"io"
)

// fullio.go is the short-I/O policy of every full read and write in the
// system. A File may return fewer bytes than asked (see File); these three
// functions are the only loops that re-issue the rest, so every caller sees
// one of two outcomes: all the bytes, or an error of a class Classify
// names.

// WriteFull writes all of b at off, re-issuing the rest of a short write. A
// write that reports no progress and no error has stalled, which is an
// error: looping on it would never end.
func WriteFull(f File, b []byte, off int64) error {
	for len(b) > 0 {
		n, err := f.WriteAt(b, off)
		if err != nil {
			return err
		}
		if n <= 0 {
			return fmt.Errorf("storage: write stalled at offset %d", off)
		}
		off += int64(n)
		b = b[n:]
	}
	return nil
}

// ReadUpTo reads up to len(b) bytes at off, re-issuing the rest of a legal
// short read, and returns how many it got: fewer only where the file ends.
// A read that returns no bytes and no error ends the file too — the shape a
// silently torn write leaves behind — so a stream over it stops instead of
// spinning, and the caller's byte count turns the shortfall into
// ErrCorrupted.
func ReadUpTo(f File, b []byte, off int64) (int, error) {
	got := 0
	for got < len(b) {
		n, err := f.ReadAt(b[got:], off+int64(got))
		got += n
		if err == io.EOF || (err == nil && n == 0) {
			break
		}
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// ReadFull reads exactly len(b) bytes at off, re-issuing the rest of a
// legal short read. A file that ends first holds fewer bytes than its
// writer put there: ErrCorrupted.
func ReadFull(f File, b []byte, off int64) error {
	got, err := ReadUpTo(f, b, off)
	if err != nil {
		return err
	}
	if got != len(b) {
		return fmt.Errorf("storage: short read: %d of %d bytes at offset %d: %w", got, len(b), off, ErrCorrupted)
	}
	return nil
}
