package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// shortFile moves at most step bytes a call and reports the count with a
// nil error, as File allows; a step of 0 moves nothing and says so.
type shortFile struct {
	File
	step int
}

func (f shortFile) ReadAt(p []byte, off int64) (int, error) {
	return f.File.ReadAt(p[:min(len(p), f.step)], off)
}

func (f shortFile) WriteAt(p []byte, off int64) (int, error) {
	return f.File.WriteAt(p[:min(len(p), f.step)], off)
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestFullIOShortCounts: a File that moves a few bytes a call with a nil
// error still has every byte written by WriteFull and read back by
// ReadFull and ReadUpTo, and ReadUpTo past the end returns the bytes there
// are.
func TestFullIOShortCounts(t *testing.T) {
	inner, err := NewSim(SSDParams("s", 1, 0)).Create("f")
	if err != nil {
		t.Fatal(err)
	}
	f := shortFile{File: inner, step: 5}
	want := pattern(1000)
	if err := WriteFull(f, want, 24); err != nil {
		t.Fatal(err)
	}
	if got := inner.Size(); got != 1024 {
		t.Fatalf("file holds %d bytes, want 1024", got)
	}
	got := make([]byte, len(want))
	if err := ReadFull(f, got, 24); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadFull: err %v, bytes intact %v", err, bytes.Equal(got, want))
	}
	tail := make([]byte, 100)
	if n, err := ReadUpTo(f, tail, 974); err != nil || n != 50 || !bytes.Equal(tail[:n], want[950:]) {
		t.Fatalf("ReadUpTo past the end: %d bytes, err %v", n, err)
	}
}

// TestFullIOZeroProgress: a write that moves nothing without an error is an
// error, not a loop; a read that returns nothing without an error ends the
// file — ReadUpTo returns what it got, ReadFull reports ErrCorrupted — as
// does a file shorter than the read.
func TestFullIOZeroProgress(t *testing.T) {
	inner, err := NewSim(SSDParams("s", 1, 0)).Create("f")
	if err != nil {
		t.Fatal(err)
	}
	stalled := shortFile{File: inner, step: 0}
	if err := WriteFull(stalled, []byte("x"), 0); err == nil || errors.Is(err, ErrCorrupted) {
		t.Fatalf("stalled write returned %v, want a non-corruption error", err)
	}
	if err := WriteFull(inner, pattern(64), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := ReadUpTo(stalled, buf, 0); n != 0 || err != nil {
		t.Fatalf("zero-progress ReadUpTo: %d bytes, err %v; want 0, nil", n, err)
	}
	if err := ReadFull(stalled, buf, 0); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("zero-progress ReadFull returned %v, want ErrCorrupted", err)
	}
	if err := ReadFull(inner, make([]byte, 65), 0); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("ReadFull past the end returned %v, want ErrCorrupted", err)
	}
	if err := ReadFull(inner, nil, 64); err != nil {
		t.Fatalf("empty ReadFull at the end: %v", err)
	}
}

// TestFullIOFaultyDevice: the chaos device's legal short reads, capped
// (ShortReads) or random (ShortRead), and its reported torn writes healed
// by the retry device, all leave the bytes read back intact.
func TestFullIOFaultyDevice(t *testing.T) {
	want := pattern(64 << 10)
	for name, opts := range map[string]FaultyOptions{
		"ShortReads": {ShortReads: 1000},
		"ShortRead":  {Seed: 3, ShortRead: 0.5},
		"WriteErr":   {Seed: 5, WriteErr: 0.3},
	} {
		faulty := NewFaulty(NewSim(SSDParams("s", 1, 0)), opts)
		dev := NewRetry(faulty, RetryOptions{MaxAttempts: 25, Sleep: func(time.Duration) {}})
		f, err := dev.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(want); off += 4 << 10 {
			if err := WriteFull(f, want[off:off+4<<10], int64(off)); err != nil {
				t.Fatalf("%s: write at %d: %v", name, off, err)
			}
		}
		got := make([]byte, len(want))
		if err := ReadFull(f, got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: ReadFull: err %v, bytes intact %v", name, err, bytes.Equal(got, want))
		}
		if n, err := ReadUpTo(f, make([]byte, len(want)+10), 0); n != len(want) || err != nil {
			t.Fatalf("%s: ReadUpTo: %d bytes, err %v", name, n, err)
		}
		// A capped read is no fault: count the requests it split into.
		if faulty.(FaultInjector).Faults() == 0 && dev.Stats().Reads < int64(len(want)/max(opts.ShortReads, 1)) {
			t.Fatalf("%s: no fault injected; the test proves nothing", name)
		}
	}
}
