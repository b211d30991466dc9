package storage

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSimFileMatchesOSFile runs one seeded random script of WriteAt,
// ReadAt, Truncate, Create and Size against a simulated file, an OS file
// and a []byte model; all three must agree byte for byte after every step.
// Offsets cluster around extent and stripe boundaries, reads run past EOF,
// and shrinks are followed by writes that open gaps past the new end.
func TestSimFileMatchesOSFile(t *testing.T) {
	osd, err := NewOS("osd", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	devs := []Device{NewSim(SSDParams("sim", 2, 0)), osd}
	files := make([]File, len(devs))
	create := func() {
		for i, d := range devs {
			if files[i] != nil {
				files[i].Close()
			}
			f, err := d.Create("script")
			if err != nil {
				t.Fatal(err)
			}
			files[i] = f
		}
	}
	create()
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	var model []byte

	const limit = simStripeUnit + 2*simExtent
	rng := rand.New(rand.NewSource(35))
	offset := func() int64 {
		if rng.Intn(2) == 0 {
			return rng.Int63n(limit)
		}
		// Within 64 bytes of an extent boundary; every eighth extent
		// boundary is a stripe boundary too.
		b := int64(1+rng.Intn(limit/simExtent)) * simExtent
		return b - 64 + rng.Int63n(128)
	}
	length := func() int {
		if rng.Intn(4) == 0 {
			return 1 + rng.Intn(simExtent+256)
		}
		return 1 + rng.Intn(256)
	}
	var buf []byte
	for step := 0; step < 4000; step++ {
		var what string
		switch op := rng.Intn(16); {
		case op < 7:
			off, n := offset(), length()
			what = fmt.Sprintf("WriteAt(%d bytes, %d)", n, off)
			p := make([]byte, n)
			rng.Read(p)
			if end := off + int64(n); end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[off:], p)
			for i, f := range files {
				if got, err := f.WriteAt(p, off); got != n || err != nil {
					t.Fatalf("step %d %s on %s: n=%d err=%v", step, what, devs[i].Name(), got, err)
				}
			}
		case op < 12:
			off, n := offset(), length()
			if rng.Intn(4) == 0 && len(model) > 0 {
				off = int64(len(model)) - rng.Int63n(64) // a short read at EOF
			}
			what = fmt.Sprintf("ReadAt(%d bytes, %d)", n, off)
			var want []byte
			if off < int64(len(model)) {
				want = model[off:min(off+int64(n), int64(len(model)))]
			}
			var wantErr error
			if len(want) < n {
				wantErr = io.EOF
			}
			for i, f := range files {
				buf = append(buf[:0], make([]byte, n)...)
				got, err := f.ReadAt(buf, off)
				if got != len(want) || err != wantErr || !bytes.Equal(buf[:got], want) {
					t.Fatalf("step %d %s on %s: n=%d err=%v, want n=%d err=%v or other bytes",
						step, what, devs[i].Name(), got, err, len(want), wantErr)
				}
			}
		case op < 15:
			size := offset()
			if rng.Intn(2) == 0 {
				size = rng.Int63n(int64(len(model)) + 1) // shrink (or keep)
			}
			what = fmt.Sprintf("Truncate(%d)", size)
			if size <= int64(len(model)) {
				clear(model[size:])
				model = model[:size]
			} else {
				model = append(model, make([]byte, size-int64(len(model)))...)
			}
			for i, f := range files {
				if err := f.Truncate(size); err != nil {
					t.Fatalf("step %d %s on %s: %v", step, what, devs[i].Name(), err)
				}
			}
		default:
			what = "Create"
			model = model[:0]
			create()
		}
		for i, f := range files {
			if got := f.Size(); got != int64(len(model)) {
				t.Fatalf("step %d after %s: %s Size() = %d, want %d", step, what, devs[i].Name(), got, len(model))
			}
		}
	}
	// The whole file, once more, on every device.
	for i, f := range files {
		got := make([]byte, len(model)+1)
		n, err := f.ReadAt(got, 0)
		if n != len(model) || err != io.EOF || !bytes.Equal(got[:n], model) {
			t.Fatalf("final read on %s: n=%d err=%v, want n=%d", devs[i].Name(), n, err, len(model))
		}
	}
}

// TestSimRequestAllocatesNothing: at TimeScale 0 a warm request inside
// stored extents allocates nothing, within one stripe and across one.
func TestSimRequestAllocatesNothing(t *testing.T) {
	dev := NewSim(SSDParams("sim", 2, 0))
	f, err := dev.Create("warm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 2*simStripeUnit), 0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 3*simExtent/2)
	for _, c := range []struct {
		name string
		off  int64
	}{
		{"within a stripe", simExtent / 2},
		{"across a stripe", simStripeUnit - simExtent},
	} {
		for _, op := range []struct {
			name string
			do   func() (int, error)
		}{
			{"ReadAt", func() (int, error) { return f.ReadAt(p, c.off) }},
			{"WriteAt", func() (int, error) { return f.WriteAt(p, c.off) }},
		} {
			if n, err := op.do(); n != len(p) || err != nil {
				t.Fatalf("%s %s: n=%d err=%v", op.name, c.name, n, err)
			}
			if allocs := testing.AllocsPerRun(100, func() { op.do() }); allocs != 0 {
				t.Errorf("%s %s: %v allocations per request, want 0", op.name, c.name, allocs)
			}
		}
	}
}

// TestSimConcurrentReadWriteAcrossExtents: writers fill interleaved blocks
// that straddle extent boundaries, growing the file as they go, while
// readers check every block already written. Run it with -race.
func TestSimConcurrentReadWriteAcrossExtents(t *testing.T) {
	dev := NewSim(SSDParams("sim", 2, 0))
	f, err := dev.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 3
		readers = 3
		blocks  = 48
		block   = simExtent/2 + 123 // unaligned: blocks straddle extents
	)
	fill := func(p []byte, b int) {
		for j := range p {
			p[j] = byte(b*7 + j)
		}
	}
	var done [blocks]atomic.Bool
	var written atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := make([]byte, block)
			for b := w; b < blocks; b += writers {
				fill(p, b)
				if _, err := f.WriteAt(p, int64(b)*block); err != nil {
					t.Error(err)
					return
				}
				done[b].Store(true)
				written.Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			got, want := make([]byte, block), make([]byte, block)
			deadline := time.Now().Add(10 * time.Second)
			for written.Load() < blocks && time.Now().Before(deadline) {
				b := rng.Intn(blocks)
				if !done[b].Load() {
					continue
				}
				if _, err := f.ReadAt(got, int64(b)*block); err != nil && err != io.EOF {
					t.Error(err)
					return
				}
				fill(want, b)
				if !bytes.Equal(got, want) {
					t.Errorf("reader %d: block %d corrupted", r, b)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if f.Size() != blocks*block {
		t.Fatalf("size %d, want %d", f.Size(), blocks*block)
	}
	got, want := make([]byte, block), make([]byte, block)
	for b := 0; b < blocks; b++ {
		if _, err := f.ReadAt(got, int64(b)*block); err != nil {
			t.Fatal(err)
		}
		fill(want, b)
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupted", b)
		}
	}
}

// TestTimelineStaysBounded: at a 1 ns bucket every sample opens a new
// bucket, so the timeline must coarsen to stay within maxTimelinePoints
// while keeping its byte totals and bucket-aligned, increasing points.
func TestTimelineStaysBounded(t *testing.T) {
	var c counters
	c.init()
	c.bucket = time.Nanosecond
	var read, written int64
	for i := 0; i < 3*maxTimelinePoints; i++ {
		n := 1 + i%1000
		c.sample(n, i%3 == 0)
		if i%3 == 0 {
			written += int64(n)
		} else {
			read += int64(n)
		}
	}
	tl := c.timelineCopy()
	if len(tl) == 0 || len(tl) > maxTimelinePoints {
		t.Fatalf("%d timeline points, want 1..%d", len(tl), maxTimelinePoints)
	}
	if c.bucket == time.Nanosecond {
		t.Fatal("bucket never widened")
	}
	var gotR, gotW int64
	for i, p := range tl {
		if p.At%c.bucket != 0 || (i > 0 && p.At <= tl[i-1].At) {
			t.Fatalf("point %d at %v: not aligned to %v or not increasing", i, p.At, c.bucket)
		}
		gotR += p.BytesRead
		gotW += p.BytesWritten
	}
	if gotR != read || gotW != written {
		t.Fatalf("timeline holds %d read / %d written bytes, want %d / %d", gotR, gotW, read, written)
	}
	c.reset()
	if c.bucket != defaultTimelineBucket || len(c.timelineCopy()) != 0 {
		t.Fatalf("reset left bucket %v and %d points", c.bucket, len(c.timelineCopy()))
	}
}
