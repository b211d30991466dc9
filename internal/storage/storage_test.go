package storage

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// devices under test: both backends must behave identically functionally.
func testDevices(t *testing.T) map[string]Device {
	t.Helper()
	osd, err := NewOS("osd", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Device{
		"os":  osd,
		"sim": NewSim(SSDParams("sim", 2, 0)),
	}
}

func TestDeviceBasics(t *testing.T) {
	for name, dev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			f, err := dev.Create("a")
			if err != nil {
				t.Fatal(err)
			}
			data := []byte("hello, streaming partitions")
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			if got := f.Size(); got != int64(len(data)) {
				t.Fatalf("Size = %d, want %d", got, len(data))
			}
			buf := make([]byte, len(data))
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data) {
				t.Fatalf("read back %q", buf)
			}
			// Read past EOF.
			n, err := f.ReadAt(buf, int64(len(data))+10)
			if err != io.EOF || n != 0 {
				t.Fatalf("past-EOF read: n=%d err=%v", n, err)
			}
			// Short read at the tail.
			n, err = f.ReadAt(buf, int64(len(data))-3)
			if n != 3 || err != io.EOF {
				t.Fatalf("tail read: n=%d err=%v", n, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen and check persistence within the device.
			g, err := dev.Open("a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.ReadAt(buf[:5], 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf[:5]) != "hello" {
				t.Fatalf("reopen read %q", buf[:5])
			}

			// Truncate releases blocks and is counted as a TRIM.
			before := dev.Stats()
			if err := g.Truncate(5); err != nil {
				t.Fatal(err)
			}
			after := dev.Stats()
			if after.Trims != before.Trims+1 {
				t.Fatalf("Trims: %d -> %d", before.Trims, after.Trims)
			}
			if after.TrimmedBytes-before.TrimmedBytes != int64(len(data)-5) {
				t.Fatalf("TrimmedBytes delta = %d", after.TrimmedBytes-before.TrimmedBytes)
			}
			if g.Size() != 5 {
				t.Fatalf("post-truncate size %d", g.Size())
			}
			g.Close()

			if err := dev.Remove("a"); err != nil {
				t.Fatal(err)
			}
			if _, err := dev.Open("a"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Open after Remove: %v", err)
			}
			if err := dev.Remove("a"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("double Remove: %v", err)
			}
		})
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	for name, dev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := dev.Create("x")
			f.WriteAt([]byte("0123456789"), 0)
			f.Close()
			g, _ := dev.Create("x")
			if g.Size() != 0 {
				t.Fatalf("Create did not truncate: size %d", g.Size())
			}
			g.Close()
		})
	}
}

func TestStatsCounting(t *testing.T) {
	dev := NewSim(SSDParams("s", 1, 0))
	f, _ := dev.Create("a")
	f.WriteAt(make([]byte, 1000), 0)    // sequential write from 0 (fresh head: counted random)
	f.WriteAt(make([]byte, 1000), 1000) // sequential continuation
	f.ReadAt(make([]byte, 500), 0)      // seek back: random
	f.ReadAt(make([]byte, 500), 500)    // sequential continuation
	s := dev.Stats()
	if s.BytesWritten != 2000 || s.BytesRead != 1000 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.Writes != 2 || s.Reads != 2 {
		t.Fatalf("requests: %+v", s)
	}
	if s.SeqWrites != 1 || s.SeqReads != 1 {
		t.Fatalf("sequentiality: %+v", s)
	}
	dev.ResetStats()
	if s := dev.Stats(); s.BytesWritten != 0 || s.Reads != 0 {
		t.Fatalf("reset: %+v", s)
	}
}

func TestWriteAtSparseGrow(t *testing.T) {
	for name, dev := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := dev.Create("sparse")
			if _, err := f.WriteAt([]byte("xy"), 100); err != nil {
				t.Fatal(err)
			}
			if f.Size() != 102 {
				t.Fatalf("size %d", f.Size())
			}
			buf := make([]byte, 102)
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if buf[0] != 0 || buf[100] != 'x' || buf[101] != 'y' {
				t.Fatalf("sparse contents wrong: %v", buf[98:])
			}
		})
	}
}

func TestSimRoundTripProperty(t *testing.T) {
	dev := NewSim(HDDParams("h", 2, 0))
	f, _ := dev.Create("p")
	// Property: WriteAt then ReadAt returns the written bytes for random
	// offsets/sizes.
	check := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		if _, err := f.WriteAt(payload, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if _, err := f.ReadAt(got, int64(off)); err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCoversRequest(t *testing.T) {
	dev := NewSim(SimParams{Name: "x", NumDisks: 3, StripeUnit: 4096}).(*simDevice)
	check := func(off uint32, n uint16) bool {
		if n == 0 {
			return true
		}
		segs := dev.split(int64(off), int(n), nil)
		total := 0
		for _, s := range segs {
			if s.disk < 0 || s.disk >= 3 || s.bytes <= 0 {
				return false
			}
			total += s.bytes
		}
		return total == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitStriping(t *testing.T) {
	dev := NewSim(SimParams{Name: "x", NumDisks: 2, StripeUnit: 1024}).(*simDevice)
	// A 4 KiB request at offset 0 covers stripes 0..3 -> disks 0,1,0,1.
	// Each member's stripes are LBA-contiguous, so it receives one
	// coalesced 2 KiB segment starting at member LBA 0.
	segs := dev.split(0, 4096, nil)
	if len(segs) != 2 {
		t.Fatalf("segments: %+v", segs)
	}
	for i, s := range segs {
		if s.disk != i || s.lba != 0 || s.bytes != 2048 {
			t.Fatalf("seg %d = %+v", i, s)
		}
	}
	// An unaligned request: [512,2560) puts 512B of stripe 0 and 512B of
	// stripe 2 on disk 0 (LBA-contiguous at 512..1536) and stripe 1 on
	// disk 1.
	segs = dev.split(512, 2048, nil)
	if len(segs) != 2 || segs[0].disk != 0 || segs[0].lba != 512 || segs[0].bytes != 1024 ||
		segs[1].disk != 1 || segs[1].lba != 0 || segs[1].bytes != 1024 {
		t.Fatalf("unaligned segments: %+v", segs)
	}
}

func TestCostModelShape(t *testing.T) {
	// The calibrated model must reproduce the paper's Figure 11 ordering:
	// sequential beats random on every medium, with a much larger gap on
	// HDD than SSD, and the gap must grow as media get slower.
	hdd := NewSim(HDDParams("hdd", 2, 0)).(*simDevice)
	ssd := NewSim(SSDParams("ssd", 2, 0)).(*simDevice)

	bw := func(d *simDevice, n int, write, seq bool) float64 {
		c := d.Cost(0, n, write, seq)
		return float64(n) / c.Seconds()
	}

	const rq = 4096
	hddSeqR, hddRndR := bw(hdd, 16<<20, false, true), bw(hdd, rq, false, false)
	ssdSeqR, ssdRndR := bw(ssd, 16<<20, false, true), bw(ssd, rq, false, false)

	if hddSeqR <= hddRndR || ssdSeqR <= ssdRndR {
		t.Fatalf("sequential must beat random: hdd %g/%g ssd %g/%g", hddSeqR, hddRndR, ssdSeqR, ssdRndR)
	}
	hddGap := hddSeqR / hddRndR
	ssdGap := ssdSeqR / ssdRndR
	if hddGap < 100 {
		t.Fatalf("paper reports ~500x HDD gap; model gives %.0fx", hddGap)
	}
	if ssdGap < 10 || ssdGap > 100 {
		t.Fatalf("paper reports ~30x SSD gap; model gives %.0fx", ssdGap)
	}
	if hddGap <= ssdGap {
		t.Fatalf("gap must widen on slower media: hdd %.0fx <= ssd %.0fx", hddGap, ssdGap)
	}

	// Figure 11 absolute calibration, loose tolerances (MB/s).
	approx := func(got, want, tol float64) bool { return got > want*(1-tol) && got < want*(1+tol) }
	if got := hddSeqR / 1e6; !approx(got, 328, 0.15) {
		t.Errorf("hdd seq read %.0f MB/s, want ~328", got)
	}
	if got := hddRndR / 1e6; !approx(got, 0.6, 0.3) {
		t.Errorf("hdd rnd read %.2f MB/s, want ~0.6", got)
	}
	if got := ssdSeqR / 1e6; !approx(got, 667, 0.15) {
		t.Errorf("ssd seq read %.0f MB/s, want ~667", got)
	}
	if got := ssdRndR / 1e6; !approx(got, 22.5, 0.3) {
		t.Errorf("ssd rnd read %.1f MB/s, want ~22.5", got)
	}
}

func TestCostRAIDSpeedup(t *testing.T) {
	// Figure 15: RAID-0 roughly doubles large-request bandwidth.
	one := NewSim(HDDParams("h1", 1, 0)).(*simDevice)
	two := NewSim(HDDParams("h2", 2, 0)).(*simDevice)
	n := 16 << 20
	c1 := one.Cost(0, n, false, true)
	c2 := two.Cost(0, n, false, true)
	ratio := c1.Seconds() / c2.Seconds()
	if ratio < 1.7 || ratio > 2.2 {
		t.Fatalf("RAID-0 speedup %.2f, want ~2", ratio)
	}
}

func TestCostRequestSizeRamp(t *testing.T) {
	// Figure 9: bandwidth rises with request size and saturates by 16 MiB.
	dev := NewSim(SSDParams("s", 2, 0)).(*simDevice)
	var prev float64
	for _, n := range []int{4 << 10, 64 << 10, 1 << 20, 16 << 20} {
		c := dev.Cost(0, n, false, true)
		bw := float64(n) / c.Seconds()
		if bw < prev {
			t.Fatalf("bandwidth decreased at %d bytes: %.0f < %.0f", n, bw, prev)
		}
		prev = bw
	}
}

func TestSimBusyTimeAccounting(t *testing.T) {
	dev := NewSim(HDDParams("h", 2, 0))
	f, _ := dev.Create("a")
	f.WriteAt(make([]byte, 1<<20), 0)
	s := dev.Stats()
	if s.Busy <= 0 {
		t.Fatal("busy time not accounted")
	}
}

func TestFaultyDevice(t *testing.T) {
	inner := NewSim(SSDParams("s", 1, 0))
	dev := NewFaulty(inner, FaultyOptions{FailAfterOps: 2})
	f, _ := dev.Create("a")
	if _, err := f.WriteAt([]byte("ab"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 2), 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("cd"), 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
}

func TestFaultyShortReads(t *testing.T) {
	inner := NewSim(SSDParams("s", 1, 0))
	dev := NewFaulty(inner, FaultyOptions{ShortReads: 3})
	f, _ := dev.Create("a")
	f.WriteAt([]byte("0123456789"), 0)
	n, _ := f.ReadAt(make([]byte, 10), 0)
	if n != 3 {
		t.Fatalf("short read n=%d, want 3", n)
	}
}

func TestTimelineRecording(t *testing.T) {
	dev := NewSim(SSDParams("s", 1, 0))
	f, _ := dev.Create("a")
	for i := 0; i < 10; i++ {
		f.WriteAt(make([]byte, 4096), int64(i)*4096)
	}
	tl := dev.Timeline()
	if len(tl) == 0 {
		t.Fatal("empty timeline")
	}
	var total int64
	for _, p := range tl {
		total += p.BytesWritten
	}
	if total != 10*4096 {
		t.Fatalf("timeline bytes %d, want %d", total, 10*4096)
	}
}
