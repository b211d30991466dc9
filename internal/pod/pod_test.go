package pod

import (
	"testing"
	"testing/quick"
)

type rec struct {
	A uint32
	B float32
	C [3]uint16
}

type badPtr struct {
	P *int
}

type badNested struct {
	Inner struct {
		S []byte
	}
}

func TestSize(t *testing.T) {
	if got := Size[uint64](); got != 8 {
		t.Fatalf("Size[uint64] = %d, want 8", got)
	}
	if got := Size[rec](); got != 16 { // 4+4+6 padded to 16
		t.Fatalf("Size[rec] = %d, want 16", got)
	}
}

func TestCheck(t *testing.T) {
	if err := Check[rec](); err != nil {
		t.Fatalf("Check[rec]: %v", err)
	}
	if err := Check[float64](); err != nil {
		t.Fatalf("Check[float64]: %v", err)
	}
	if err := Check[badPtr](); err == nil {
		t.Fatal("Check[badPtr] should fail")
	}
	if err := Check[badNested](); err == nil {
		t.Fatal("Check[badNested] should fail")
	}
	if err := Check[map[int]int](); err == nil {
		t.Fatal("Check[map] should fail")
	}
}

func TestRoundTrip(t *testing.T) {
	in := []rec{{1, 2.5, [3]uint16{7, 8, 9}}, {3, -1, [3]uint16{0, 1, 2}}}
	b := AsBytes(in)
	if len(b) != 2*Size[rec]() {
		t.Fatalf("AsBytes len = %d", len(b))
	}
	out := FromBytes[rec](b)
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	// Aliasing: mutating the bytes mutates the records.
	b[0] = 42
	if out[0].A&0xff != 42 {
		t.Fatalf("expected aliasing, got %+v", out[0])
	}
}

func TestEmpty(t *testing.T) {
	if AsBytes[rec](nil) != nil {
		t.Fatal("AsBytes(nil) should be nil")
	}
	if FromBytes[rec](nil) != nil {
		t.Fatal("FromBytes(nil) should be nil")
	}
}

func TestFromBytesPanicsOnPartialRecord(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on partial record")
		}
	}()
	FromBytes[rec](make([]byte, Size[rec]()+1))
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		got := FromBytes[uint64](AsBytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	a := rec{A: 1, B: 2, C: [3]uint16{3, 4, 5}}
	b := a
	if !Equal(&a, &b) {
		t.Fatal("Equal: identical records differ")
	}
	b.C[2]++
	if Equal(&a, &b) {
		t.Fatal("Equal: records differing in the last field compare equal")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Equal(&a, &b) }); allocs != 0 {
		t.Fatalf("Equal allocates %.0f times", allocs)
	}
}
