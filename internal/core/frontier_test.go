package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/streambuf"
)

// marked reads vertex v's bit through the frontier's words.
func marked(f *Frontier, v VertexID) bool { return f.Words()[v>>6]>>(v&63)&1 != 0 }

// TestFrontierAgainstReference drives a Frontier and a reference map with
// the same random mark sequence and checks every read-side method against
// the naive answer.
func TestFrontierAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := int64(rng.Intn(500) + 1)
		f := NewFrontier(n)
		ref := make([]bool, n)
		for marks := rng.Intn(200); marks > 0; marks-- {
			v := VertexID(rng.Int63n(n))
			f.Mark(v)
			ref[v] = true
		}

		if f.Len() != n {
			t.Fatalf("Len = %d, want %d", f.Len(), n)
		}
		var want int64
		for v := int64(0); v < n; v++ {
			if got := marked(f, VertexID(v)); got != ref[v] {
				t.Fatalf("n=%d: vertex %d marked %v, want %v", n, v, got, ref[v])
			}
			if ref[v] {
				want++
			}
		}
		if got := f.Count(); got != want {
			t.Fatalf("n=%d: Count = %d, want %d", n, got, want)
		}

		for q := 0; q < 50; q++ {
			lo := rng.Int63n(n + 1)
			hi := rng.Int63n(n + 1)
			var cnt int64
			for v := lo; v < hi && v < n; v++ {
				if ref[v] {
					cnt++
				}
			}
			if got := f.CountRange(lo, hi); got != cnt {
				t.Fatalf("n=%d: CountRange(%d,%d) = %d, want %d", n, lo, hi, got, cnt)
			}
			if got := f.AnyInRange(lo, hi); got != (cnt > 0) {
				t.Fatalf("n=%d: AnyInRange(%d,%d) = %v, want %v", n, lo, hi, got, cnt > 0)
			}
		}

		// Per-partition counts match per-range counts for any power-of-two K.
		k := 1 << rng.Intn(5)
		split := NewSplit(n, k)
		counts := f.CountByPartition(split, nil)
		if len(counts) != k {
			t.Fatalf("CountByPartition returned %d entries, want %d", len(counts), k)
		}
		// Recounting into the same storage reuses it.
		if again := f.CountByPartition(split, counts); &again[0] != &counts[0] {
			t.Fatal("CountByPartition did not reuse a large enough dst")
		}
		var total int64
		for p, c := range counts {
			lo, hi := split.Range(p, n)
			if want := f.CountRange(lo, hi); c != want {
				t.Fatalf("partition %d: count %d, want %d", p, c, want)
			}
			total += c
		}
		if total != want {
			t.Fatalf("partition counts sum to %d, want %d", total, want)
		}
	}
}

// TestFrontierClearMarkAll checks the bulk transitions — every vertex
// marked, so the touched list is full, then Clear — including the tail word
// of a non-multiple-of-64 vertex count.
func TestFrontierClearMarkAll(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, 100, 128, 1000} {
		f := NewFrontier(n)
		for v := int64(0); v < n; v++ {
			f.Mark(VertexID(v))
		}
		if got := f.Count(); got != n {
			t.Fatalf("n=%d: marking every vertex then Count = %d", n, got)
		}
		if got := len(f.touchedWords()); got != len(f.Words()) {
			t.Fatalf("n=%d: %d touched words of %d", n, got, len(f.Words()))
		}
		if f.AnyInRange(n, n+100) {
			t.Fatalf("n=%d: active vertices past Len", n)
		}
		f.Clear()
		if got := f.Count(); got != 0 {
			t.Fatalf("n=%d: Clear then Count = %d", n, got)
		}
		if f.AnyInRange(0, n) {
			t.Fatalf("n=%d: AnyInRange true after Clear", n)
		}
	}
}

// TestFrontierConcurrentMark marks from many goroutines — the gather-phase
// access pattern — and checks no mark is lost (run under -race in CI).
func TestFrontierConcurrentMark(t *testing.T) {
	const n = 10000
	f := NewFrontier(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := w; v < n; v += 8 {
				f.Mark(VertexID(v))
				// Overlapping marks with a neighbor stripe: Or must not lose
				// bits set by another goroutine in the same word.
				f.Mark(VertexID((v + 1) % n))
			}
		}(w)
	}
	wg.Wait()
	if got := f.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
}

// TestFrontierTouchedWords: the touched-word list stays exact through the
// frontier's life — marks from 8 goroutines at once, Clear, a checkpoint
// restore, marks again. After each step the touched words are the non-zero
// words, ascending and each once, and CountByPartition, which walks only
// them, equals a full scan at partition sizes below and above one word;
// after Clear every bit is zero.
func TestFrontierTouchedWords(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(34))
	f := NewFrontier(n)
	check := func(step string) {
		t.Helper()
		var want []uint32
		for i, w := range f.Words() {
			if w != 0 {
				want = append(want, uint32(i))
			}
		}
		if got := f.touchedWords(); !slices.Equal(got, want) {
			t.Fatalf("%s: touched words %v, want the non-zero words %v", step, got, want)
		}
		for _, k := range []int{1, 3, 16, 100, 512} {
			split := NewSplit(n, k)
			got := f.CountByPartition(split, nil)
			for p := range got {
				lo, hi := split.Range(p, n)
				if want := f.CountRange(lo, hi); got[p] != want {
					t.Fatalf("%s, K=%d: partition %d counts %d, a full scan %d", step, k, p, got[p], want)
				}
			}
		}
	}
	markConcurrently := func(marks int) {
		vs := make([]VertexID, marks)
		for i := range vs {
			vs[i] = VertexID(rng.Int63n(n))
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(vs); i += 8 {
					f.Mark(vs[i])
					f.Mark(vs[(i+1)%len(vs)]) // the neighbour stripe's word too
				}
			}(w)
		}
		wg.Wait()
	}
	markConcurrently(300)
	check("concurrent marks")
	saved := slices.Clone(f.Words())
	f.Clear()
	for i, w := range f.Words() {
		if w != 0 {
			t.Fatalf("Clear left word %d = %#x", i, w)
		}
	}
	check("Clear")
	if err := f.LoadWords(saved); err != nil {
		t.Fatal(err)
	}
	check("LoadWords")
	markConcurrently(2000)
	check("marks after LoadWords")
	f.Clear()
	check("second Clear")
	if f.Count() != 0 {
		t.Fatalf("Count %d after Clear", f.Count())
	}
}

// maxLabel is a frontier program whose gather keeps the largest label it
// is sent: an update no larger than the label leaves the vertex unchanged.
type maxLabel struct{}

type maxState struct{ Label, Stamp int32 }

func (maxLabel) Name() string                             { return "max-label" }
func (maxLabel) Init(id VertexID, v *maxState)            { v.Label = int32(id % 7) }
func (maxLabel) Scatter(Edge, *maxState) (int32, bool)    { return 0, false }
func (maxLabel) InitiallyActive(VertexID, *maxState) bool { return false }
func (maxLabel) Gather(_ VertexID, v *maxState, m int32) {
	if m > v.Label {
		v.Label, v.Stamp = m, v.Stamp+1
	}
}

// memVertexStore keeps a run's vertex windows in memory.
type memVertexStore map[int][]byte

func (s memVertexStore) Load(p int, w []byte) error  { copy(w, s[p]); return nil }
func (s memVertexStore) Store(p int, w []byte) error { s[p] = append(s[p][:0], w...); return nil }

// TestGatherMarksOnlyChangedReceivers: a chunk of updates of which many
// leave their receiver unchanged — a smaller label, or one a vertex already
// took from an earlier update of the chunk — marks exactly the vertices
// whose state changed into the next frontier, through the serial gather and
// through the sub-shuffled one a windowed run takes for chunks of 8192
// updates and more. The state compare allocates nothing.
func TestGatherMarksOnlyChangedReceivers(t *testing.T) {
	// Two partitions, the chunk partition 0's: the window holds [0, n/2).
	const n = 1 << 15
	chunk := make([]Update[int32], 3*8192)
	for i := range chunk {
		chunk[i] = Update[int32]{Dst: VertexID(i * 40503 % (n / 2)), Val: int32(i * 31 % 11)}
	}
	ref := make([]maxState, n)
	want := NewFrontier(n)
	var prog maxLabel
	for i := range ref {
		prog.Init(VertexID(i), &ref[i])
	}
	for _, u := range chunk {
		old := ref[u.Dst]
		prog.Gather(u.Dst, &ref[u.Dst], u.Val)
		if ref[u.Dst] != old {
			want.Mark(u.Dst)
		}
	}
	if c := want.Count(); c == 0 || c == n/2 {
		t.Fatalf("workload lost its shape: %d of %d receivers changed", c, n/2)
	}
	for _, workers := range []int{1, 4} {
		plan, err := streambuf.NewPlan(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		store := memVertexStore{}
		r := NewJob[maxState, int32](maxLabel{}).NewRun().(*jobRun[maxState, int32])
		if err := r.Setup(JobSetup{
			Assignment: &Assignment{Split: NewSplit(n, 2)}, NumVertices: n, NumEdges: n,
			Threads: workers, Plan: plan, UpdateCap: len(chunk), Selective: true,
			Spill: func(int, int, *SpillIO) (*Spill, error) {
				return &Spill{Window: len(chunk), Vertices: store, Close: func() {}}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		verts, lo, err := r.window(0)
		if err != nil {
			t.Fatal(err)
		}
		r.gatherChunk(chunk, verts, lo, NewSplit(int64(len(verts)), r.subK), workers)
		if workers > 1 && r.sub == nil {
			t.Fatalf("workers %d: the chunk was not sub-shuffled", workers)
		}
		for v := VertexID(0); v < n/2; v++ {
			if got := marked(r.Receivers(), v); got != marked(want, v) || verts[v] != ref[v] {
				t.Fatalf("workers %d: vertex %d: marked %v, state %+v; want marked %v, state %+v",
					workers, v, got, verts[v], marked(want, v), ref[v])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { r.gatherRun(chunk, verts, lo) }); allocs != 0 {
			t.Errorf("workers %d: the selective gather allocates %.0f times per chunk", workers, allocs)
		}
		r.Close()
	}
}
