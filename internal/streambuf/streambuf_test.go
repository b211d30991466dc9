package streambuf

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

type rec struct {
	Key uint32
	Val uint32
}

func keyOf(r rec) uint32 { return r.Key }

func makeRecs(n int, k uint32, seed int64) []rec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{Key: uint32(rng.Intn(int(k))), Val: uint32(i)}
	}
	return out
}

// collect gathers all records from the bucketed buffer in bucket order.
func collect(b *Buffer[rec], k int) []rec {
	var out []rec
	for p := 0; p < k; p++ {
		out = append(out, b.Bucket(p)...)
	}
	return out
}

func checkShuffled(t *testing.T, in []rec, b *Buffer[rec], k int) {
	t.Helper()
	got := collect(b, k)
	if len(got) != len(in) {
		t.Fatalf("record count %d, want %d", len(got), len(in))
	}
	// Every record in bucket p must have key p.
	for p := 0; p < k; p++ {
		for _, r := range b.Bucket(p) {
			if int(r.Key) != p {
				t.Fatalf("bucket %d contains key %d", p, r.Key)
			}
		}
	}
	// Multiset equality via sorted Val (Vals are unique).
	a := make([]int, len(in))
	c := make([]int, len(got))
	for i := range in {
		a[i] = int(in[i].Val)
		c[i] = int(got[i].Val)
	}
	sort.Ints(a)
	sort.Ints(c)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("multiset mismatch at %d", i)
		}
	}
}

func TestShuffleSingleStage(t *testing.T) {
	const n, k = 1000, 8
	in := makeRecs(n, k, 1)
	a, b := New[rec](n), New[rec](n)
	a.Fill(in)
	plan, err := NewPlan(k, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumStages() != 1 {
		t.Fatalf("stages = %d, want 1", plan.NumStages())
	}
	res := Shuffle(a, b, plan, 4, keyOf)
	checkShuffled(t, in, res, k)
}

func TestShuffleMultiStage(t *testing.T) {
	const n = 5000
	for _, k := range []int{2, 16, 64, 256} {
		for _, fanout := range []int{2, 4, 16} {
			in := makeRecs(n, uint32(k), int64(k*fanout))
			a, b := New[rec](n), New[rec](n)
			a.Fill(in)
			plan, err := NewPlan(k, fanout)
			if err != nil {
				t.Fatal(err)
			}
			res := Shuffle(a, b, plan, 3, keyOf)
			checkShuffled(t, in, res, k)
		}
	}
}

func TestShuffleStagesEquivalent(t *testing.T) {
	// A multi-stage shuffle must produce the same per-bucket multisets as
	// a single-stage shuffle.
	const n, k = 3000, 64
	in := makeRecs(n, k, 7)

	runWith := func(fanout int) [][]rec {
		a, b := New[rec](n), New[rec](n)
		a.Fill(in)
		plan, _ := NewPlan(k, fanout)
		res := Shuffle(a, b, plan, 4, keyOf)
		out := make([][]rec, k)
		for p := 0; p < k; p++ {
			out[p] = append(out[p], res.Bucket(p)...)
			sort.Slice(out[p], func(i, j int) bool { return out[p][i].Val < out[p][j].Val })
		}
		return out
	}

	single := runWith(64) // 1 stage
	multi := runWith(4)   // 3 stages
	for p := 0; p < k; p++ {
		if len(single[p]) != len(multi[p]) {
			t.Fatalf("bucket %d sizes differ: %d vs %d", p, len(single[p]), len(multi[p]))
		}
		for i := range single[p] {
			if single[p][i] != multi[p][i] {
				t.Fatalf("bucket %d rec %d differs", p, i)
			}
		}
	}
}

func TestShuffleK1(t *testing.T) {
	in := makeRecs(100, 1, 3)
	a, b := New[rec](100), New[rec](100)
	a.Fill(in)
	plan, err := NewPlan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumStages() != 0 {
		t.Fatalf("K=1 stages = %d", plan.NumStages())
	}
	res := Shuffle(a, b, plan, 2, keyOf)
	checkShuffled(t, in, res, 1)
}

func TestShuffleEmpty(t *testing.T) {
	a, b := New[rec](10), New[rec](10)
	plan, _ := NewPlan(4, 2)
	res := Shuffle(a, b, plan, 3, keyOf)
	if res.Len() != 0 {
		t.Fatalf("Len = %d", res.Len())
	}
	for p := 0; p < 4; p++ {
		if len(res.Bucket(p)) != 0 {
			t.Fatalf("bucket %d non-empty", p)
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed int64, kexp uint8, n uint16) bool {
		k := 1 << (kexp%8 + 1) // 2..256
		nn := int(n)%2000 + 1
		in := makeRecs(nn, uint32(k), seed)
		a, b := New[rec](nn), New[rec](nn)
		a.Fill(in)
		plan, err := NewPlan(k, 4)
		if err != nil {
			return false
		}
		res := Shuffle(a, b, plan, 4, keyOf)
		total := 0
		for p := 0; p < k; p++ {
			for _, r := range res.Bucket(p) {
				if int(r.Key) != p {
					return false
				}
			}
			total += len(res.Bucket(p))
		}
		return total == nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	const workers, per = 8, 1000
	b := New[rec](workers * per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]rec, 0, 100)
			for i := 0; i < per; i++ {
				batch = append(batch, rec{Key: uint32(w), Val: uint32(w*per + i)})
				if len(batch) == cap(batch) {
					if !b.Append(batch) {
						t.Error("append overflow")
						return
					}
					batch = batch[:0]
				}
			}
			if !b.Append(batch) {
				t.Error("append overflow")
			}
		}(w)
	}
	wg.Wait()
	if b.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", b.Len(), workers*per)
	}
	// All values present exactly once.
	seen := make([]bool, workers*per)
	for _, r := range b.data[:b.n.Load()] {
		if seen[r.Val] {
			t.Fatalf("value %d duplicated", r.Val)
		}
		seen[r.Val] = true
	}
}

// TestAppendReservesDisjointPlaces: concurrent Appends of batches of
// differing sizes (empty ones included) land in disjoint places that
// together are the buffer's filled prefix, and one that does not fit
// reserves nothing.
func TestAppendReservesDisjointPlaces(t *testing.T) {
	const workers, per = 8, 500
	b := New[rec](workers*per + 3)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, n := range []int{per / 2, 0, per - per/2} {
				batch := make([]rec, n)
				for i := range batch {
					batch[i] = rec{Key: uint32(w), Val: 1}
				}
				if !b.Append(batch) {
					t.Errorf("Append of %d records within capacity failed", n)
				}
			}
		}(w)
	}
	wg.Wait()
	if b.Append(make([]rec, 4)) || b.Len() != workers*per {
		t.Fatalf("an Append past the capacity reserved records: Len = %d, want %d", b.Len(), workers*per)
	}
	counts := make([]int, workers)
	for _, r := range b.data[:b.n.Load()] {
		counts[r.Key] += int(r.Val)
	}
	for w, c := range counts {
		if c != per {
			t.Fatalf("worker %d's windows hold %d of its %d records", w, c, per)
		}
	}
}

func TestAppendOverflow(t *testing.T) {
	b := New[rec](5)
	if !b.Append(make([]rec, 5)) {
		t.Fatal("append within capacity failed")
	}
	if b.Append(make([]rec, 1)) {
		t.Fatal("append beyond capacity succeeded")
	}
	if b.Len() != 5 {
		t.Fatalf("Len after failed append = %d", b.Len())
	}
}

// TestWriterAppend: with a sink, Append fills the current window exactly
// and flushes it only when the next record needs room, cutting a batch at
// window boundaries in order, and once the sink has failed it returns the
// sink's error and appends nothing; without a sink a batch past the window
// is refused with the capacity named.
func TestWriterAppend(t *testing.T) {
	const win = 100
	plan, err := NewPlan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq := func(lo, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = lo + i
		}
		return out
	}
	// One bucket and one shuffle thread: each flushed window reaches the
	// sink as one run holding its records in append order.
	var runs [][]int
	var sinkErr error
	newWriter := func() *Writer[int] {
		runs, sinkErr = nil, nil
		return NewWriter(win, plan, 1, func(int) uint32 { return 0 }, func(_ int, run []int) error {
			runs = append(runs, append([]int(nil), run...))
			return sinkErr
		})
	}
	appendAll := func(w *Writer[int], batches ...[]int) {
		t.Helper()
		for _, b := range batches {
			if err := w.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("one window stays in memory", func(t *testing.T) {
		w := newWriter()
		defer w.Stop()
		appendAll(w, seq(0, 60), seq(60, 40))
		buf, moved, err := w.Seal()
		if err != nil || buf == nil || len(runs) != 0 || moved != win {
			t.Fatalf("Seal kept %v having moved %d after %d sink runs: %v", buf != nil, moved, len(runs), err)
		}
		if kept := buf.Bucket(0); !reflect.DeepEqual(kept, seq(0, win)) {
			t.Fatalf("kept window %v", kept)
		}
	})

	t.Run("one more record flushes one full window", func(t *testing.T) {
		w := newWriter()
		defer w.Stop()
		appendAll(w, seq(0, win), seq(win, 1))
		buf, moved, err := w.Seal()
		if err != nil || buf != nil || moved != win+1 {
			t.Fatalf("Seal kept %v having moved %d: %v", buf != nil, moved, err)
		}
		if want := [][]int{seq(0, win), seq(win, 1)}; !reflect.DeepEqual(runs, want) {
			t.Fatalf("sink runs %v, want the full window, then the tail at Seal", runs)
		}
	})

	t.Run("a batch is cut at window boundaries", func(t *testing.T) {
		w := newWriter()
		defer w.Stop()
		appendAll(w, seq(0, 2*win+win/2))
		if _, _, err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		if want := [][]int{seq(0, win), seq(win, win), seq(2*win, win/2)}; !reflect.DeepEqual(runs, want) {
			t.Fatalf("sink runs %v, want two full windows and the half", runs)
		}
	})

	t.Run("a failed sink refuses further appends", func(t *testing.T) {
		w := newWriter()
		defer w.Stop()
		sinkErr = errors.New("device gone")
		if err := w.Append(seq(0, win+1)); err != nil && !errors.Is(err, sinkErr) {
			t.Fatal(err)
		}
		if _, _, err := w.Seal(); !errors.Is(err, sinkErr) {
			t.Fatalf("Seal: %v, want the sink's error", err)
		}
		if err := w.Append(seq(0, 5)); !errors.Is(err, sinkErr) {
			t.Fatalf("Append after the failure: %v, want the sink's error", err)
		}
		if w.Room() != win {
			t.Fatalf("Append after the failure left %d of %d records of room", w.Room(), win)
		}
	})

	t.Run("a flushed window sinks one run per non-empty bucket", func(t *testing.T) {
		const k, big = 8, 3 * minParallelRecs
		plan, _ := NewPlan(k, k)
		in := makeRecs(2*big, k-1, 9) // bucket k-1 stays empty
		type call struct {
			bucket int
			run    []rec
		}
		var calls []call
		w := NewWriter(big, plan, 4, keyOf, func(p int, run []rec) error {
			calls = append(calls, call{p, append([]rec(nil), run...)})
			return nil
		})
		defer w.Stop()
		if err := w.Append(in); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 2*(k-1) {
			t.Fatalf("two windows of %d non-empty buckets took %d sink calls", k-1, len(calls))
		}
		for i, c := range calls {
			win := i / (k - 1)
			if want := stablePartition(in[win*big:(win+1)*big], k)[c.bucket]; c.bucket != i%(k-1) || !slices.Equal(c.run, want) {
				t.Fatalf("sink call %d: bucket %d, %d records; want bucket %d as one run of its window", i, c.bucket, len(c.run), i%(k-1))
			}
		}
	})

	t.Run("without a sink a batch past the window is refused", func(t *testing.T) {
		w := NewWriter[int](win, plan, 1, func(int) uint32 { return 0 }, nil)
		appendAll(w, seq(0, win))
		if err := w.Append(seq(win, 1)); err == nil || !strings.Contains(err.Error(), "capacity 100 records") {
			t.Fatalf("Append past the window: %v, want a refusal naming the capacity", err)
		}
	})
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(3, 2); err == nil {
		t.Fatal("K=3 accepted")
	}
	if _, err := NewPlan(8, 3); err == nil {
		t.Fatal("fanout=3 accepted")
	}
	if _, err := NewPlan(0, 2); err == nil {
		t.Fatal("K=0 accepted")
	}
	plan, err := NewPlan(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.NumStages(); got != 5 { // log4(1024) = 5
		t.Fatalf("stages = %d, want 5", got)
	}
	if want := []int{4, 16, 64, 256, 1024}; len(plan.Stages) != len(want) {
		t.Fatalf("stages = %v", plan.Stages)
	}
}

func TestFillReset(t *testing.T) {
	b := New[rec](10)
	b.Fill([]rec{{1, 1}, {2, 2}})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 || len(b.off) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestShuffleReshuffleBucketed(t *testing.T) {
	// Shuffling an already-bucketed buffer to a finer K must work (this is
	// what the layered in-memory engine does inside disk partitions).
	const n = 2000
	in := makeRecs(n, 64, 13)
	a, b := New[rec](n), New[rec](n)
	a.Fill(in)
	coarse, _ := NewPlan(8, 8)
	res := Shuffle(a, b, coarse, 4, func(r rec) uint32 { return r.Key >> 3 })
	// Refine to 64 buckets using the full key.
	fine, _ := NewPlan(64, 8)
	other := a
	if res == a {
		other = b
	}
	res2 := Shuffle(res, other, fine, 4, keyOf)
	checkShuffled(t, in, res2, 64)
}

// stablePartition is the layout every placement must give: per bucket, the
// records of that key in input order.
func stablePartition(in []rec, k int) [][]rec {
	out := make([][]rec, k)
	for _, r := range in {
		out[r.Key] = append(out[r.Key], r)
	}
	return out
}

// cut splits in into runs of pseudo-random lengths, empty ones included.
func cut(in []rec, seed int64) [][]rec {
	rng := rand.New(rand.NewSource(seed))
	var runs [][]rec
	for len(in) > 0 {
		n := min(rng.Intn(3*minParallelRecs/2), len(in))
		runs = append(runs, in[:n])
		in = in[n:]
	}
	return runs
}

// TestPlacementIsStablePartition: every plan — one stage, several, K = 1,
// an empty input — and every way into the placement routine (Shuffle of a
// filled buffer, the runs of an ordered input, Place) gives each bucket as
// one run equal to the stable partition of the ordered input, the same at
// 1 to 8 workers.
func TestPlacementIsStablePartition(t *testing.T) {
	for _, tc := range []struct{ n, k, fanout int }{
		{1000, 8, 8}, {3*minParallelRecs + 5, 16, 16}, {3*minParallelRecs + 5, 64, 4},
		{9 * minParallelRecs, 256, 2}, {5, 16, 2}, {0, 4, 2}, {100, 1, 2}, {2 * minParallelRecs, 1, 2},
	} {
		in := makeRecs(tc.n, uint32(tc.k), int64(tc.n+tc.k))
		want := stablePartition(in, tc.k)
		plan, err := NewPlan(tc.k, tc.fanout)
		if err != nil {
			t.Fatal(err)
		}
		check := func(how string, workers int, res *Buffer[rec]) {
			t.Helper()
			if res.Len() != tc.n {
				t.Fatalf("%+v %s, %d workers: Len %d", tc, how, workers, res.Len())
			}
			for p := 0; p < tc.k; p++ {
				if got := res.Bucket(p); !slices.Equal(got, want[p]) {
					t.Fatalf("%+v %s, %d workers: bucket %d holds %d records, not the stable partition's %d", tc, how, workers, p, len(got), len(want[p]))
				}
			}
		}
		for workers := 1; workers <= 8; workers++ {
			a, b := New[rec](tc.n), New[rec](tc.n)
			a.Fill(in)
			check("Shuffle", workers, Shuffle(a, b, plan, workers, keyOf))

			a.Fill(in)
			runs := cut(a.Records(), int64(workers))
			check("shuffleRuns", workers, shuffleRuns(runs, New[rec](tc.n), a, plan, workers, keyOf))

			c := New[rec](tc.n)
			c.Place(in, tc.k, workers, keyOf)
			check("Place", workers, c)
		}
	}
}

// TestWriterPlacesSourcesInOrder: without a sink, concurrent AppendFroms
// of several sources are sealed source by source, each source's batches in
// append order, whichever source reserved room first.
func TestWriterPlacesSourcesInOrder(t *testing.T) {
	const k, sources, per, batch = 8, 8, 3000, 100
	plan, _ := NewPlan(k, k)
	src := make([][]rec, sources)
	var all []rec
	for s := range src {
		src[s] = makeRecs(per, k, int64(s))
		for i := range src[s] {
			src[s][i].Val = uint32(s*per + i)
		}
		all = append(all, src[s]...)
	}
	want := stablePartition(all, k)
	w := NewWriter[rec](sources*per, plan, 4, keyOf, nil)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for s := sources - 1; s >= 0; s-- {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for off := 0; off < per; off += batch {
					if err := w.AppendFrom(s, src[s][off:off+batch]); err != nil {
						t.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		buf, moved, err := w.Seal()
		if err != nil || moved != sources*per {
			t.Fatalf("round %d: Seal moved %d of %d: %v", round, moved, sources*per, err)
		}
		for p := 0; p < k; p++ {
			if got := buf.Bucket(p); !slices.Equal(got, want[p]) {
				t.Fatalf("round %d: bucket %d is not in source order", round, p)
			}
		}
	}
}

// TestShuffleLayoutIndependentOfWorkers: a stream of fewer than
// minParallelRecs records per slice worker is shuffled on the caller's
// goroutine, a larger one by slice workers; either way bucket p holds the
// records of key p in their input order. A warm shuffle of a small stream
// allocates nothing: no goroutine is started and every offset array and
// cursor is reused.
func TestShuffleLayoutIndependentOfWorkers(t *testing.T) {
	const k, p = 16, 4
	plan, _ := NewPlan(k, 4)
	for _, n := range []int{0, 1000, 3*minParallelRecs + 17, 9 * minParallelRecs} {
		in := makeRecs(n, k, int64(n))
		a, b := New[rec](n), New[rec](n)
		for round := 0; round < 2; round++ { // the second reuses the offsets and cursors
			a.Fill(in)
			res := Shuffle(a, b, plan, p, keyOf)
			for g, want := range stablePartition(in, k) {
				if got := res.Bucket(g); !slices.Equal(got, want) {
					t.Fatalf("n=%d round %d: bucket %d holds %v, want %v", n, round, g, got, want)
				}
			}
		}
	}
	in := makeRecs(1000, k, 7)
	a, b := New[rec](len(in)), New[rec](len(in))
	shuffle := func() {
		a.Fill(in)
		Shuffle(a, b, plan, p, keyOf)
	}
	shuffle()
	if allocs := testing.AllocsPerRun(20, shuffle); allocs != 0 {
		t.Fatalf("a warm shuffle of %d records allocates %.0f times", len(in), allocs)
	}
}
