package streambuf

import (
	"errors"
	"math/rand"
	"reflect"
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
		b.Bucket(p, func(run []rec) { out = append(out, run...) })
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
		b.Bucket(p, func(run []rec) {
			for _, r := range run {
				if int(r.Key) != p {
					t.Fatalf("bucket %d contains key %d", p, r.Key)
				}
			}
		})
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
			res.Bucket(p, func(run []rec) { out[p] = append(out[p], run...) })
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
		if res.BucketLen(p) != 0 {
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
			ok := true
			res.Bucket(p, func(run []rec) {
				for _, r := range run {
					if int(r.Key) != p {
						ok = false
					}
				}
			})
			if !ok {
				return false
			}
			total += res.BucketLen(p)
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
		return NewWriter(win, plan, 1, func(int) uint32 { return 0 }, nil, func(_ int, run []int) error {
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
		buf, tally, err := w.Seal()
		if err != nil || buf == nil || len(runs) != 0 || tally.Kept != win {
			t.Fatalf("Seal kept %v with tally %+v after %d sink runs: %v", buf != nil, tally, len(runs), err)
		}
		var kept []int
		buf.Bucket(0, func(run []int) { kept = append(kept, run...) })
		if !reflect.DeepEqual(kept, seq(0, win)) {
			t.Fatalf("kept window %v", kept)
		}
	})

	t.Run("one more record flushes one full window", func(t *testing.T) {
		w := newWriter()
		defer w.Stop()
		appendAll(w, seq(0, win), seq(win, 1))
		buf, tally, err := w.Seal()
		if err != nil || buf != nil || tally.Kept != win+1 {
			t.Fatalf("Seal kept %v with tally %+v: %v", buf != nil, tally, err)
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

	t.Run("without a sink a batch past the window is refused", func(t *testing.T) {
		w := NewWriter[int](win, plan, 1, func(int) uint32 { return 0 }, nil, nil)
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

func TestBucketRunsSliceCount(t *testing.T) {
	// With P slices, a bucket has at most P runs (paper §4.2: at most P
	// random accesses to recover a chunk).
	const n, k, p = 10000, 16, 7
	in := makeRecs(n, k, 11)
	a, b := New[rec](n), New[rec](n)
	a.Fill(in)
	plan, _ := NewPlan(k, 4)
	res := Shuffle(a, b, plan, p, keyOf)
	for pt := 0; pt < k; pt++ {
		runs := 0
		res.Bucket(pt, func([]rec) { runs++ })
		if runs > p {
			t.Fatalf("bucket %d has %d runs > P=%d", pt, runs, p)
		}
	}
}

// TestNewBucketedMatchesShuffle: a producer that counts each of P equal
// slices of its records by key and places them through NewBucketed's
// cursors builds the layout a Shuffle of the same records on P workers
// builds, run by run, whatever the stage count — every stage is stable.
func TestNewBucketedMatchesShuffle(t *testing.T) {
	for _, tc := range []struct{ n, k, fanout, p int }{
		{1000, 8, 8, 4}, {1000, 64, 4, 3}, {5, 16, 2, 8}, {0, 4, 2, 2}, {100, 1, 2, 3},
	} {
		in := makeRecs(tc.n, uint32(tc.k), int64(tc.n+tc.k))
		a, b := New[rec](tc.n), New[rec](tc.n)
		a.Fill(in)
		plan, err := NewPlan(tc.k, tc.fanout)
		if err != nil {
			t.Fatal(err)
		}
		want := Shuffle(a, b, plan, tc.p, keyOf)

		counts := make([][]int, tc.p)
		for i := range counts {
			counts[i] = make([]int, tc.k)
			for _, r := range in[i*tc.n/tc.p : (i+1)*tc.n/tc.p] {
				counts[i][r.Key]++
			}
		}
		got, data := NewBucketed[rec](tc.n, counts)
		for i, cur := range counts {
			for _, r := range in[i*tc.n/tc.p : (i+1)*tc.n/tc.p] {
				data[cur[r.Key]] = r
				cur[r.Key]++
			}
		}

		if got.Len() != want.Len() || got.Cap() != want.Cap() || got.buckets != want.buckets {
			t.Fatalf("%+v: Len/Cap/Buckets %d/%d/%d, want %d/%d/%d", tc,
				got.Len(), got.Cap(), got.buckets, want.Len(), want.Cap(), want.buckets)
		}
		for p := 0; p < tc.k; p++ {
			var gotRuns, wantRuns [][]rec
			got.Bucket(p, func(run []rec) { gotRuns = append(gotRuns, run) })
			want.Bucket(p, func(run []rec) { wantRuns = append(wantRuns, run) })
			if !reflect.DeepEqual(gotRuns, wantRuns) {
				t.Fatalf("%+v: bucket %d runs differ from the shuffle's", tc, p)
			}
		}
	}
}

func TestFillReset(t *testing.T) {
	b := New[rec](10)
	b.Fill([]rec{{1, 1}, {2, 2}})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 || b.buckets != 0 {
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

// sumBySlot is a Folder chunk fold that merges the records of one slot by
// adding their values.
func sumBySlot(slot func(bucket int, r rec) uint32) func(int, []rec, []int32, []uint32, uint32) int {
	return func(g int, recs []rec, pos []int32, gen []uint32, cur uint32) int {
		keep := 0
		for _, r := range recs {
			if k := slot(g, r); gen[k] == cur {
				recs[pos[k]].Val += r.Val
			} else {
				gen[k], pos[k] = cur, int32(keep)
				recs[keep] = r
				keep++
			}
		}
		return keep
	}
}

// TestFoldBucketsMergesDuplicates: after a fold, every (slice, bucket)
// chunk holds at most one record per key, sums are preserved, and the
// buffer's Len/BucketLen reflect the compaction.
func TestFoldBucketsMergesDuplicates(t *testing.T) {
	const n, k = 5000, 16
	rng := rand.New(rand.NewSource(99))
	in := make([]rec, n)
	sums := map[uint32]uint32{}
	for i := range in {
		key := uint32(rng.Intn(k * 4)) // 4 distinct "vertices" per bucket
		in[i] = rec{Key: key, Val: uint32(1 + rng.Intn(10))}
		sums[key] += in[i].Val
	}
	a, b := New[rec](n), New[rec](n)
	a.Fill(in)
	plan, _ := NewPlan(k, 4)
	res := Shuffle(a, b, plan, 3, func(r rec) uint32 { return r.Key / 4 })

	before := res.Len()
	merged := NewFolder(3, 4, sumBySlot(func(bucket int, r rec) uint32 { return r.Key % 4 })).Fold(res)
	if merged <= 0 {
		t.Fatal("nothing merged from a duplicate-heavy stream")
	}
	if got := res.Len(); got != before-int(merged) {
		t.Fatalf("Len %d after folding %d of %d", got, merged, before)
	}

	got := map[uint32]uint32{}
	total := 0
	for p := 0; p < k; p++ {
		if bl := res.BucketLen(p); bl > 3*4 {
			t.Fatalf("bucket %d still holds %d records over 4 keys x 3 slices", p, bl)
		}
		run := 0
		res.Bucket(p, func(rs []rec) {
			seen := map[uint32]bool{}
			for _, r := range rs {
				if int(r.Key/4) != p {
					t.Fatalf("bucket %d contains key %d", p, r.Key)
				}
				if seen[r.Key] {
					t.Fatalf("bucket %d run %d holds key %d twice after fold", p, run, r.Key)
				}
				seen[r.Key] = true
				got[r.Key] += r.Val
				total++
			}
			run++
		})
	}
	if total != res.Len() {
		t.Fatalf("bucket walk saw %d records, Len says %d", total, res.Len())
	}
	for key, want := range sums {
		if got[key] != want {
			t.Fatalf("key %d: folded sum %d, want %d", key, got[key], want)
		}
	}
}

// TestFoldBucketsSingleBucket: K=1 (append state sliced, one bucket) folds
// across the whole stream.
func TestFoldBucketsSingleBucket(t *testing.T) {
	a, b := New[rec](100), New[rec](100)
	in := make([]rec, 100)
	for i := range in {
		in[i] = rec{Key: uint32(i % 5), Val: 1}
	}
	a.Fill(in)
	plan, _ := NewPlan(1, 2)
	res := Shuffle(a, b, plan, 2, keyOf)
	merged := NewFolder(2, 5, sumBySlot(func(_ int, r rec) uint32 { return r.Key })).Fold(res)
	// Two slices of 50 records with 5 keys each -> at most 10 survivors.
	if res.Len() > 10 {
		t.Fatalf("Len %d after fold, want <= 10", res.Len())
	}
	if merged != int64(100-res.Len()) {
		t.Fatalf("merged %d, Len %d", merged, res.Len())
	}
	var sum uint32
	res.Bucket(0, func(rs []rec) {
		for _, r := range rs {
			sum += r.Val
		}
	})
	if sum != 100 {
		t.Fatalf("folded total %d, want 100", sum)
	}
}

// TestFoldBucketsAppendStatePanics: folding requires bucket structure.
func TestFoldBucketsAppendStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on append-state fold")
		}
	}()
	b := New[rec](10)
	b.Fill([]rec{{1, 1}})
	NewFolder(1, 1, sumBySlot(func(int, rec) uint32 { return 0 })).Fold(b)
}

// TestBucketTiles: tiling must concatenate to exactly the Bucket stream,
// cap every tile at tileRecs, never span a run boundary, and be stable
// across repeated walks of an unchanged buffer — the invariant selective
// engines index tile summaries against.
func TestBucketTiles(t *testing.T) {
	const k = 8
	recs := makeRecs(5000, k, 33)
	a := New[rec](len(recs))
	b := New[rec](len(recs))
	a.Append(recs)
	plan, err := NewPlan(k, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := Shuffle(a, b, plan, 3, keyOf)

	for _, tileRecs := range []int{1, 7, 64, 100000, 0, -5} {
		for p := 0; p < k; p++ {
			runEnds := map[int]bool{} // cumulative record offsets of run ends
			off := 0
			res.Bucket(p, func(run []rec) {
				off += len(run)
				runEnds[off] = true
			})

			walk := func() ([]rec, []int) {
				var flat []rec
				var sizes []int
				res.BucketTiles(p, tileRecs, func(tile []rec) {
					flat = append(flat, tile...)
					sizes = append(sizes, len(tile))
				})
				return flat, sizes
			}
			flat, sizes := walk()
			want := collectBucket(res, p)
			if len(flat) != len(want) {
				t.Fatalf("tileRecs=%d p=%d: %d records, want %d", tileRecs, p, len(flat), len(want))
			}
			for i := range flat {
				if flat[i] != want[i] {
					t.Fatalf("tileRecs=%d p=%d: record %d differs", tileRecs, p, i)
				}
			}
			pos := 0
			for _, sz := range sizes {
				if sz == 0 {
					t.Fatalf("tileRecs=%d p=%d: empty tile", tileRecs, p)
				}
				if tileRecs >= 1 && sz > tileRecs {
					t.Fatalf("tileRecs=%d p=%d: tile of %d records", tileRecs, p, sz)
				}
				pos += sz
				// A tile may end inside a run only when it is full-sized:
				// otherwise it must end exactly at a run boundary.
				if (tileRecs < 1 || sz < tileRecs) && !runEnds[pos] {
					t.Fatalf("tileRecs=%d p=%d: short tile ends at %d, not a run boundary", tileRecs, p, pos)
				}
			}
			flat2, sizes2 := walk()
			if len(sizes2) != len(sizes) || len(flat2) != len(flat) {
				t.Fatalf("tileRecs=%d p=%d: second walk differs", tileRecs, p)
			}
			for i := range sizes {
				if sizes[i] != sizes2[i] {
					t.Fatalf("tileRecs=%d p=%d: tile %d resized between walks", tileRecs, p, i)
				}
			}
		}
	}
}

func collectBucket(b *Buffer[rec], p int) []rec {
	var out []rec
	b.Bucket(p, func(run []rec) { out = append(out, run...) })
	return out
}

// TestShuffleLayoutIndependentOfWorkers: a stream of fewer than
// minParallelRecs records per slice worker is shuffled on the caller's
// goroutine, a larger one by slice workers; either way bucket p holds each
// slice's records of key p in their input order, slice by slice. A warm
// shuffle and fold of a small stream allocate nothing: no goroutine is
// started and every chunk index is reused.
func TestShuffleLayoutIndependentOfWorkers(t *testing.T) {
	const k, p = 16, 4
	plan, _ := NewPlan(k, 4)
	for _, n := range []int{0, 1000, 3*minParallelRecs + 17, 9 * minParallelRecs} {
		in := makeRecs(n, k, int64(n))
		a, b := New[rec](n), New[rec](n)
		for round := 0; round < 2; round++ { // the second reuses the chunk indexes
			a.Fill(in)
			res := Shuffle(a, b, plan, p, keyOf)
			for g := 0; g < k; g++ {
				var got, want []rec
				res.Bucket(g, func(run []rec) { got = append(got, run...) })
				for i := 0; i < p; i++ {
					for _, r := range in[i*n/p : (i+1)*n/p] {
						if int(r.Key) == g {
							want = append(want, r)
						}
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d round %d: bucket %d holds %v, want %v", n, round, g, got, want)
				}
			}
		}
	}
	in := makeRecs(1000, k, 7)
	a, b := New[rec](len(in)), New[rec](len(in))
	folder := NewFolder(p, 1, sumBySlot(func(int, rec) uint32 { return 0 }))
	shuffleAndFold := func() {
		a.Fill(in)
		folder.Fold(Shuffle(a, b, plan, p, keyOf))
	}
	shuffleAndFold()
	if allocs := testing.AllocsPerRun(20, shuffleAndFold); allocs != 0 {
		t.Fatalf("a warm shuffle and fold of %d records allocate %.0f times", len(in), allocs)
	}
}
