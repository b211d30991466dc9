// Package conformance is the contract suite of core.UpdateTransport and the
// fixture of its one implementation, core.ShuffleTransport, in its shapes:
// without a spill store, and over the out-of-core update files with a window
// that never spills, spills mid-iteration or spills every batch. Every shape
// runs the same battery: delivery completeness, single-sender per-partition
// FIFO order, duplicate destinations delivered unmerged, close idempotence
// and multi-iteration reuse, sends from several goroutines and concurrent
// drains (meaningful under -race), and the transport's own traffic
// counters. A shape over a store also takes a batch of several windows in
// one Send and spills the full ones itself.
package conformance

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pod"
)

// Maker describes one UpdateTransport shape to Run. New must
// build a transport for k partitions over nv vertices that (a) routes by
// core.NewSplit(nv, k).Of(u.Dst) and (b) accepts capacity records per
// iteration in Sends of any size — any number over a store, which spills
// the windows they fill. The suite owns the transport's lifecycle and
// closes it.
type Maker struct {
	// Name labels the shape in subtest paths.
	Name string
	// New builds a fresh transport under test; see the Maker contract.
	New func(t *testing.T, k int, nv int64, capacity, threads int) core.UpdateTransport[int64]
	// Window returns the records of one window of a transport built for
	// the given per-iteration capacity. nil means the whole capacity.
	Window func(capacity int) int
	// StoreWindows, for a shape over a spill store, returns how many
	// windows the store of the sealed transport tp has taken, counting
	// windows whose records reach every partition. nil means the shape has
	// no store: its Send is then safe for concurrent use, where a shape
	// over a store takes Send from one goroutine at a time.
	StoreWindows func(tp core.UpdateTransport[int64]) int
}

// update is shorthand for the suite's record type.
type update = core.Update[int64]

// rng is a splitmix64 stream for deterministic workloads.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genUpdates returns n updates with destinations spread over [0, nv).
func genUpdates(n int, nv int64, seed uint64) []update {
	r := rng(seed)
	out := make([]update, n)
	for i := range out {
		out[i] = update{Dst: core.VertexID(r.next() % uint64(nv)), Val: int64(i) + 1}
	}
	return out
}

// sendAll sends batch in one Send, which must accept it.
func sendAll(t *testing.T, tp core.UpdateTransport[int64], src int, batch []update) {
	t.Helper()
	if !tp.Send(src, batch) {
		t.Fatalf("Send refused %d records: %v", len(batch), tp.Err())
	}
}

// seal wraps Seal with the IterFlow invariant check: a transport merges
// nothing, so it delivers every record it accepted.
func seal(t *testing.T, tp core.UpdateTransport[int64]) core.IterFlow {
	t.Helper()
	flow, err := tp.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if flow.Appended != flow.Delivered {
		t.Fatalf("IterFlow invariant violated: appended %d != delivered %d", flow.Appended, flow.Delivered)
	}
	return flow
}

// drainAll drains every partition sequentially, verifying each record
// landed in the partition owning its destination, and returns the records
// per partition.
func drainAll(t *testing.T, tp core.UpdateTransport[int64], split core.Split) [][]update {
	t.Helper()
	got := make([][]update, split.K)
	for p := 0; p < split.K; p++ {
		pend := tp.Pending(p)
		if err := tp.Drain(p, func(run []update) error {
			for _, u := range run {
				if split.Of(u.Dst) != uint32(p) {
					return fmt.Errorf("update for vertex %d (partition %d) drained from partition %d",
						u.Dst, split.Of(u.Dst), p)
				}
			}
			got[p] = append(got[p], run...)
			return nil
		}); err != nil {
			t.Fatalf("Drain(%d): %v", p, err)
		}
		if pend != int64(len(got[p])) {
			t.Fatalf("Pending(%d) = %d, drained %d", p, pend, len(got[p]))
		}
	}
	return got
}

// sumsByDst folds updates into per-destination sums — the semantic content
// a transport must preserve.
func sumsByDst(batches ...[]update) map[core.VertexID]int64 {
	m := make(map[core.VertexID]int64)
	for _, b := range batches {
		for _, u := range b {
			m[u.Dst] += u.Val
		}
	}
	return m
}

func checkSums(t *testing.T, want, got map[core.VertexID]int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("destinations: want %d, got %d", len(want), len(got))
	}
	for dst, w := range want {
		if g, ok := got[dst]; !ok || g != w {
			t.Fatalf("vertex %d: sum want %d, got %d (present %v)", dst, w, g, ok)
		}
	}
}

// Run exercises one UpdateTransport implementation against the full
// contract. Call it from each implementation's own package test so every
// transport is pinned to the same behavior.
func Run(t *testing.T, mk Maker) {
	window := mk.Window
	if window == nil {
		window = func(capacity int) int { return capacity }
	}
	const (
		k       = 8
		nv      = int64(1 << 12)
		threads = 4
	)
	split := core.NewSplit(nv, k)
	recSize := int64(pod.Size[update]())

	t.Run("delivery", func(t *testing.T) {
		const n = 20000
		tp := mk.New(t, k, nv, n, threads)
		defer tp.Close()
		ups := genUpdates(n, nv, 1)
		var sends, cross int
		for off, b := 0, 0; off < n; b++ {
			end := off + 500 + b%301
			if end > n {
				end = n
			}
			src := b % k
			for _, u := range ups[off:end] {
				if split.Of(u.Dst) != uint32(src) {
					cross++
				}
			}
			sendAll(t, tp, src, ups[off:end])
			sends++
			off = end
		}
		flow := seal(t, tp)
		if flow.Appended != n {
			t.Fatalf("Appended = %d, sent %d", flow.Appended, n)
		}
		got := drainAll(t, tp, split)
		var total int
		for _, g := range got {
			total += len(g)
		}
		if int64(total) != flow.Delivered {
			t.Fatalf("drained %d records, Delivered = %d", total, flow.Delivered)
		}
		// Exact multiset equality per partition: sort (dst, val) pairs.
		want := make([][]update, k)
		for _, u := range ups {
			p := split.Of(u.Dst)
			want[p] = append(want[p], u)
		}
		for p := 0; p < k; p++ {
			a, b := want[p], got[p]
			if len(a) != len(b) {
				t.Fatalf("partition %d: want %d records, got %d", p, len(a), len(b))
			}
			less := func(s []update) func(i, j int) bool {
				return func(i, j int) bool {
					if s[i].Dst != s[j].Dst {
						return s[i].Dst < s[j].Dst
					}
					return s[i].Val < s[j].Val
				}
			}
			sort.Slice(a, less(a))
			sort.Slice(b, less(b))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("partition %d record %d: want %+v, got %+v", p, i, a[i], b[i])
				}
			}
		}
		if err := tp.EndIteration(); err != nil {
			t.Fatalf("EndIteration: %v", err)
		}
		for p := 0; p < k; p++ {
			if n := tp.Pending(p); n != 0 {
				t.Fatalf("Pending(%d) = %d after EndIteration", p, n)
			}
		}
		tc := tp.Counters()
		if tc.Batches != int64(sends) {
			t.Fatalf("Counters.Batches = %d, made %d sends", tc.Batches, sends)
		}
		if tc.Bytes != int64(n)*recSize {
			t.Fatalf("Counters.Bytes = %d, want %d", tc.Bytes, int64(n)*recSize)
		}
		if tc.Cross != int64(cross) {
			t.Fatalf("Counters.Cross = %d, want %d", tc.Cross, cross)
		}
	})

	// Batches sent by a single goroutine drain from each partition in send
	// order: the counting shuffle is stable and writeback windows append in
	// order.
	t.Run("ordering", func(t *testing.T) {
		const n = 6000
		target := 3
		lo, hi := split.Range(target, nv)
		tp := mk.New(t, k, nv, n, threads)
		defer tp.Close()
		ups := make([]update, n)
		for i := range ups {
			ups[i] = update{Dst: core.VertexID(lo + int64(i)%(hi-lo)), Val: int64(i)}
		}
		for off := 0; off < n; off += 100 {
			sendAll(t, tp, target, ups[off:off+100])
		}
		seal(t, tp)
		var vals []int64
		if err := tp.Drain(target, func(run []update) error {
			for _, u := range run {
				vals = append(vals, u.Val)
			}
			return nil
		}); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if len(vals) != n {
			t.Fatalf("drained %d of %d records", len(vals), n)
		}
		for i, v := range vals {
			if v != int64(i) {
				t.Fatalf("record %d out of order: val %d (single-sender FIFO violated)", i, v)
			}
		}
	})

	// Updates to one destination are combined at scatter, before Send; the
	// transport combines none of them, so a duplicate-heavy stream reaches
	// gather record for record.
	t.Run("combining", func(t *testing.T) {
		const n = 20000
		tp := mk.New(t, k, nv, n, threads)
		defer tp.Close()
		r := rng(11)
		ups := make([]update, n)
		for i := range ups {
			ups[i] = update{Dst: core.VertexID(r.next() % 64 * uint64(nv) / 64), Val: int64(i) + 1}
		}
		for off := 0; off < n; off += 1000 {
			sendAll(t, tp, (off/1000)%k, ups[off:off+1000])
		}
		if flow := seal(t, tp); flow.Delivered != n {
			t.Fatalf("Delivered = %d of %d records over 64 destinations", flow.Delivered, n)
		}
		got := drainAll(t, tp, split)
		seen := make(map[int64]bool, n)
		for _, g := range got {
			for _, u := range g {
				if u.Val < 1 || u.Val > n || ups[u.Val-1] != u || seen[u.Val] {
					t.Fatalf("drained %+v: not a record sent, or drained twice", u)
				}
				seen[u.Val] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("drained %d of %d records", len(seen), n)
		}
	})

	t.Run("iterations", func(t *testing.T) {
		const n = 5000
		tp := mk.New(t, k, nv, n, threads)
		defer tp.Close()
		for iter := 0; iter < 3; iter++ {
			ups := genUpdates(n, nv, uint64(100+iter))
			for off := 0; off < n; off += 500 {
				sendAll(t, tp, (off/500)%k, ups[off:off+500])
			}
			flow := seal(t, tp)
			if flow.Appended != n {
				t.Fatalf("iter %d: Appended = %d, sent %d", iter, flow.Appended, n)
			}
			got := drainAll(t, tp, split)
			all := make([]update, 0, n)
			for _, g := range got {
				all = append(all, g...)
			}
			checkSums(t, sumsByDst(ups), sumsByDst(all))
			if err := tp.EndIteration(); err != nil {
				t.Fatalf("iter %d: EndIteration: %v", iter, err)
			}
		}
	})

	t.Run("empty-iteration", func(t *testing.T) {
		tp := mk.New(t, k, nv, 1000, threads)
		defer tp.Close()
		flow := seal(t, tp)
		if flow.Appended != 0 || flow.Delivered != 0 {
			t.Fatalf("empty iteration flow = %+v", flow)
		}
		for p := 0; p < k; p++ {
			if err := tp.Drain(p, func(run []update) error {
				return fmt.Errorf("drained %d records from an empty iteration", len(run))
			}); err != nil {
				t.Fatalf("Drain(%d): %v", p, err)
			}
		}
		if err := tp.EndIteration(); err != nil {
			t.Fatalf("EndIteration: %v", err)
		}
		// The transport still works after an empty iteration.
		ups := genUpdates(500, nv, 5)
		sendAll(t, tp, 0, ups)
		if flow := seal(t, tp); flow.Appended != 500 {
			t.Fatalf("post-empty Appended = %d, want 500", flow.Appended)
		}
	})

	// One Send of three and a half windows into a transport over a store:
	// Send spills the three full windows itself, Seal spills the tail after
	// them, and every record is delivered in send order.
	if mk.StoreWindows != nil {
		t.Run("spill-batch", func(t *testing.T) {
			const capacity = 16000
			win := window(capacity)
			n := 3*win + win/2
			tp := mk.New(t, k, nv, capacity, threads)
			defer tp.Close()
			ups := make([]update, n)
			for i := range ups {
				lo, hi := split.Range(i%k, nv)
				ups[i] = update{Dst: core.VertexID(lo + int64(i/k)%(hi-lo)), Val: int64(i)}
			}
			sendAll(t, tp, 0, ups)
			if flow := seal(t, tp); flow.Appended != int64(n) {
				t.Fatalf("Appended = %d, sent %d", flow.Appended, n)
			}
			if got := mk.StoreWindows(tp); got != 4 {
				t.Fatalf("the store took %d windows, want three full ones and the tail", got)
			}
			got := drainAll(t, tp, split)
			for p := 0; p < k; p++ {
				want := p
				for _, u := range got[p] {
					if u.Val != int64(want) {
						t.Fatalf("partition %d: drained record %d, want %d (send order lost)", p, u.Val, want)
					}
					want += k
				}
				if want < n {
					t.Fatalf("partition %d: drained up to record %d of %d", p, want-k, n)
				}
			}
		})
	}

	// Senders on several goroutines: without a store at once, sharing the
	// window as the in-memory engine's scatter workers do; over a store one
	// at a time, each handing over to the next, as the out-of-core pass
	// feeds a run each chunk from a goroutine of its own.
	t.Run("concurrent-send", func(t *testing.T) {
		const capacity = 16000
		per := capacity / k
		tp := mk.New(t, k, nv, capacity, threads)
		defer tp.Close()
		batches := make([][]update, k)
		for s := 0; s < k; s++ {
			batches[s] = genUpdates(per, nv, uint64(200+s))
		}
		var wg sync.WaitGroup
		for s := 0; s < k; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for off := 0; off < per; off += 64 {
					end := off + 64
					if end > per {
						end = per
					}
					if !tp.Send(s, batches[s][off:end]) {
						t.Errorf("sender %d: Send rejected within capacity: %v", s, tp.Err())
						return
					}
				}
			}(s)
			if mk.StoreWindows != nil {
				wg.Wait()
			}
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		flow := seal(t, tp)
		if flow.Appended != int64(per*k) {
			t.Fatalf("Appended = %d, sent %d", flow.Appended, per*k)
		}
		got := drainAll(t, tp, split)
		all := make([]update, 0, per*k)
		for _, g := range got {
			all = append(all, g...)
		}
		checkSums(t, sumsByDst(batches...), sumsByDst(all))
	})

	t.Run("concurrent-drain", func(t *testing.T) {
		const n = 16000
		tp := mk.New(t, k, nv, n, threads)
		defer tp.Close()
		ups := genUpdates(n, nv, 31)
		for off := 0; off < n; off += 800 {
			sendAll(t, tp, (off/800)%k, ups[off:off+800])
		}
		flow := seal(t, tp)
		got := make([][]update, k)
		var wg sync.WaitGroup
		for p := 0; p < k; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				if err := tp.Drain(p, func(run []update) error {
					got[p] = append(got[p], run...)
					return nil
				}); err != nil {
					t.Errorf("Drain(%d): %v", p, err)
				}
			}(p)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		var total int64
		all := make([]update, 0, n)
		for _, g := range got {
			total += int64(len(g))
			all = append(all, g...)
		}
		if total != flow.Delivered {
			t.Fatalf("drained %d records concurrently, Delivered = %d", total, flow.Delivered)
		}
		checkSums(t, sumsByDst(ups), sumsByDst(all))
	})

	t.Run("drain-error", func(t *testing.T) {
		tp := mk.New(t, k, nv, 2000, threads)
		defer tp.Close()
		ups := genUpdates(2000, nv, 77)
		sendAll(t, tp, 0, ups)
		seal(t, tp)
		sentinel := errors.New("gather rejected the chunk")
		p := -1
		for cand := 0; cand < k; cand++ {
			if tp.Pending(cand) > 0 {
				p = cand
				break
			}
		}
		if p < 0 {
			t.Fatal("no partition has pending records")
		}
		err := tp.Drain(p, func(run []update) error { return sentinel })
		if !errors.Is(err, sentinel) {
			t.Fatalf("Drain did not propagate the callback error: %v", err)
		}
	})

	t.Run("close-idempotent", func(t *testing.T) {
		// Close mid-iteration (live send side, never sealed) and again.
		tp := mk.New(t, k, nv, 1000, threads)
		sendAll(t, tp, 0, genUpdates(100, nv, 9))
		if err := tp.Close(); err != nil {
			t.Fatalf("Close with a live send side: %v", err)
		}
		if err := tp.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
}
