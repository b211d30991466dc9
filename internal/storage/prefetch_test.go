package storage

import (
	"errors"
	"testing"
)

// counter fills each buffer with the next len(buf) integers below n and
// fails at fail (when non-negative) instead of filling from it.
func counter(n, fail int) func([]int) ([]int, int64, error) {
	next := 0
	return func(buf []int) ([]int, int64, error) {
		if next == fail {
			return nil, 0, ErrInjected
		}
		if next >= n {
			return nil, 0, nil
		}
		m := min(len(buf), n-next)
		for i := range buf[:m] {
			buf[i] = next + i
		}
		next += m
		return buf[:m], int64(m), nil
	}
}

// TestPrefetcherStream: batches arrive in order; an error arrives after
// every batch before it and ends the stream, as does Stop mid-stream, and
// Next reports the end once the goroutine has exited.
func TestPrefetcherStream(t *testing.T) {
	for _, tc := range []struct{ n, fail, stopAfter, want int }{
		{n: 10, fail: -1, stopAfter: -1, want: 10},
		{n: 10, fail: 6, stopAfter: -1, want: 6},
		{n: 100, fail: -1, stopAfter: 2, want: 6},
	} {
		var p Prefetcher[int]
		p.Start(make([]int, 3), make([]int, 3), counter(tc.n, tc.fail))
		got, batches := 0, 0
		var err error
		for batches != tc.stopAfter {
			var recs []int
			if recs, _, err = p.Next(); err != nil || recs == nil {
				break
			}
			for _, v := range recs {
				if v != got {
					t.Fatalf("%+v: record %d delivered as %d", tc, got, v)
				}
				got++
			}
			batches++
		}
		p.Stop()
		if got != tc.want || (tc.fail >= 0) != errors.Is(err, ErrInjected) {
			t.Fatalf("%+v: %d records, err %v", tc, got, err)
		}
		if recs, _, err := p.Next(); recs != nil || err != nil {
			t.Fatalf("%+v: Next after the goroutine exited: %d records, err %v", tc, len(recs), err)
		}
	}
}
