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

// TestPrefetcherStream: read ahead and inline alike, batches arrive in
// order; an error arrives after every batch before it and ends the stream,
// as does Stop mid-stream, and Next reports the end once the stream has
// ended. An inline stream never makes the second buffer.
func TestPrefetcherStream(t *testing.T) {
	for _, tc := range []struct {
		n, fail, stopAfter, want int
		ahead                    bool
	}{
		{n: 10, fail: -1, stopAfter: -1, want: 10, ahead: true},
		{n: 10, fail: 6, stopAfter: -1, want: 6, ahead: true},
		{n: 100, fail: -1, stopAfter: 2, want: 6, ahead: true},
		{n: 10, fail: -1, stopAfter: -1, want: 10},
		{n: 10, fail: 6, stopAfter: -1, want: 6},
		{n: 100, fail: -1, stopAfter: 2, want: 6},
	} {
		var p Prefetcher[int]
		var bufs [2][]int
		p.Start(FillFunc[int](counter(tc.n, tc.fail)), &bufs, 3, tc.ahead)
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
			t.Fatalf("%+v: Next after the stream ended: %d records, err %v", tc, len(recs), err)
		}
		if len(bufs[0]) != 3 || (bufs[1] != nil) != tc.ahead {
			t.Fatalf("%+v: buffers of %d and %d records", tc, len(bufs[0]), len(bufs[1]))
		}
	}
}
