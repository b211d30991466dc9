package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one interval at a layer boundary: its name, when it ran, the
// span that caused it, and the job it belongs to.
type span struct {
	ID     int
	Parent int   // 0 = root
	Job    int64 // sequence number of the job the span belongs to
	Track  int   // 0 = coordinator; parallel work renders on its own track
	Name   string
	Start  time.Time
	Dur    time.Duration
}

// tracer records the benchmark's own spans, around each call into a
// layer's public functions. A nil *tracer records nothing, so the same
// job code runs traced and untraced. Spans stay in memory until the run
// ends.
type tracer struct {
	job   int64
	mu    sync.Mutex
	spans []span
}

func newTracer(job int64) *tracer { return &tracer{job: job} }

// span runs fn as a child of parent and records its interval; fn receives
// the new span's ID to parent its own children.
func (t *tracer) span(parent, track int, name string, fn func(id int)) {
	if t == nil {
		fn(0)
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: t.job, Track: track, Name: name})
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].Dur = start, d
	t.mu.Unlock()
}

// adopt adds spans an engine reported through its Config.Tracer (an
// obs.Recorder). Engine spans carry no parent, so each is parented to the
// tightest coordinator-track span that contains it, root when none does.
func (t *tracer) adopt(root int, events []obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for i, e := range events {
		t.spans = append(t.spans, span{ID: base + i + 1, Parent: root, Job: t.job,
			Track: e.Track, Name: e.Name, Start: e.Start, Dur: e.Dur})
	}
	adopted := t.spans[base:]
	// Sweep in start order, enclosing spans first, keeping the stack of
	// coordinator spans still open at the sweep point.
	order := make([]int, len(adopted))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &adopted[order[a]], &adopted[order[b]]
		if !x.Start.Equal(y.Start) {
			return x.Start.Before(y.Start)
		}
		return x.Dur > y.Dur
	})
	var open []int
	for _, i := range order {
		s := &adopted[i]
		end := s.Start.Add(s.Dur)
		for len(open) > 0 {
			top := &adopted[open[len(open)-1]]
			if !top.Start.Add(top.Dur).Before(end) {
				break
			}
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			s.Parent = adopted[open[len(open)-1]].ID
		}
		if s.Track == 0 {
			open = append(open, i)
		}
	}
}

// selfTimes returns, per span name, the summed self time of the spans on
// the coordinator track: a span's duration minus the part its children on
// the same track cover. Children on other tracks run in parallel with
// their parent and take nothing from it.
func selfTimes(spans []span) map[string]time.Duration {
	covered := map[int]time.Duration{}
	for _, s := range spans {
		if s.Track == 0 && s.Parent != 0 {
			covered[s.Parent] += s.Dur
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Track != 0 {
			continue
		}
		self := s.Dur - covered[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// writeTrace writes the spans as Chrome trace-event JSON (load it in
// ui.perfetto.dev or chrome://tracing) and returns the path.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	events := make([]obs.Event, len(spans))
	for i, s := range spans {
		events[i] = obs.Event{Track: s.Track, Name: s.Name, Start: s.Start, Dur: s.Dur,
			Args: map[string]int64{"id": int64(s.ID), "parent": int64(s.Parent), "job": s.Job}}
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
