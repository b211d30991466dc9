package main

import (
	"sync"
	"time"
)

// hostProbe is a fixed mix of work — dependent random loads over a buffer
// past the private caches, sequential reads of it, a scatter-style random
// read-modify-write of a cache-sized table, and plain arithmetic — run on
// every thread before each repetition of a workload. It touches no code of
// the repository, so its time depends only on the host.
//
// On the shared sandbox the memory system slows by tens of per cent for
// minutes at a time while arithmetic stays within two per cent: ten
// minutes of back-to-back mem_pagerank jobs ranged over 49 % in their
// 15-second medians. The probe slows with the jobs, and dividing a run's
// timings by its median probe time (see factor) cut that dispersion from
// 8.7 % to 3.5 % (standard deviation over mean) without moving the numbers
// on a quiet host. README, "How the numbers are kept steady".
type hostProbe struct {
	lanes   [threads]probeLane
	samples []float64 // seconds of each run since the last factor
}

type probeLane struct {
	big   []uint64    // 16 MiB: past L2, so loads reach the shared cache and memory
	edges []probeEdge // 4 MiB streamed sequentially
	table []float32   // 1.5 MiB updated at random: the size of a partition's vertex state
	sink  uint64
}

type probeEdge struct{ src, dst uint32 }

// probeNominal is the probe's time on a quiet sandbox. Timings are scaled
// to it, so they read as seconds on that host.
const probeNominal = 0.100

func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for l := range p.lanes {
		lane := &p.lanes[l]
		lane.big = make([]uint64, 2<<20)
		for i := range lane.big {
			lane.big[i] = uint64(i)
		}
		lane.table = make([]float32, 3<<17)
		for i := range lane.table {
			lane.table[i] = 1
		}
		lane.edges = make([]probeEdge, 1<<19)
		s := uint32(12345 + l)
		next := func() uint32 { // a fixed LCG: the same probe on every run
			s = s*1664525 + 1013904223
			return (s >> 8) % uint32(len(lane.table))
		}
		for i := range lane.edges {
			lane.edges[i] = probeEdge{next(), next()}
		}
	}
	return p
}

// run executes the mix once on every thread and records how long it took.
func (p *hostProbe) run() {
	t := time.Now()
	var wg sync.WaitGroup
	for l := range p.lanes {
		wg.Add(1)
		go func(lane *probeLane) {
			defer wg.Done()
			lane.work()
		}(&p.lanes[l])
	}
	wg.Wait()
	p.samples = append(p.samples, time.Since(t).Seconds())
}

func (lane *probeLane) work() {
	x := uint64(1)
	mask := uint64(len(lane.big) - 1)
	for i := 0; i < 600_000; i++ { // each load's address depends on the last
		x = x*6364136223846793005 + lane.big[x>>20&mask]
	}
	for pass := 0; pass < 4; pass++ {
		for _, v := range lane.big {
			x += v
		}
	}
	for pass := 0; pass < 8; pass++ {
		for _, e := range lane.edges {
			lane.table[e.dst] = lane.table[e.dst]*0.5 + lane.table[e.src]*0.25
		}
	}
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	lane.sink += x
}

// factor returns what to multiply the timings taken since the last call
// by — probeNominal over the median probe time — and forgets the samples.
// A slow host has a factor below one.
func (p *hostProbe) factor() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	f := ratio(probeNominal, median(p.samples))
	p.samples = p.samples[:0]
	return f
}
