// Out-of-core PageRank: run a twitter-like graph through the disk engine
// on a simulated SSD pair (calibrated to the paper's testbed), showing how
// streaming partitions, the memory budget and the I/O unit interact.
//
// Swap NewSimDevice for NewOSDevice to run against real files.
package main

import (
	"fmt"
	"log"
	"sort"

	xstream "repro"
)

func main() {
	// A directed scale-free graph: 2^19 vertices, 8.4M edges (a scaled
	// stand-in for the paper's Twitter graph).
	g := xstream.RMAT(xstream.RMATConfig{Scale: 19, EdgeFactor: 16, Seed: 7})
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// The paper's RAID-0 PCIe SSD pair, paced at 10% of real time so the
	// example finishes quickly while keeping the I/O patterns honest.
	dev := xstream.NewSimDevice(xstream.SimSSD("ssd", 2, 0.1))

	res, err := xstream.RunDisk(g, xstream.NewPageRank(5), xstream.Config{
		Device:       dev,
		MemoryBudget: 6 << 20, // deliberately tight: forces real partitioning
		IOUnit:       128 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	ranks := xstream.PageRankValues(res.Vertices)
	type vr struct {
		id   xstream.VertexID
		rank float32
	}
	top := make([]vr, 0, len(ranks))
	for i, r := range ranks {
		top = append(top, vr{xstream.VertexID(i), r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Println("top 5 vertices by rank:")
	for _, t := range top[:5] {
		fmt.Printf("  v%-8d %.2f\n", t.id, t.rank)
	}

	s := res.Stats
	fmt.Printf("\n%d streaming partitions, preprocess (edge partitioning, no sort!) %v\n",
		s.Partitions, s.PreprocessTime.Round(1e6))
	fmt.Printf("total %v: scatter %v, gather %v\n",
		s.TotalTime.Round(1e6), s.ScatterTime.Round(1e6), s.GatherTime.Round(1e6))
	fmt.Printf("device traffic: %d MB read, %d MB written\n",
		s.BytesRead>>20, s.BytesWritten>>20)

	ds := dev.Stats()
	fmt.Printf("device requests: %d reads (%d sequential), %d writes (%d sequential)\n",
		ds.Reads, ds.SeqReads, ds.Writes, ds.SeqWrites)
}
