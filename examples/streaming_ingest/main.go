// Streaming ingest (the paper's Figure 17 scenario): edges arrive in
// batches, and after each batch the weakly connected components are
// recomputed on the accumulated graph.
//
// Because X-Stream consumes unordered edge lists, ingesting a batch is
// just an append — no re-sorting of the existing graph. Recomputation cost
// grows with the accumulated size but stays far below systems that must
// maintain a sorted index.
package main

import (
	"fmt"
	"log"

	xstream "repro"
)

func main() {
	full := xstream.RMAT(xstream.RMATConfig{Scale: 17, EdgeFactor: 16, Seed: 99, Undirected: true})
	edges, err := xstream.Materialize(full)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream: %d edges arriving in 8 batches\n\n", len(edges))

	dev := xstream.NewSimDevice(xstream.SimSSD("ssd", 2, 0.1))
	const batches = 8
	per := (len(edges) + batches - 1) / batches

	fmt.Printf("%-7s %-18s %-12s %-12s %s\n", "batch", "accumulated edges", "components", "recompute", "iterations")
	for b := 1; b <= batches; b++ {
		n := b * per
		if n > len(edges) {
			n = len(edges)
		}
		acc := xstream.NewSliceSource(edges[:n], full.NumVertices())
		res, err := xstream.RunDisk(acc, xstream.NewWCC(), xstream.Config{
			Device: dev,
			IOUnit: 512 << 10,
			Prefix: fmt.Sprintf("batch%02d-", b),
		})
		if err != nil {
			log.Fatal(err)
		}
		comps := map[xstream.VertexID]bool{}
		for _, v := range res.Vertices {
			comps[v.Label] = true
		}
		s := res.Stats
		fmt.Printf("%-7d %-18d %-12d %-12v %d\n",
			b, n, len(comps), (s.TotalTime - s.PreprocessTime).Round(1e6), s.Iterations)
	}
}
