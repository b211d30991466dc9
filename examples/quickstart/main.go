// Quickstart: generate a scale-free graph, find its weakly connected
// components with the in-memory engine, and print the execution profile.
//
// This is the 30-second tour of the library: no sorting, no index — the
// engine computes directly on an unordered edge list.
package main

import (
	"fmt"
	"log"

	xstream "repro"
)

func main() {
	// An RMAT graph with Graph500 parameters: 2^18 vertices, ~4M directed
	// edge records (each undirected edge stored both ways).
	g := xstream.RMAT(xstream.RMATConfig{
		Scale:      18,
		EdgeFactor: 16,
		Seed:       42,
		Undirected: true,
	})
	fmt.Printf("graph: %d vertices, %d edge records\n", g.NumVertices(), g.NumEdges())

	res, err := xstream.RunMemory(g, xstream.NewWCC(), xstream.Config{})
	if err != nil {
		log.Fatal(err)
	}

	labels := xstream.WCCLabels(res.Vertices)
	sizes := map[xstream.VertexID]int{}
	for _, l := range labels {
		sizes[l]++
	}
	largest := 0
	for _, n := range sizes {
		if n > largest {
			largest = n
		}
	}
	fmt.Printf("components: %d, largest: %d vertices (%.1f%%)\n",
		len(sizes), largest, 100*float64(largest)/float64(len(labels)))

	s := res.Stats
	fmt.Printf("engine: %d iterations over %d partitions in %v\n",
		s.Iterations, s.Partitions, s.TotalTime.Round(1e6))
	fmt.Printf("streamed %d edges, sent %d updates, wasted %.0f%% of streamed edges\n",
		s.EdgesStreamed, s.UpdatesSent, 100*s.WastedFraction())
}
