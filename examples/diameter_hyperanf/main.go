// HyperANF diameter probe (the paper's Figure 13 diagnostic): estimate a
// graph's neighbourhood function with per-vertex HyperLogLog counters and
// read off how many steps it takes to cover the graph — the paper's way of
// explaining why some graphs (DIMACS roads, yahoo-web) are pathological
// for edge-centric streaming.
package main

import (
	"fmt"
	"log"

	xstream "repro"
)

func probe(name string, g xstream.EdgeSource) {
	prog := xstream.NewHyperANF()
	res, err := xstream.RunMemory(g, prog, xstream.Config{})
	if err != nil {
		log.Fatal(err)
	}
	nf := prog.NF[len(prog.NF)-1]
	fmt.Printf("%-22s %8d vertices  steps=%-4d effective-diameter(0.9)=%-4d N(∞)≈%.3g\n",
		name, g.NumVertices(), prog.Steps(), prog.EffectiveDiameter(0.9), nf)
	_ = res
}

func main() {
	fmt.Println("HyperANF: steps to cover ≈ diameter; compare a scale-free graph with a road-like grid")

	// A scale-free social-network-like graph: tiny diameter.
	probe("rmat (scale-free)", xstream.RMAT(xstream.RMATConfig{
		Scale: 15, EdgeFactor: 16, Seed: 5, Undirected: true,
	}))

	// A directed web-like graph, symmetrized the way the paper does
	// (the neighbourhood function is defined on the undirected version).
	probe("rmat (symmetrized)", xstream.Symmetrize(xstream.RMAT(xstream.RMATConfig{
		Scale: 15, EdgeFactor: 8, Seed: 6,
	})))

	// A road-network-like grid: diameter ~ 2·side. Every scatter-gather
	// iteration advances the frontier one hop, so this shape is X-Stream's
	// worst case (paper §5.3).
	probe("grid 72x72 (road-like)", xstream.GridGraph(72, 72, 7))
}
