// ALS recommender: factorize a Netflix-like bipartite ratings graph with
// alternating least squares (the paper's collaborative-filtering
// benchmark) and use the latent factors to score unseen user/item pairs.
package main

import (
	"fmt"
	"log"

	xstream "repro"
)

func main() {
	const (
		users   = 20000
		items   = 1000
		ratings = 400000
	)
	g := xstream.BipartiteGraph(users, items, ratings, 123)
	fmt.Printf("ratings graph: %d users, %d items, %d ratings\n", users, items, ratings)

	prog := xstream.NewALS(users, 5)
	res, err := xstream.RunMemory(g, prog, xstream.Config{})
	if err != nil {
		log.Fatal(err)
	}

	edges, err := xstream.Materialize(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training RMSE after 5 alternations: %.4f (ratings live in [0.2, 1.0])\n",
		xstream.ALSRMSE(res.Vertices, edges, users))

	// Score a few user/item pairs: the model predicts high for pairs
	// similar to observed ratings.
	fmt.Println("\nsample predictions (user, item -> predicted rating):")
	for _, pair := range [][2]int{{0, 0}, {1, 3}, {17, 42}, {100, 999}} {
		u := xstream.VertexID(pair[0])
		i := xstream.VertexID(users + pair[1])
		var dot float64
		for k := range res.Vertices[u].F {
			dot += float64(res.Vertices[u].F[k]) * float64(res.Vertices[i].F[k])
		}
		fmt.Printf("  user %-6d item %-5d -> %.3f\n", pair[0], pair[1], dot)
	}

	s := res.Stats
	fmt.Printf("\nvertex footprint is ~%d bytes (factors + normal-equation accumulators)\n", 324)
	fmt.Printf("engine: %d iterations (2 per alternation), %v total\n", s.Iterations, s.TotalTime.Round(1e6))
}
