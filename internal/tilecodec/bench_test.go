package tilecodec

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/partition2ps"
)

const (
	// benchTileRecs is the out-of-core engine's default tile size
	// (core.Config.TileEdges).
	benchTileRecs = 1024
	// benchTiles is how many tiles of each shape are decoded: about 1 MB
	// encoded, so the set stays in cache as a tile the engine has just
	// read does, and the figure is decode cost rather than memory
	// bandwidth.
	benchTiles = 128
)

// partitionTiles streams src, maps every edge through relabel, buckets the
// records by the partition of their source in stream order — what the
// pre-processing shuffle writes to each partition's edge file — cuts every
// bucket into tiles of benchTileRecs records and keeps benchTiles of them,
// spread evenly over the partitions.
func partitionTiles(b *testing.B, src core.EdgeSource, split core.Split, relabel func(core.Edge) core.Edge) [][]core.Edge {
	b.Helper()
	buckets := make([][]core.Edge, split.K)
	if err := src.Edges(func(batch []core.Edge) error {
		for _, ed := range batch {
			ed = relabel(ed)
			p := split.Of(ed.Src)
			buckets[p] = append(buckets[p], ed)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	var tiles [][]core.Edge
	for _, run := range buckets {
		for len(run) > 0 {
			n := min(len(run), benchTileRecs)
			tiles = append(tiles, run[:n])
			run = run[n:]
		}
	}
	if len(tiles) < benchTiles {
		b.Fatalf("%d tiles, want at least %d", len(tiles), benchTiles)
	}
	sample := make([][]core.Edge, benchTiles)
	for i := range sample {
		sample[i] = tiles[i*len(tiles)/benchTiles]
	}
	return sample
}

// cliqueChainTiles are the tiles of the benchmark's selective BFS workload
// on half its chain: 1024 cliques of 48 with random weights, relabeled by
// 2PS into 8 partitions. A block's sources lie in a clique or two, so each
// takes a few bits; destinations, above 2¹⁴ as in the full chain, take
// three bytes.
func cliqueChainTiles(b *testing.B) [][]core.Edge {
	src := graphgen.CliqueChain(1024, 48, 1)
	asg, err := partition2ps.New().Assign(src, 8)
	if err != nil {
		b.Fatal(err)
	}
	return partitionTiles(b, src, asg.Split, func(ed core.Edge) core.Edge {
		ed.Src, ed.Dst = asg.NewID(ed.Src), asg.NewID(ed.Dst)
		return ed
	})
}

// rmatTiles are RMAT-16 tiles under the range partitioner into 8
// partitions, with one constant weight: a block's sources spread over much
// of its partition's 2¹³ IDs and take about ten bits each, destinations up
// to three bytes.
func rmatTiles(b *testing.B) [][]core.Edge {
	src := graphgen.RMAT(graphgen.RMATScale(16, 1, false))
	return partitionTiles(b, src, core.NewSplit(src.NumVertices(), 8), func(ed core.Edge) core.Edge {
		ed.Weight = 1
		return ed
	})
}

// rawTiles are tiles of uniform 32-bit IDs, which the encoder stores raw.
func rawTiles(*testing.B) [][]core.Edge {
	rng := rand.New(rand.NewSource(1))
	tiles := make([][]core.Edge, benchTiles)
	for i := range tiles {
		tiles[i] = make([]core.Edge, benchTileRecs)
		for j := range tiles[i] {
			tiles[i][j] = core.Edge{Src: core.VertexID(rng.Uint32()), Dst: core.VertexID(rng.Uint32()), Weight: rng.Float32()}
		}
	}
	return tiles
}

// BenchmarkDecodeTile is the per-record cost of Decode (checksum verified)
// over three tile shapes: the selective BFS workload's 2PS clique-chain
// tiles, range-partitioned RMAT tiles, and raw-fallback tiles. ns/record is
// the figure to compare; B/record is the encoded size, block-coded/tile the share
// of tiles the encoder block-coded rather than stored raw.
func BenchmarkDecodeTile(b *testing.B) {
	for _, shape := range []struct {
		name  string
		tiles func(*testing.B) [][]core.Edge
	}{{"cliquechain-2ps", cliqueChainTiles}, {"rmat16-range", rmatTiles}, {"raw", rawTiles}} {
		b.Run(shape.name, func(b *testing.B) {
			var enc Encoder
			var data []byte
			var recs, coded int
			tiles := shape.tiles(b)
			for _, tile := range tiles {
				var compressed bool
				var err error
				if data, compressed, err = enc.Encode(data, tile); err != nil {
					b.Fatal(err)
				}
				recs += len(tile)
				if compressed {
					coded++
				}
			}
			out := make([]core.Edge, benchTileRecs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for rest := data; len(rest) > 0; {
					_, n, err := Decode(rest, out)
					if err != nil {
						b.Fatal(err)
					}
					rest = rest[n:]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*recs), "ns/record")
			b.ReportMetric(float64(len(data))/float64(recs), "B/record")
			b.ReportMetric(float64(coded)/float64(len(tiles)), "block-coded/tile")
		})
	}
}
