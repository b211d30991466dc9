package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/membench"
	"repro/internal/partition2ps"
	"repro/internal/storage"
	"repro/internal/streambuf"
	"repro/internal/tilecodec"
)

// Layer measurements taken in the traced run by calling one layer's public
// functions directly on the workload's own edge list. Each is one timed
// call: they locate a cost, they are not gated.

// measureLayers fills the per-layer metrics that do not come from the
// traced job itself.
func measureLayers(m *measured, g *graph, sz sizes) error {
	if err := measureGraphio(m, g, sz.textSample); err != nil {
		return err
	}
	for _, f := range []func(*measured, *graph) error{measure2PS, measureShuffle, measureTransport, measureTilecodec} {
		if err := f(m, g); err != nil {
			return err
		}
	}
	return nil
}

// measureStream is the STREAM-style yardstick: sequential read bandwidth
// of buffers well past the private caches, with the run's thread count.
func measureStream(m *measured, sz sizes) float64 {
	r := membench.SequentialRead(threads, sz.membenchMB<<20, 300*time.Millisecond)
	m.set("membench.stream_read_gb_per_s", r.BPS/1e9)
	return r.BPS
}

func perSecond(count int, d time.Duration) float64 { return ratio(float64(count), d.Seconds()) }

func measureGraphio(m *measured, g *graph, textSample int) error {
	dev := storage.NewSim(storage.SSDParams("layer", 2, 0))
	if err := graphio.WriteEdges(dev, inputFile, g.source()); err != nil {
		return err
	}
	src, err := graphio.OpenEdges(dev, inputFile)
	if err != nil {
		return err
	}
	var streamed int
	t := time.Now()
	if err := src.Edges(func(b []core.Edge) error { streamed += len(b); return nil }); err != nil {
		return err
	}
	m.set("graphio.stream_edges_medges_per_s", perSecond(streamed, time.Since(t))/1e6)

	sample := g.edges[:min(textSample, len(g.edges))]
	var text bytes.Buffer
	if err := graphio.WriteText(&text, sample); err != nil {
		return err
	}
	t = time.Now()
	parsed, _, err := graphio.ParseText(&text)
	if err != nil {
		return err
	}
	if len(parsed) != len(sample) {
		return fmt.Errorf("graphio.ParseText: %d edges back, wrote %d", len(parsed), len(sample))
	}
	m.set("graphio.parse_text_medges_per_s", perSecond(len(parsed), time.Since(t))/1e6)
	return nil
}

func measure2PS(m *measured, g *graph) error {
	t := time.Now()
	asg, err := partition2ps.New().Assign(g.source(), diskPartitions)
	if err != nil {
		return err
	}
	m.set("partition2ps.assign_s", time.Since(t).Seconds())
	cross, err := asg.CrossEdgeFraction(g.source())
	if err != nil {
		return err
	}
	m.set("partition2ps.cross_edge_share", cross)
	return nil
}

// measureShuffle times the pre-processing shuffle's core: the workload's
// edge list into diskPartitions buckets by source partition.
func measureShuffle(m *measured, g *graph) error {
	plan, err := streambuf.NewPlan(diskPartitions, diskPartitions)
	if err != nil {
		return err
	}
	split := core.NewSplit(g.n, diskPartitions)
	in, out := streambuf.New[core.Edge](len(g.edges)), streambuf.New[core.Edge](len(g.edges))
	in.Fill(g.edges)
	t := time.Now()
	res := streambuf.Shuffle(in, out, plan, threads, func(e core.Edge) uint32 { return split.Of(e.Src) })
	d := time.Since(t)
	if res.Len() != len(g.edges) {
		return fmt.Errorf("streambuf.Shuffle: %d records out, %d in", res.Len(), len(g.edges))
	}
	m.set("streambuf.shuffle_mrec_per_s", perSecond(len(g.edges), d)/1e6)
	return nil
}

// measureTransport drives the in-memory update transport the way a
// scatter phase does — Send in private-buffer-sized batches, Seal, Drain —
// with one update per edge and the sum combiner PageRank uses.
func measureTransport(m *measured, g *graph) error {
	plan, err := streambuf.NewPlan(diskPartitions, diskPartitions)
	if err != nil {
		return err
	}
	split := core.NewSplit(g.n, diskPartitions)
	key := func(u core.Update[float32]) uint32 { return split.Of(u.Dst) }
	folder := core.NewUpdateFolder(split, threads, func(a, b float32) float32 { return a + b })
	tp := core.NewShuffleTransport(len(g.edges), plan, threads, key, folder)
	const batchRecs = 1024 // 8 KiB of 8-byte updates: the engines' private buffer
	batch := make([]core.Update[float32], 0, batchRecs)
	t := time.Now()
	for i := 0; i < len(g.edges); i += batchRecs {
		chunk := g.edges[i:min(i+batchRecs, len(g.edges))]
		batch = batch[:0]
		for _, e := range chunk {
			batch = append(batch, core.Update[float32]{Dst: e.Dst, Val: e.Weight})
		}
		if !tp.Send(int(split.Of(chunk[0].Src)), batch) {
			return fmt.Errorf("core.ShuffleTransport: Send refused with room %d", tp.Room())
		}
	}
	flow, err := tp.Seal()
	if err != nil {
		return err
	}
	var drained int64
	for p := 0; p < diskPartitions; p++ {
		if err := tp.Drain(p, func(b []core.Update[float32]) error { drained += int64(len(b)); return nil }); err != nil {
			return err
		}
	}
	d := time.Since(t)
	if drained != flow.Delivered || flow.Appended != int64(len(g.edges)) {
		return fmt.Errorf("core.ShuffleTransport: appended %d delivered %d drained %d of %d sent",
			flow.Appended, flow.Delivered, drained, len(g.edges))
	}
	m.set("core.transport_mrec_per_s", perSecond(len(g.edges), d)/1e6)
	return tp.Close()
}

// measureTilecodec encodes and decodes the edge list in the disk engine's
// default tile size and checks the round trip.
func measureTilecodec(m *measured, g *graph) error {
	const tileEdges = 4096
	var enc tilecodec.Encoder
	var data []byte
	t := time.Now()
	for i := 0; i < len(g.edges); i += tileEdges {
		var err error
		if data, _, err = enc.Encode(data, g.edges[i:min(i+tileEdges, len(g.edges))]); err != nil {
			return err
		}
	}
	encodeTime := time.Since(t)
	rawMB := float64(len(g.edges)) * tilecodec.EdgeBytes / 1e6

	var tile []core.Edge
	decoded, rest := 0, data
	t = time.Now()
	for len(rest) > 0 {
		var n int
		var err error
		if tile, n, err = tilecodec.Decode(rest, tile); err != nil {
			return err
		}
		if tile[0] != g.edges[decoded] {
			return fmt.Errorf("tilecodec: tile at record %d does not round-trip", decoded)
		}
		decoded += len(tile)
		rest = rest[n:]
	}
	decodeTime := time.Since(t)
	if decoded != len(g.edges) {
		return fmt.Errorf("tilecodec: decoded %d records, encoded %d", decoded, len(g.edges))
	}
	m.set("tilecodec.encode_mb_per_s", ratio(rawMB, encodeTime.Seconds()))
	m.set("tilecodec.decode_mb_per_s", ratio(rawMB, decodeTime.Seconds()))
	m.set("tilecodec.ratio", ratio(float64(len(data))/1e6, rawMB))
	return nil
}
