package algorithms

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/pod"
)

// TestCombineOpContract pins which algorithms declare a core.CombineOp, and
// holds each that does to it: the engines merge by the op inline instead of
// calling Combine, so Combine(a, b) must equal the op bit for bit — on 10 000
// seeded random pairs and on every pair of a corpus of NaNs, ±0, ±Inf,
// denormals and integer extremes.
func TestCombineOpContract(t *testing.T) {
	progs := registryPrograms(t)
	declared := map[string]core.CombineOp{
		"pagerank": core.CombineSum, "spmv": core.CombineSum,
		"sssp": core.CombineMin, "bfs": core.CombineMin, "wcc": core.CombineMin,
	}
	for _, name := range Names() {
		prog := progs[name]
		var op core.CombineOp
		if d, ok := prog.(interface{ CombineOp() core.CombineOp }); ok {
			op = d.CombineOp()
		}
		if op != declared[name] {
			t.Errorf("%s declares op %d, want %d", name, op, declared[name])
			continue
		}
		if op == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		switch c := prog.(type) {
		case core.Combiner[float32]:
			checkOpContract(t, name, op, c.Combine, floatCorpus, func() float32 { return math.Float32frombits(rng.Uint32()) })
		case core.Combiner[int32]:
			checkOpContract(t, name, op, c.Combine, intCorpus, func() int32 { return int32(rng.Uint32()) })
		case core.Combiner[core.VertexID]:
			checkOpContract(t, name, op, c.Combine, idCorpus, func() core.VertexID { return core.VertexID(rng.Uint32()) })
		default:
			t.Errorf("%s declares op %d but has no Combiner of a specialised value type", name, op)
		}
	}
}

// registryPrograms is one program of every registered algorithm, by name.
func registryPrograms(t *testing.T) map[string]any {
	t.Helper()
	progs := map[string]any{
		"wcc": NewWCC(), "scc": NewSCC(), "bfs": NewBFS(0), "sssp": NewSSSP(0),
		"pagerank": NewPageRank(1), "spmv": NewSpMV(), "mis": NewMIS(), "mcst": NewMCST(),
		"conductance": NewConductance(func(core.VertexID) bool { return true }),
		"bp":          NewBP(1), "als": NewALS(1, 1), "hyperanf": NewHyperANF(),
	}
	if len(progs) != len(Names()) {
		t.Fatalf("the table has %d algorithms, the registry %d", len(progs), len(Names()))
	}
	for _, name := range Names() {
		if _, ok := progs[name]; !ok {
			t.Fatalf("registered algorithm %s is not in the table", name)
		}
	}
	return progs
}

var (
	floatCorpus = []float32{float32(math.NaN()), math.Float32frombits(0xFFC00001), math.Float32frombits(0x7F800001),
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007FFFFF),
		math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.1}
	intCorpus = []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	idCorpus  = []core.VertexID{0, 1, math.MaxUint32 - 1, math.MaxUint32}
)

type opValue interface{ ~float32 | ~int32 | ~uint32 }

// checkOpContract compares combine with op on every corpus pair and 10 000
// random ones, by the bits of the results.
func checkOpContract[N opValue](t *testing.T, name string, op core.CombineOp, combine func(a, b N) N, corpus []N, random func() N) {
	t.Helper()
	var as, bs []N
	for _, a := range corpus {
		for _, b := range corpus {
			as, bs = append(as, a), append(bs, b)
		}
	}
	for range 10000 {
		as, bs = append(as, random()), append(bs, random())
	}
	got, want := make([]N, len(as)), make([]N, len(as))
	for i := range as {
		a, b := as[i], bs[i]
		got[i] = combine(a, b)
		if op == core.CombineSum {
			want[i] = a + b
		} else if want[i] = b; a < b {
			want[i] = a
		}
	}
	gotBits, wantBits := pod.AsBytes(got), pod.AsBytes(want)
	for i := range got {
		if string(gotBits[4*i:4*i+4]) != string(wantBits[4*i:4*i+4]) {
			t.Fatalf("%s: Combine(%v, %v) = %v, op %d gives %v", name, as[i], bs[i], got[i], op, want[i])
		}
	}
}
