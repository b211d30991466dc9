package main

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// The correctness gate: every job's result is compared with a reference
// from internal/refalgo computed in set-up. A mismatch counts as a failed
// job and the process exits non-zero.

// relTol is how far a float result may sit from its float64 reference,
// relative to the reference (absolute below 1): float32 sums taken in a
// different order land well inside it, a wrong answer does not.
const relTol = 1e-4

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

func verifyRanks(got []float32, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d ranks, want %d", len(got), len(want))
	}
	for i, r := range got {
		if !closeTo(float64(r), want[i]) {
			return fmt.Errorf("pagerank: vertex %d rank %g, want %g", i, r, want[i])
		}
	}
	return nil
}

func verifyLevels(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("bfs: %d levels, want %d", len(got), len(want))
	}
	for i, l := range got {
		if l != want[i] {
			return fmt.Errorf("bfs: vertex %d level %d, want %d", i, l, want[i])
		}
	}
	return nil
}

// verifyDistances takes distances as the serving API renders them: -1 for
// an unreachable vertex, where the reference holds +Inf.
func verifyDistances(got []float32, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("sssp: %d distances, want %d", len(got), len(want))
	}
	for i, d := range got {
		if math.IsInf(want[i], 1) {
			if d != -1 {
				return fmt.Errorf("sssp: vertex %d distance %g, want unreachable", i, d)
			}
			continue
		}
		if !closeTo(float64(d), want[i]) {
			return fmt.Errorf("sssp: vertex %d distance %g, want %g", i, d, want[i])
		}
	}
	return nil
}

func verifyLabels(got, want []core.VertexID) error {
	if len(got) != len(want) {
		return fmt.Errorf("wcc: %d labels, want %d", len(got), len(want))
	}
	for i, l := range got {
		if l != want[i] {
			return fmt.Errorf("wcc: vertex %d label %d, want %d", i, l, want[i])
		}
	}
	return nil
}
