package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/streambuf"
	"repro/internal/transport/conformance"
)

// TestShuffleTransportConformance pins the builtin in-memory shuffle —
// the transport the solo in-memory engine and the shared-pass job runner
// use — to the UpdateTransport contract.
func TestShuffleTransportConformance(t *testing.T) {
	conformance.Run(t, conformance.Maker{
		Name: "shuffle",
		New: func(t *testing.T, k int, nv int64, capacity, threads int, combine bool) core.UpdateTransport[int64] {
			split := core.NewSplit(nv, k)
			plan, err := streambuf.NewPlan(k, k)
			if err != nil {
				t.Fatalf("NewPlan: %v", err)
			}
			var folder *streambuf.Folder[core.Update[int64]]
			if combine {
				folder = core.NewUpdateFolder(split, threads, func(a, b int64) int64 { return a + b })
			}
			key := func(u core.Update[int64]) uint32 { return split.Of(u.Dst) }
			return core.NewShuffleTransport(capacity, plan, threads, key, folder)
		},
	})
}
