package algorithms

import (
	"encoding/json"
	"testing"
)

// TestRegistryConstructsAll: every registered algorithm builds an instance
// from default-ish params, exposes a job with sane record sizes, and its
// renderers produce output (run on a tiny in-memory result where cheap).
func TestRegistryConstructsAll(t *testing.T) {
	if len(Names()) != 12 {
		t.Fatalf("registry has %d algorithms, want 12", len(Names()))
	}
	for _, name := range Names() {
		spec, ok := ByName(name)
		if !ok || spec.Name != name {
			t.Fatalf("ByName(%q) broken", name)
		}
		p := Params{Root: 1, Iters: 2}
		if name == "als" {
			// Required parameter: constructing without it must fail loudly.
			if _, err := spec.New(Params{}); err == nil {
				t.Fatal("als accepted zero users")
			}
			p.Users = 4
		}
		inst, err := spec.New(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.Job == nil || inst.Job.Name() == "" {
			t.Fatalf("%s: no job", name)
		}
		if inst.Job.VertexBytes() <= 0 || inst.Job.UpdateBytes() <= 0 {
			t.Fatalf("%s: zero record sizes", name)
		}
		if err := inst.Job.Check(); err != nil {
			t.Fatalf("%s: pod check: %v", name, err)
		}
		if est := inst.Job.MemoryEstimate(100, 1000, 2, 1); est <= 0 {
			t.Fatalf("%s: estimate %d", name, est)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown algorithm resolved")
	}
}

// TestResultPayloadsEncode: the serving payloads must be JSON-encodable
// (no NaN/Inf), including SSSP's unreachable-vertex distances.
func TestResultPayloadsEncode(t *testing.T) {
	spec, _ := ByName("sssp")
	inst, err := spec.New(Params{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	verts := make([]SSSPState, 3)
	for i := range verts {
		verts[i] = SSSPState{Dist: Inf32}
	}
	verts[0].Dist = 0
	payload := inst.Result(verts)
	buf, err := json.Marshal(payload)
	if err != nil {
		t.Fatalf("sssp payload not encodable: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["reached"].(float64) != 1 {
		t.Fatalf("payload: %v", decoded)
	}
}
