package bench

import "testing"

// TestFigCompressSavings pins the compression tentpole's acceptance
// criterion: on the out-of-core PageRank rows the compressed run must
// read at least 30% fewer physical bytes than the raw run (the RMAT
// block-coded layout lands well under 0.70x of raw at every scale —
// weights are incompressible random floats, so the margin is all source
// and target coding), and the layout ratio metric must agree with the
// measured byte counts. Bit-identity of results is enforced inside the
// runner itself (logical-volume match plus the BFS vertex comparison),
// so a passing run is also a correctness witness.
func TestFigCompressSavings(t *testing.T) {
	tab, err := runFigCompress(Config{Quick: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		v, ok := tab.Metrics[name]
		if !ok {
			t.Fatalf("missing metric %s", name)
		}
		return v
	}
	raw := get("pagerank_disk_bytes_read_uncompressed")
	cmp := get("pagerank_disk_bytes_read_compressed")
	ratio := get("pagerank_disk_compressed_ratio")
	if raw <= 0 {
		t.Fatalf("raw run read %v bytes", raw)
	}
	if cmp > 0.70*raw {
		t.Fatalf("compressed run read %.0f bytes, above 0.70x of raw (%.0f) — %.1f%% saved",
			cmp, raw, 100*(1-cmp/raw))
	}
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("layout ratio %v outside (0, 1)", ratio)
	}
	t.Logf("pagerank: %.0f -> %.0f physical bytes (%.1f%% saved), layout at %.2f of raw",
		raw, cmp, 100*(1-cmp/raw), ratio)

	bfsRaw := get("bfs_selective_disk_bytes_read_uncompressed")
	bfsCmp := get("bfs_selective_disk_bytes_read_compressed")
	if bfsCmp >= bfsRaw {
		t.Fatalf("selective bfs: compressed read %.0f bytes, raw %.0f — no saving", bfsCmp, bfsRaw)
	}
	t.Logf("bfs+selective: %.0f -> %.0f physical bytes (%.1f%% saved)",
		bfsRaw, bfsCmp, 100*(1-bfsCmp/bfsRaw))
}
