package bench

import "testing"

// TestFigTransportDeterministic checks the gated transport-traffic metrics
// exist, are sane, and are run-deterministic — the property the
// BENCH_baseline gate depends on.
func TestFigTransportDeterministic(t *testing.T) {
	tab, err := runFigTransport(Config{Quick: true, Threads: 2})
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
	for _, m := range []string{
		"wcc_mem_updates_sent_builtin", "wcc_mem_transport_batches_builtin",
		"wcc_mem_transport_bytes_builtin", "bfs_disk_updates_sent_builtin",
		"bfs_disk_transport_batches_builtin", "bfs_disk_transport_bytes_builtin",
	} {
		if v := get(m); v <= 0 {
			t.Fatalf("%s = %v, want > 0", m, v)
		}
	}

	// The pinned transport counters must be deterministic across runs, or
	// the baseline gate would flap.
	tab2, err := runFigTransport(Config{Quick: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for m, v := range tab.Metrics {
		if v2 := tab2.Metrics[m]; v != v2 {
			t.Errorf("%s not deterministic: %v then %v", m, v, v2)
		}
	}
}
