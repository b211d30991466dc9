package graphgen

import "repro/internal/core"

// Dataset is a named workload: a stand-in for one of the paper's Figure 10
// datasets at a scale that runs on a small host, or a native synthetic
// graph. The benchmark suite (internal/bench) builds the stand-ins at its
// own scales.
type Dataset struct {
	Name       string
	StandInFor string // paper dataset this substitutes, "" if native
	Kind       string // "directed", "undirected", "bipartite"
	Source     core.EdgeSource
}
