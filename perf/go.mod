// Nested module: the benchmark is a package of its own with its own build
// file, excluded from the root module's ./... patterns. The module path
// keeps the repro/ prefix so the benchmark may import repro/internal/...;
// the replace directive builds the parent checkout from source.
module repro/perf

go 1.24

require repro v0.0.0

replace repro => ../
