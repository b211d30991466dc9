#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout: bash perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes — Go's build cache, its temporary files and
# the binary — stays inside the checkout under .bench_build/, and the run
# writes only perf/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too. No module is downloaded:
# perf/go.mod replaces its only requirement with the parent directory.
export XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perf" && go build -o "$build/perf" .)
cd "$root"
exec "$build/perf" "$@"
