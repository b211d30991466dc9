#!/usr/bin/env bash
# Repeatability check, as the driver makes it: every workload once per
# seed, workloads interleaved, all runs appended to one report file, then
# the spread of each end-to-end metric against its bound.
#
#   bash perf/steady.sh <report.jsonl> [first-seed] [seeds] [seconds]
set -euo pipefail
report="$1"; first="${2:-1}"; seeds="${3:-10}"; seconds="${4:-20}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for ((seed = first; seed < first + seeds; seed++)); do
	for w in mem_pagerank disk_pagerank disk_bfs_selective serve_mix; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --report "$report" | tail -n 1
	done
done
bash "$here/run.sh" --spread "$report"
