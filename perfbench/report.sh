#!/usr/bin/env bash
# Runs every workload once and prints its metrics by name and unit, then
# one traced run per workload with the per-layer metrics, self times and
# tracing overhead:
#   bash perfbench/report.sh [seed] [seconds]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-1}"
seconds="${2:-15}"
for trace in 0 1; do
	for w in paper-suite optgap serve-cold serve-cached; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed '$d'
		echo
	done
done
