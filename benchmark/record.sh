#!/usr/bin/env bash
# Records benchmark runs as JSON lines, one file per checkout:
#
#   bash benchmark/record.sh OUT_DIR RUNS CHECKOUT [CHECKOUT2]
#
# For every workload it runs seeds 1..RUNS untraced and seed 1 traced in each
# checkout, appending {"workload", "seed", "trace", "result"} lines to
# OUT_DIR/side0.jsonl (and OUT_DIR/side1.jsonl). With two checkouts, the
# parent first and the change second, each seed is one pair and the side
# that runs first alternates from pair to pair. Then:
#
#   bash benchmark/run.sh -compare OUT_DIR/side0.jsonl OUT_DIR/side1.jsonl
#   bash benchmark/run.sh -summarize OUT_DIR/side0.jsonl
set -euo pipefail
if (($# < 3)); then
	echo "usage: $0 OUT_DIR RUNS CHECKOUT [CHECKOUT2]" >&2
	exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
runs=$2
shift 2
checkouts=()
for c in "$@"; do checkouts+=("$(cd "$c" && pwd)"); done
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "${checkouts[0]}/BENCHMARK.json")
workloads=(sweep-flat placed-topo tune-varlen fleet-churn decode-long)

record() { # side workload seed trace
	local line
	line=$(cd "${checkouts[$1]}" &&
		bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" | tail -n 1)
	printf '{"workload":"%s","seed":%d,"trace":%d,"result":%s}\n' "$2" "$3" "$4" "$line" >>"$out/side$1.jsonl"
}

for w in "${workloads[@]}"; do
	for ((s = 1; s <= runs; s++)); do
		order=(0 1)
		((s % 2)) || order=(1 0)
		for side in "${order[@]}"; do
			if ((side < ${#checkouts[@]})); then record "$side" "$w" "$s" 0; fi
		done
	done
	for side in "${!checkouts[@]}"; do record "$side" "$w" 1 1; done
done
