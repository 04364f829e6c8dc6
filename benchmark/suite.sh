#!/usr/bin/env bash
# One set of runs: every workload once per seed with tracing off, then
# once with the traced pass, each run appended to <out.jsonl> as one
# JSON line. Two such files are what `-compare` reads.
#   bash benchmark/suite.sh <out.jsonl> [seconds] [seed ...]
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
out="${1:?usage: suite.sh <out.jsonl> [seconds] [seed ...]}"
seconds="${2:-20}"
shift $(( $# < 2 ? $# : 2 ))
seeds=("${@:-1}")
run() { # workload seed trace
	local t0=$SECONDS
	bash "$here/run.sh" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" -out "$out" >/dev/null
	echo "$1 seed=$2 trace=$3 took $((SECONDS - t0))s" >&2
}
for workload in serve_light serve_saturated join_resident join_spill; do
	for seed in "${seeds[@]}"; do
		run "$workload" "$seed" 0
	done
	run "$workload" "${seeds[0]}" 1
done
