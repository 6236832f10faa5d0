#!/usr/bin/env bash
# Runs whole sets of the benchmark for a person: the four workloads one after
# the other — never two at once, timings matter — first end to end on 1500
# ticks, then the layer pass on 300, each in a process of its own, on a fixed
# number of ticks so that the program's counts repeat exactly. Every run goes
# through bench.sh, which builds on the first call and finds the binary up to
# date after. With -sets 2 it runs two sets and compares them.
#
#   benchmark/run.sh [-sets n] [-seed n]
#
# Results go to .bench_build/results/result-<seed>-<set>-<workload>-t<trace>.json.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sets=1 seed=1
while [ $# -gt 0 ]; do
	case "$1" in
	-sets) sets=$2 ;;
	-seed) seed=$2 ;;
	*) echo "usage: $0 [-sets n] [-seed n]" >&2; exit 2 ;;
	esac
	shift 2
done
out="$root/.bench_build/results"
mkdir -p "$out"
export GOMAXPROCS=2
bench() { bash "$root/benchmark/bench.sh" "$@"; }
failed=0
for set in $(seq 1 "$sets"); do
	for workload in paper-default update-heavy query-churn served-cluster; do
		bench --workload "$workload" --seed "$seed" --ticks 1500 --trace 0 \
			--out "$out/result-$seed-$set-$workload-t0.json" || failed=1
		bench --workload "$workload" --seed "$seed" --ticks 300 --trace 1 \
			--out "$out/result-$seed-$set-$workload-t1.json" || failed=1
	done
done
if [ "$sets" -ge 2 ]; then
	bench compare "$out"/result-"$seed"-1-*.json -- "$out"/result-"$seed"-2-*.json || failed=1
fi
exit $failed
