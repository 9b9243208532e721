#!/usr/bin/env bash
# Builds tlrserve and the benchmark program from this checkout and runs
# one workload, or each of them in turn with --workload all.  Run from
# the root of the checkout:
#
#   bash tlrbench/run.sh --workload replay-mem --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/tlrserve ]; then
	echo "tlrbench: $root is not a checkout of the tlr module" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/bin" "$out/home" "$out/tmp" "$out/work"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$out/bin/tlrserve" ./cmd/tlrserve >&2
(cd tlrbench && go build -o "$out/bin/tlrbench" .) >&2
bench=("$out/bin/tlrbench" -tlrserve "$out/bin/tlrserve" -work "$out/work")
args=("$@")
for i in "${!args[@]}"; do
	if [ "${args[$i]}" = all ] && [ "$i" -gt 0 ] && [ "${args[$((i - 1))]}" = --workload ]; then
		status=0
		for w in sweep-live replay-mem disk-churn; do
			args[$i]=$w
			"${bench[@]}" "${args[@]}" || status=1
		done
		exit $status
	fi
done
exec "${bench[@]}" "$@"
