#!/usr/bin/env bash
# Builds the benchmark and rcbtserved from the source tree in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload classify|refresh|train --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build caches, binaries, run data and
# trace files all stay under .bench_build/ in that directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/rcbtserved" repro/cmd/rcbtserved
)
exec "$out/perfbench" -server "$out/rcbtserved" -work "$out" -root "$root" "$@"
