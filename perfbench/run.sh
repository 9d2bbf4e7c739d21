#!/usr/bin/env bash
# Builds the benchmark and the mrsch-serve daemon from the checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
(
	cd "$root/perfbench"
	go build -o "$build/perfbench" .
	go build -o "$build/mrsch-serve" repro/cmd/mrsch-serve
) >&2
exec "$build/perfbench" --workdir "$build/run" --daemon "$build/mrsch-serve" "$@"
