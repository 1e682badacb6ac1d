#!/usr/bin/env bash
# Builds the benchmark and runs it. Every argument goes to the program
# (see the mode list at the top of main.go):
#
#   benchmark/run.sh [-seed N] [-workload W] [-sets K]        the whole set, human-readable + out/result-<seed>.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, as BENCHMARK.json's command is called
#   benchmark/run.sh -compare A.json B.json
#
# Everything the build leaves behind goes under .bench_build/ at the
# repository root, everything a run leaves behind under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
bin="$build/vats-benchmark"
(
	cd "$here"
	# Keep the toolchain's caches, temp files and config inside the checkout,
	# and never let it reach for the network or another toolchain.
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$bin" .
)
exec "$bin" -dir "$here" "$@"
