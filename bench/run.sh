#!/usr/bin/env bash
# Builds the benchmark program and paotrserve from source into
# .bench_build/ and runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh --workload twins-20k-4sh --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh -seed 7                      # every workload, both runs
#   bash bench/run.sh compare a.json b.json
#
# Everything the Go toolchain writes (build cache, temporary files,
# settings) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/paotrserve" ]; then
	echo "bench/run.sh: run it from the repository root; go.mod or cmd/paotrserve is missing" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

# With telemetry on, a go command may fork a detached sidecar that
# outlives this script. "go telemetry off" itself starts none, and the
# setting it writes under $XDG_CONFIG_HOME keeps later commands from
# starting one.
go telemetry off

go build -o "$out/paotrserve" ./cmd/paotrserve
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
