#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload. Usage, from the repository root:
#
#   bash benchmark/run.sh --workload fleet_udp --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache, temporary files, the binary,
# the hgwd cache directories and the trace files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/benchmark" && go build -o "$out/hgwbench.$$" .)
mv -f "$out/hgwbench.$$" "$out/hgwbench"
cd "$root"
exec "$out/hgwbench" "$@"
