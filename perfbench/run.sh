#!/usr/bin/env bash
# Builds the DPZ benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload snapshots-flat --seed 1 --seconds 24 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/perfbench, and no module is fetched from the network.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
