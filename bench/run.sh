#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash bench/run.sh -workload antlr-epochs -seed 1 -seconds 15 -trace 0
#
# Every build artifact, cache and temporary file stays under
# .bench_build/ in the checkout, and the build never touches the
# network. Outside a full checkout (no go.mod or internal/ at the
# root) the build fails and the script exits non-zero without running.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/bench" build -buildvcs=false -o "$out/viprof-bench" .
# The Go runtime returns freed heap pages with MADV_FREE rather than
# MADV_DONTNEED. The fleet workload's heap swings by hundreds of MB per
# rep; with MADV_DONTNEED it faults about 1 GB of fresh zeroed pages back
# in every rep, and that cost moves with other tenants' memory traffic.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$out/viprof-bench" "$@"
