#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout in the working directory and
# runs it with the given arguments. Run from the repository root:
#
#   bash bench/run.sh -workload ingest-frames -seed 1 -seconds 10 -trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
# Build offline with the installed toolchain, ignoring any user go env file
# or workspace outside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
