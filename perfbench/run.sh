#!/usr/bin/env bash
# Builds the pipeline benchmark from the sources of this checkout and runs
# one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload select-soc --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files go to .bench_build/ in
# the checkout; nothing is fetched, so a checkout without the repository's
# sources fails to build and exits non-zero.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

bin="$out/perfbench"
(cd "$bench_dir" && go build -o "$bin.tmp.$$" .)
mv -f "$bin.tmp.$$" "$bin"

cd "$root"
exec "$bin" -out "$out" "$@"
