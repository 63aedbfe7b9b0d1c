#!/usr/bin/env bash
# The contract's entry point (BENCHMARK.json "command"): build the ledger from
# the checkout this script sits in, then run it with the driver's arguments.
# Everything it writes — the Go build cache included — stays under
# .bench_build/ in that checkout. Without the repo's sources around it the
# script exits non-zero before building anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/api" ]; then
	echo "ledger: $root is not a checkout of the repo (no go.mod / internal/api); nothing to measure" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOFLAGS=
cd "$root"
go build -o "$build/ledger" ./bench/ledger
exec "$build/ledger" -trace-out "$build/ledger-out" "$@"
