#!/usr/bin/env bash
# Builds the performance ledger from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfledger/run.sh --workload atlas_uniform --seed 1 --seconds 20 --trace 0
#
# Build products and the Go build cache stay under .bench_build/ in the
# current directory (CARGO_TARGET_DIR names it when set).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off \
	GOPROXY=off GOENV=off
(cd "$root/perfledger" && go build -o "$out/perfledger" .) >&2
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	PERFLEDGER_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFLEDGER_COMMIT
fi
exec "$out/perfledger" "$@"
