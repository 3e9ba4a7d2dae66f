#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs
# it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload engine-dense --seed 1 --seconds 40 --trace 0
#
# Everything it writes (the Go build cache, the binary, WALs, spans and
# watchdog dumps) goes under $CARGO_TARGET_DIR, or .bench_build when
# that is unset. It never fetches anything: the benchmark depends only
# on the repository's own module.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
