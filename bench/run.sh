#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root with the benchmark's own flags, for example
#
#   bash bench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every temporary file stay under
# .bench_build/ in the current directory, and the run's server data under
# .bench_run/ (removed when the run ends), so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
