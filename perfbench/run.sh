#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload gen2-verify --seed 9 --seconds 30 --trace 0
#
# The binary and Go's build cache go to $CARGO_TARGET_DIR (default
# .bench_build), so building writes nothing outside the checkout. The first
# build compiles the standard library into that cache; later ones reuse it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

# Go keeps its build cache, settings and telemetry under these directories;
# pointing them into the build directory keeps every write inside the
# checkout. GOTOOLCHAIN=local forbids toolchain downloads, and the checkout
# need not be a git repository, so no VCS stamp is asked for.
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# Telemetry off: in its default "local" mode the go command forks a detached
# telemetry process that outlives the build. The mode is read from this file
# under XDG_CONFIG_HOME before the go command does anything else.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
