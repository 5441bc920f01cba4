#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --acquire-limit 1s --workload sim-paper --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, the result records and the span files all go
# under .bench_build/perfbench; nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/home"

go=go
if ! command -v go >/dev/null 2>&1 && [[ -x /usr/local/go/bin/go ]]; then
	go=/usr/local/go/bin/go
fi

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && "$go" build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
