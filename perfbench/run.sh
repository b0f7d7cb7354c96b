#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every file the build and the run write
# (Go build cache, binary, trace files) stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
# Keep the toolchain's caches and config inside the checkout and off the
# network: no toolchain switch, no module proxy, no workspace file.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Stamp the git revision when the checkout is itself a git work tree; the
# ceiling keeps git from finding a repository above it.
export GIT_CEILING_DIRECTORIES="${PWD%/*}"
rev=$(git rev-parse HEAD 2>/dev/null) || rev=unknown
if [ "$rev" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
	rev="$rev-dirty"
fi
(cd perfbench && go build -buildvcs=false -ldflags "-X main.revision=$rev" -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/traces" "$@"
