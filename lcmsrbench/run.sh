#!/usr/bin/env bash
# Builds the LCMSR benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run it from the repository
# root:
#
#   bash lcmsrbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, the binary, the posting stores
# and the span files of traced runs.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/bin/lcmsrbench" .) >&2
exec "$out/bin/lcmsrbench" "$@"
