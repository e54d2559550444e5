#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload fl_train --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, module cache, temporary files and
# the binary) stays under .bench_build/ in the current directory, and the
# toolchain is kept offline.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gomodcache" "${build}/tmp" "${build}/config"
# The go command keeps its settings and usage counters under the user
# configuration directory; point it into the build directory as well.
export XDG_CONFIG_HOME="${build}/config"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOTMPDIR="${build}/tmp"
export GOPATH="${build}/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

bin="${build}/perfbench"
(cd "${root}/perfbench" && go build -o "${bin}" .)
exec "${bin}" "$@"
