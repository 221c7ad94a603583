#!/usr/bin/env bash
# Builds vbsd, vbsgw and the perfbench driver from this checkout, then
# runs the driver with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload node-hot --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included), so the first run of a fresh
# checkout compiles the standard library and takes a few minutes.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/vbsd" ] || [ ! -d "$root/cmd/vbsgw" ]; then
  echo "perfbench: run from the repository root (no go.mod with cmd/vbsd and cmd/vbsgw here)" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/vbsd ./cmd/vbsgw >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/work" --root "$root" "$@"
