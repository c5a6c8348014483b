#!/usr/bin/env bash
# Builds the benchmark and the shipped mspctool binary from this checkout,
# then runs one benchmark pass. Run it from the repository root:
#
#   bash perfbench/run.sh --workload noc-steady --seed 1 --seconds 10 --trace 0
#
# Everything it builds, caches and writes stays under .perfbench/ in the
# checkout: the Go build cache, temp files, the binaries, the per-seed
# input cache and the per-run scratch directories.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mspctool" ]; then
	echo "perfbench: run from the repository root (cmd/mspctool not found)" >&2
	exit 2
fi
work="$root/.perfbench"
mkdir -p "$work/bin" "$work/tmp" "$work/gocache" "$work/gopath" "$work/config"

export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" \
	TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local \
	GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root" && go build -o "$work/bin/mspctool" ./cmd/mspctool) >&2
(cd "$root/perfbench" && go build -o "$work/bin/perfbench" .) >&2
exec "$work/bin/perfbench" -root "$root" -work "$work" "$@"
