#!/usr/bin/env bash
# Builds hydra-bench and runs it against the repository it sits in, passing
# every argument through (see README.md). The Go build cache, temporary files
# and the benchmark's scratch directories all stay under .bench_build/ at the
# repository root, so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/cmd/hydra-bench" -o "$out/hydra-bench" .
exec "$out/hydra-bench" -root "$root" "$@"
