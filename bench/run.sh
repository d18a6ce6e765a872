#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It builds the bench binary into
# .bench_build/ at the root of the checkout, keeping the Go build cache there
# too so that a run writes nothing outside the checkout, and then runs the
# binary with the arguments it was given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${BENCH_GOCACHE:-$build/gocache}"
# bench/probe reaches into unisched/internal for the traced run's layer
# probes. If a refactor there has broken it, build without it: the
# end-to-end runs do not need it and report the probes as missing.
if ! go -C "$here" build -o "$build/unisched-bench" . 2>"$build/build.log"; then
	cat "$build/build.log" >&2
	echo "bench: building without bench/probe (-tags noprobe)" >&2
	go -C "$here" build -tags noprobe -o "$build/unisched-bench" .
fi
exec "$build/unisched-bench" -root "$root" "$@"
