#!/usr/bin/env bash
# Build the benchmark in release mode and run it.
#
#   benchmarks/run.sh [--seed S] [--smoke]
#       every workload, every metric, benchmarks/out/result.json and traces
#   benchmarks/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload; the last line of output is the result object
#   benchmarks/run.sh compare <a.json> <b.json>
#       verdict per (metric, workload); exit 2 on a regression
#
# Exits non-zero when the build fails or a check fails.
set -euo pipefail

# A relative CARGO_TARGET_DIR, like the files `compare` is given, is
# relative to where the caller stands. Left unset, the root target/ is
# used so the workspace's build of the dws crates is shared.
case "${CARGO_TARGET_DIR:-}" in
    "" | /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
if [ "${1:-}" = compare ]; then
    files=()
    for f in "${@:2}"; do
        case "$f" in
            /*) files+=("$f") ;;
            *) files+=("$PWD/$f") ;;
        esac
    done
    set -- compare ${files[@]+"${files[@]}"}
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"

cargo build --release --offline --quiet --manifest-path benchmarks/Cargo.toml
exec "$CARGO_TARGET_DIR/release/dws-benchmark" "$@"
