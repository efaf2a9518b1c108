#!/bin/bash
# Regenerate every table/figure at default (compressed) scale, then
# consolidate each figure's bench record into the trajectory store.
# Usage: ./run_all_figures.sh [--full]
set -euo pipefail
cd "$(dirname "$0")"
# Trajectory hygiene: records regenerated from a dirty tree carry a
# "-dirty" git rev and pollute cross-run regression diffs. Warn loudly.
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    echo "WARNING: working tree is dirty — bench records will be stamped" >&2
    echo "         with a '-dirty' revision; commit first for clean trajectory entries" >&2
fi
cargo build --release -p dws-bench 2>/dev/null
rm -f results/*.record.json
# The figure table first (one process per figure, so each record's wall
# time and peak RSS are that figure's), then the binaries that simulate
# nothing and the engine gates.
for id in $(./target/release/figures); do
    echo "=== $id ==="
    ./target/release/figures "$id" "$@" | tee "results/$id.out"
done
for bin in table1 fig08_skew_pdf ablation_skew_impl ablation_link_load \
           ablation_threads smoke_8192; do
    echo "=== $bin ==="
    ./target/release/$bin "$@" | tee "results/$bin.out"
done
# One trajectory entry per figure run: the per-figure records are
# single-line JSON, so concatenation is valid JSON-lines.
cat results/*.record.json >> results/BENCH_trajectory.json
echo "[figure records appended to results/BENCH_trajectory.json]"
echo "ALL FIGURES DONE"
