#!/bin/bash
# Regenerate every table/figure at default (compressed) scale; each
# writes its CSV and its bench record (<id>.record.json) under results/.
# Usage: ./run_all_figures.sh [--full]
set -euo pipefail
cd "$(dirname "$0")"
# Records regenerated from a dirty tree carry a "-dirty" git rev, so
# no record names the code that produced it.
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    echo "WARNING: working tree is dirty — bench records will be stamped" >&2
    echo "         with a '-dirty' revision; commit first so each record names its code" >&2
fi
cargo build --release -p dws-bench
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
echo "ALL FIGURES DONE"
