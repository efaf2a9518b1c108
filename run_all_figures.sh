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
for bin in table1 fig02_efficiency_small fig03_reference_large fig04_latency_small \
           fig05_latency_large fig06_random_speedup fig07_failed_steals_rand \
           fig08_skew_pdf fig09_tofu_speedup fig10_session_duration fig11_steal_half \
           fig12_sl_compare fig13_el_compare fig14_search_time fig15_failed_steals_half \
           fig16_granularity ablation_polling ablation_chunk_size ablation_skew_exponent \
           ablation_flat_network ablation_nic ablation_skew_impl ablation_future_selection \
           ablation_link_load ablation_lifelines ablation_network_model ablation_threads \
           ablation_adaptive ablation_blame smoke_8192; do
    echo "=== $bin ==="
    ./target/release/$bin "$@" | tee results/$bin.out
done
# One trajectory entry per figure run: the per-binary records are
# single-line JSON, so concatenation is valid JSON-lines.
cat results/*.record.json >> results/BENCH_trajectory.json
echo "[figure records appended to results/BENCH_trajectory.json]"
echo "ALL FIGURES DONE"
