//! Microbenchmark of the parallel driver's own overheads: where a
//! windowed run's wall clock goes, at `--threads 1` and `--threads 4`,
//! broken into the phases the engine self-profiles — event dispatch,
//! barrier waits, and the cross-shard exchange — plus the window count
//! from the committed plan.
//!
//! Unlike `ablation_threads` (which sweeps thread counts for the
//! scaling *figure*), this binary exists to feed the `dws diff`
//! perf-smoke gate: its metrics are the parallel driver's cost model,
//! so a regression in barrier share or exchange time shows up as a
//! trajectory delta even on a host where wall-clock speedup is noise.
//! The simulated schedule is asserted identical across the two thread
//! counts in-process (window-plan digest and makespan), so the record
//! never mixes a determinism bug into a performance number.

use dws_bench::{emit, f, record_metric, run_logged, strategy, FigArgs};
use dws_metrics::perflab::{BenchMetric, Polarity};
use std::time::Instant;

/// Fixed scale: big enough that windows, barriers, and cross-shard
/// traffic all occur in quantity; small enough for the perf-smoke job.
const RANKS: u32 = 256;

/// Sum of `total_ns` over profile phases with this name.
fn phase_ns(phases: &[(String, u64, u64)], name: &str) -> u64 {
    phases
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, ns)| *ns)
        .sum()
}

fn main() {
    let args = FigArgs::parse();
    let tree = args.large_tree();
    let (victim, steal) = strategy("Rand");
    let mut rows = Vec::new();
    let mut baseline: Option<((u64, u64), u64)> = None;
    for threads in [1u32, 4] {
        let mut cfg = args
            .config(tree.clone(), RANKS)
            .with_victim(victim)
            .with_steal(steal);
        cfg.threads = threads;
        cfg.collect_trace = false;
        cfg.profile = true;
        let started = Instant::now();
        let r = run_logged(&cfg);
        let wall_s = started.elapsed().as_secs_f64();
        match &baseline {
            None => baseline = Some((r.window_plan, r.makespan.ns())),
            Some((plan, makespan)) => {
                assert_eq!(
                    r.window_plan, *plan,
                    "window plan differs at {threads} threads"
                );
                assert_eq!(
                    r.makespan.ns(),
                    *makespan,
                    "makespan differs at {threads} threads"
                );
            }
        }
        let p = r.profile.as_ref().expect("profile was requested");
        let barrier_ns = phase_ns(&p.phases, "barrier_wait");
        let exchange_ns = phase_ns(&p.phases, "exchange");
        let dispatch_ns = phase_ns(&p.phases, "dispatch");
        // Phase totals sum over all worker threads, so normalize by
        // thread-count × wall to get the share of available CPU time.
        let barrier_share = barrier_ns as f64 / (p.wall_ns.max(1) as f64 * threads as f64);
        let suffix = format!("{threads}t");
        record_metric(BenchMetric::point(
            &format!("wall_s_{suffix}"),
            "s",
            Polarity::LowerIsBetter,
            wall_s,
        ));
        record_metric(BenchMetric::point(
            &format!("dispatch_ms_{suffix}"),
            "ms",
            Polarity::LowerIsBetter,
            dispatch_ns as f64 / 1e6,
        ));
        if threads > 1 {
            record_metric(BenchMetric::point(
                &format!("barrier_ms_{suffix}"),
                "ms",
                Polarity::LowerIsBetter,
                barrier_ns as f64 / 1e6,
            ));
            record_metric(BenchMetric::point(
                &format!("barrier_share_{suffix}"),
                "ratio",
                Polarity::LowerIsBetter,
                barrier_share,
            ));
            record_metric(BenchMetric::point(
                &format!("exchange_ms_{suffix}"),
                "ms",
                Polarity::LowerIsBetter,
                exchange_ns as f64 / 1e6,
            ));
        }
        rows.push(vec![
            threads.to_string(),
            f(wall_s, 2),
            r.window_plan.1.to_string(),
            f(dispatch_ns as f64 / 1e6, 1),
            f(barrier_ns as f64 / 1e6, 1),
            f(100.0 * barrier_share, 1),
            f(exchange_ns as f64 / 1e6, 1),
        ]);
    }
    record_metric(BenchMetric::point(
        "plan_windows",
        "count",
        Polarity::Neutral,
        baseline.expect("two runs completed").0 .1 as f64,
    ));
    emit(
        &args,
        "micro_parallel",
        &format!("Parallel driver phase costs, {RANKS} ranks (Rand)"),
        &[
            "threads",
            "wall s",
            "windows",
            "dispatch ms",
            "barrier ms",
            "barrier %",
            "exchange ms",
        ],
        &rows,
        None,
    );
}
