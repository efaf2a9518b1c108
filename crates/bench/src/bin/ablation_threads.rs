//! Ablation: simulation worker threads on the flagship configuration.
//!
//! Sweeps `--threads` over {1, 2, 4, 8} on the largest-scale run (512
//! ranks compressed, the paper's 8,192 under `--full`) and reports the
//! harness wall-clock speedup. The simulated results are **required**
//! to be bit-identical at every thread count — the sweep asserts the
//! makespan, event/message counts, and config fingerprint against the
//! serial baseline, so a determinism regression fails the figure
//! rather than silently skewing it.
//!
//! Wall-clock speedup depends on the host: on a single hardware core
//! the parallel engine only adds barrier overhead, and this figure will
//! honestly report speedups near (or below) 1. The host's available
//! parallelism is therefore recorded in the CSV and the bench record,
//! and rows whose thread count exceeds it are marked
//! `insufficient_cores`: the number is reported, but says nothing about
//! scaling. No speedup is asserted — no host this figure has run on had
//! the cores to calibrate a band against.

use dws_bench::{emit, f, run_logged, strategy, FigArgs, Samples};
use dws_metrics::perflab::{BenchMetric, Polarity};
use std::time::Instant;

const THREAD_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn main() {
    let args = FigArgs::parse_unstreamed();
    let tree = args.large_tree();
    let ranks = args.flagship_ranks();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("host reports {cores} available hardware threads");
    let mut samples = Samples::default();
    samples.extra.push(BenchMetric::point(
        "host_cores",
        "count",
        Polarity::Neutral,
        cores as f64,
    ));
    let (victim, steal) = strategy("Rand");
    let mut rows = Vec::new();
    let mut baseline: Option<(u64, u64, u64, String, f64)> = None;
    for threads in THREAD_COUNTS {
        let mut cfg = args
            .config(tree.clone(), ranks)
            .with_victim(victim)
            .with_steal(steal);
        cfg.threads = threads;
        cfg.collect_trace = false;
        let started = Instant::now();
        let (r, run_sample) = run_logged(&cfg, None);
        samples.runs.push(run_sample);
        let wall_s = started.elapsed().as_secs_f64();
        let sample = (
            r.makespan.ns(),
            r.report.events,
            r.report.messages,
            r.fingerprint.clone(),
            wall_s,
        );
        let (wall_1t, identical) = match &baseline {
            None => {
                baseline = Some(sample);
                (wall_s, true)
            }
            Some(b) => {
                assert_eq!(b.0, sample.0, "makespan differs at {threads} threads");
                assert_eq!(b.1, sample.1, "event count differs at {threads} threads");
                assert_eq!(b.2, sample.2, "message count differs at {threads} threads");
                assert_eq!(b.3, sample.3, "fingerprint differs at {threads} threads");
                (b.4, true)
            }
        };
        let wall_speedup = wall_1t / wall_s;
        let scaling = if threads == 1 {
            "baseline"
        } else if cores < threads as usize {
            // Not enough hardware behind the thread count: report the
            // number, but don't pretend it says anything about scaling.
            "insufficient_cores"
        } else {
            if threads == 4 {
                samples.extra.push(BenchMetric::point(
                    "wall_speedup_4t",
                    "x",
                    Polarity::HigherIsBetter,
                    wall_speedup,
                ));
            }
            "ok"
        };
        rows.push(vec![
            threads.to_string(),
            r.makespan.to_string(),
            f(r.perf.speedup(), 1),
            f(wall_s, 2),
            f(wall_speedup, 2),
            if identical { "yes" } else { "NO" }.to_string(),
            cores.to_string(),
            scaling.to_string(),
        ]);
    }
    emit(
        &args,
        "ablation_threads",
        &format!("Parallel engine scaling, {ranks} ranks (Rand, host cores: {cores})"),
        &[
            "threads",
            "makespan",
            "sim speedup",
            "wall s",
            "wall speedup",
            "identical",
            "host cores",
            "scaling",
        ],
        &rows,
        None,
        samples,
    );
}
