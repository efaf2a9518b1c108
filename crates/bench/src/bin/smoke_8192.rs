//! 8,192-rank smoke run: the paper's full scale on the overhauled hot
//! path. One untraced skewed + steal-half experiment on a `TorusFill`
//! allocation, which is torus-symmetric by construction — victim draws
//! come from the **shared offset-alias table** (O(N) total memory, one
//! table set for all ranks; no per-rank tables, no rejection fallback).
//!
//! The binary asserts its own budget so CI fails loudly when the hot
//! path regresses:
//!
//! - the job must be torus-symmetric and take the shared-table path;
//! - the run must complete (every surviving rank observes
//!   termination);
//! - wall clock must stay under [`WALL_BUDGET_S`];
//! - peak resident memory must stay under [`RSS_BUDGET_MIB`].
//!
//! Results are emitted like any figure: `results/smoke_8192.csv` and
//! its BenchRecord, `results/smoke_8192.record.json`.

use dws_bench::{emit, f, run_logged, FigArgs, Samples};
use dws_core::VictimPolicy;
use dws_metrics::perflab::peak_rss_bytes;
use dws_topology::{AllocationPolicy, Job, LatencyParams, Machine, RankMapping};
use std::sync::Arc;
use std::time::Instant;

/// Rank count: the paper's largest configuration.
const RANKS: u32 = 8_192;

/// Wall-clock budget for the whole smoke run. Generous against the
/// measured time (well under a minute on a development machine) so CI
/// noise does not flake, but tight enough that an accidental return to
/// per-rank tables (~8 GB of alias tables) or a super-linear hot-path
/// regression trips it.
const WALL_BUDGET_S: f64 = 300.0;

/// Peak-RSS budget for the whole process. Measured: 43 MiB on one
/// thread (with or without streaming) and 78 MiB at `--threads 4`,
/// where the allocator keeps an arena per worker — so this is about 3×
/// and 1.6× those. Engine state that grows with messages sent instead
/// of messages in flight (the run sends over 20M) costs ~900 MB here and
/// trips it by a wide margin.
const RSS_BUDGET_MIB: f64 = 128.0;

fn main() {
    let args = FigArgs::parse();
    let (victim, steal) = dws_bench::strategy("Tofu Half");

    // The runner builds this exact job for a TorusFill config; build it
    // here too to assert the symmetry contract before spending minutes.
    let machine = Machine::torus_for_nodes(RANKS);
    let job = Arc::new(Job::place(
        machine,
        RANKS,
        AllocationPolicy::TorusFill,
        RankMapping::OneToOne,
        LatencyParams::default(),
    ));
    let ctx = VictimPolicy::DistanceSkewed { alpha: 1.0 }.prepare(&job);
    assert!(
        ctx.uses_shared_table(),
        "8,192-rank TorusFill job must be torus-symmetric and use the \
         shared offset-alias table"
    );

    let mut cfg = args
        .config(dws_uts::presets::t3sim_l(), RANKS)
        .with_victim(victim)
        .with_steal(steal);
    cfg.alloc = AllocationPolicy::TorusFill;
    cfg.collect_trace = false;

    // Streaming telemetry (`--live`, `--snapshot`, `--snapshot-every`)
    // attaches here; the schedule is identical with it on or off, so
    // the smoke metrics stay comparable either way.
    let wall = Instant::now();
    let (res, sample) = run_logged(&cfg, args.streaming());
    let wall_s = wall.elapsed().as_secs_f64();

    assert!(res.completed, "smoke run must observe termination");
    assert!(
        wall_s < WALL_BUDGET_S,
        "8,192-rank smoke took {wall_s:.0}s, budget is {WALL_BUDGET_S:.0}s — \
         hot-path regression"
    );

    // Reads 0 where procfs is missing: nothing to hold the budget against.
    let rss_mib = peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64;
    assert!(
        rss_mib < RSS_BUDGET_MIB,
        "8,192-rank smoke peaked at {rss_mib:.0} MiB resident, budget is \
         {RSS_BUDGET_MIB:.0} MiB — engine state is growing with the run"
    );

    let t = res.stats.total();
    emit(
        &args,
        "smoke_8192",
        "8,192-rank untraced smoke (Tofu Half, TorusFill, T3SIM-L)",
        &[
            "ranks",
            "speedup",
            "makespan_ms",
            "events",
            "failed_steals",
            "wall_s",
            "peak_rss_mib",
        ],
        &[vec![
            RANKS.to_string(),
            f(res.perf.speedup(), 1),
            f(res.makespan.ns() as f64 / 1e6, 1),
            res.report.events.to_string(),
            t.steals_failed.to_string(),
            f(wall_s, 1),
            f(rss_mib, 1),
        ]],
        None,
        Samples {
            runs: vec![sample],
            extra: Vec::new(),
        },
    );
}
