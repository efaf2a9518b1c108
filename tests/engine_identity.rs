//! Engine schedule pins: the simulated outcome of a starved
//! steal-storm run is the contract every engine-side optimisation must
//! keep to the nanosecond.
//!
//! The literals below were recorded at the commit before the engine's
//! per-pair FIFO state was bounded (PR 13), with `engine.rs` untouched,
//! so they are the parent's schedule rather than this code checked
//! against itself. The bit-identity matrix proper lives in
//! `crates/core/tests` and runs only under `--workspace`; this slice is
//! what the root `cargo test -q` sees.

use dws::core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
use dws::metrics::perflab::fingerprint;
use dws::simnet::FaultPlan;
use dws::topology::AllocationPolicy;
use dws::uts::presets;

/// The `steal_storm` shape at test size: T3SIM-S starves 64
/// torus-filled ranks, so most traffic is failed steal round trips
/// between ever-new (thief, victim) pairs.
fn storm(fault_plan: FaultPlan, threads: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_s(), 64)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.alloc = AllocationPolicy::TorusFill;
    cfg.collect_trace = false;
    cfg.fault_plan = fault_plan;
    cfg.threads = threads;
    cfg
}

/// Everything pinned about one run, as one comparable line.
fn identity(cfg: &ExperimentConfig) -> String {
    let r = run_experiment(cfg);
    assert!(r.completed, "the pinned run must terminate");
    let stats: String = r.stats.per_rank.iter().map(|s| format!("{s:?}")).collect();
    let (dropped, duplicated) = r
        .fault
        .as_ref()
        .map_or((0, 0), |f| (f.stats.dropped, f.stats.duplicated));
    format!(
        "makespan_ns={} window_plan={:016x}/{} events={} delivered={} \
         dropped={} duplicated={} nodes={} stats={}",
        r.makespan.ns(),
        r.window_plan.0,
        r.window_plan.1,
        r.report.events,
        r.report.messages,
        dropped,
        duplicated,
        r.total_nodes,
        fingerprint(&stats),
    )
}

#[test]
fn starved_storm_schedule_is_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            identity(&storm(FaultPlan::default(), threads)),
            "makespan_ns=4190655 window_plan=17f6dc8c63e41890/2663 events=29097 delivered=15891 \
             dropped=0 duplicated=0 nodes=22235 stats=58a93fcc5dcd22da",
            "clean storm diverged from the recorded schedule at {threads} thread(s)"
        );
    }
}

#[test]
fn lossy_duplicating_storm_schedule_is_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            identity(&storm(FaultPlan::message_faults(0.01, 0.01, 0.0), threads)),
            "makespan_ns=14045868 window_plan=e6ccc8edf5df299a/2952 events=37999 delivered=16563 \
             dropped=145 duplicated=171 nodes=22235 stats=e113ff432e50dc5b",
            "1% drop + duplicate storm diverged from the recorded schedule at {threads} thread(s)"
        );
    }
}
