//! Time-scale homogeneity, an exact metamorphic oracle. Gast, Khatiri,
//! Trystram and Wagner (arXiv:1805.00857) model work-stealing makespan
//! as homogeneous of degree 1 in task time and latency. The simulator
//! is so exactly: multiply every duration in the config by k and divide
//! both bandwidths by k, and the run is the same run in a world k times
//! slower — the same events and windows, the same per-rank steal
//! counters, every timestamp ×k. A cell that breaks this hides an
//! absolute time constant somewhere in the scheduler or the engine.
//!
//! Latency jitter and Pareto spikes are left out: both go through
//! floating point and round differently at different scales.

use dws_core::{run_experiment, ExperimentConfig, ExperimentResult, StealAmount, VictimPolicy};
use dws_simnet::FaultPlan;
use dws_topology::AllocationPolicy;
use dws_uts::presets;

/// The config with every duration ×k and both bandwidths ÷k.
fn scaled(cfg: &ExperimentConfig, k: u64) -> ExperimentConfig {
    let mut c = cfg.clone();
    c.workload.base_node_ns *= k;
    let l = &mut c.latency;
    for t in [
        &mut l.same_node_ns,
        &mut l.same_blade_ns,
        &mut l.same_cube_ns,
        &mut l.same_rack_ns,
        &mut l.inter_rack_ns,
        &mut l.per_hop_ns,
        &mut l.software_overhead_ns,
        &mut c.retry_delay_ns,
        &mut c.probe_backoff_ns,
        &mut c.msg_handle_ns,
        &mut c.package_chunk_ns,
        &mut c.nic_occupancy_ns,
        &mut c.fault_plan.spike_min_ns,
        &mut c.fault_plan.spike_cap_ns,
    ] {
        *t *= k;
    }
    l.bytes_per_ns /= k as f64;
    c.nic_bytes_per_ns /= k as f64;
    c
}

fn assert_scaled(base: &ExperimentResult, run: &ExperimentResult, k: u64, what: &str) {
    assert_eq!(base.report.events, run.report.events, "{what}: events");
    assert_eq!(base.window_plan.1, run.window_plan.1, "{what}: windows");
    assert_eq!(
        k * base.makespan.ns(),
        run.makespan.ns(),
        "{what}: makespan"
    );
    for (r, (b, s)) in base
        .stats
        .per_rank
        .iter()
        .zip(&run.stats.per_rank)
        .enumerate()
    {
        let mut want = *b;
        want.search_ns *= k;
        want.session_ns *= k;
        assert_eq!(want, *s, "{what}: rank {r}'s steal stats");
    }
    let (b, s) = (base.trace.as_ref(), run.trace.as_ref());
    let (b, s) = (b.unwrap().transitions(), s.unwrap().transitions());
    assert_eq!(b.len(), s.len(), "{what}: activity transitions");
    for (t, u) in b.iter().zip(s) {
        let want = (t.rank, k * t.at_ns, t.active);
        assert_eq!(want, (u.rank, u.at_ns, u.active), "{what}: a transition");
    }
}

#[test]
fn time_scaling_is_exact() {
    let mut base = ExperimentConfig::new(presets::t3sim_s(), 64);
    base.alloc = AllocationPolicy::TorusFill;
    base.latency.bytes_per_ns = 1.0;
    base.nic_bytes_per_ns = 1.0;
    let cell = |victim, steal| base.clone().with_victim(victim).with_steal(steal);
    let mut cells = vec![
        cell(
            VictimPolicy::DistanceSkewed { alpha: 1.0 },
            StealAmount::Half,
        ),
        cell(VictimPolicy::RoundRobin, StealAmount::OneChunk),
        cell(VictimPolicy::Uniform, StealAmount::Half),
    ];
    // Rand Half under message faults: fault tolerance alone, with
    // lifelines, with lifelines and the health overlay, and the
    // overlay alone (whose quarantine window is the case that breaks
    // if it is an absolute constant).
    for (lifelines, adaptive) in [
        (None, false),
        (Some(4), false),
        (Some(4), true),
        (None, true),
    ] {
        let mut c = cell(VictimPolicy::Uniform, StealAmount::Half);
        c.fault_plan = FaultPlan::message_faults(0.02, 0.01, 0.0);
        c.lifeline_threshold = lifelines;
        c.adaptive = adaptive;
        cells.push(c);
    }
    for cfg in &cells {
        for threads in [1, 2] {
            let at = |c: &ExperimentConfig| {
                let mut c = c.clone();
                c.threads = threads;
                run_experiment(&c)
            };
            let one = at(cfg);
            assert!(one.completed, "{}: did not complete", cfg.label());
            for k in [2, 3] {
                let lossy = if cfg.fault_plan.is_active() {
                    " lossy"
                } else {
                    ""
                };
                let what = format!("{}{lossy} k={k} threads {threads}", cfg.label());
                assert_scaled(&one, &at(&scaled(cfg, k)), k, &what);
            }
        }
    }
}
