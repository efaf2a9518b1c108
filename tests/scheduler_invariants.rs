//! Invariant checks over full distributed runs: work conservation,
//! trace well-formedness (the trace is on the global clock, also under
//! latency jitter), and the mathematical
//! properties of the occupancy/latency metrics.

use dws::core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
use dws::uts::presets;

fn noisy_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_s(), 16)
        .with_victim(VictimPolicy::Uniform)
        .with_steal(StealAmount::Half);
    cfg.jitter = 0.25;
    cfg
}

#[test]
fn conservation_under_noise() {
    let r = run_experiment(&noisy_config());
    assert!(r.completed);
    r.stats
        .check_conservation()
        .expect("work conserved across steals");
    let total = r.stats.total();
    assert!(
        total.nodes_given > 0,
        "an unbalanced tree must force steals"
    );
    assert_eq!(total.nodes_given, total.nodes_received);
}

#[test]
fn skewed_run_traces_on_the_global_clock() {
    let r = run_experiment(&noisy_config());
    let trace = r.trace.as_ref().expect("trace on by default");
    let n = trace.check().expect("valid trace");
    assert!(n > 0);
    // Recorded on the global clock and merged once: sorted, and no
    // transition past the makespan.
    let key = |t: &dws::metrics::Transition| (t.at_ns, t.rank);
    assert!(trace
        .transitions()
        .windows(2)
        .all(|w| key(&w[0]) <= key(&w[1])));
    assert!(trace.transitions().last().unwrap().at_ns <= r.makespan.ns());
    // Busy time per rank must sum to what the occupancy curve integrates.
    let occ = r.occupancy().expect("curve");
    let busy: u128 = occ.busy_ns_per_rank().iter().map(|&b| b as u128).sum();
    assert_eq!(busy, occ.busy_integral_ns());
}

#[test]
fn occupancy_metrics_satisfy_definitions() {
    let r = run_experiment(&noisy_config());
    let occ = r.occupancy().expect("curve");
    assert!(occ.w_max() >= 1, "rank 0 alone guarantees one worker");
    assert!(occ.w_max() <= r.n_ranks);
    let mut prev_sl = 0.0;
    let mut prev_el = 0.0;
    for (_, sl, el) in occ.latency_series(100) {
        if let Some(sl) = sl {
            assert!((0.0..=1.0).contains(&sl), "SL out of range: {sl}");
            assert!(sl >= prev_sl, "SL must be non-decreasing in occupancy");
            prev_sl = sl;
        }
        if let Some(el) = el {
            assert!((0.0..=1.0).contains(&el), "EL out of range: {el}");
            assert!(el >= prev_el, "EL must be non-decreasing in occupancy");
            prev_el = el;
        }
    }
    // Average occupancy consistent with busy integral by construction;
    // also sane: strictly between 0 and 1 for a multi-rank run.
    let avg = occ.average_occupancy();
    assert!(avg > 0.0 && avg < 1.0, "average occupancy {avg}");
}

#[test]
fn search_time_bounded_by_makespan() {
    let r = run_experiment(&noisy_config());
    for (rank, s) in r.stats.per_rank.iter().enumerate() {
        assert!(
            s.search_ns <= r.makespan.ns(),
            "rank {rank} searched longer than the run lasted"
        );
        assert!(
            s.session_ns <= r.makespan.ns(),
            "rank {rank} sessions exceed the run"
        );
        s.check().unwrap_or_else(|e| panic!("rank {rank}: {e}"));
    }
}

#[test]
fn rank_zero_processes_first_and_all_work_accounted() {
    let r = run_experiment(&noisy_config());
    let per: Vec<u64> = r.stats.per_rank.iter().map(|s| s.nodes_processed).collect();
    assert!(per[0] > 0, "rank 0 starts with the root");
    assert_eq!(per.iter().sum::<u64>(), r.total_nodes);
    let active = per.iter().filter(|&&n| n > 0).count();
    assert!(
        active > r.n_ranks as usize / 2,
        "work stealing should activate most of {} ranks, got {active}",
        r.n_ranks
    );
}

#[test]
fn event_limit_aborts_cleanly() {
    let mut cfg = noisy_config();
    cfg.max_events = Some(500);
    let r = run_experiment(&cfg);
    assert!(!r.completed, "500 events cannot finish this tree");
    assert!(r.report.halted);
}

#[test]
fn time_limit_aborts_cleanly() {
    let mut cfg = noisy_config();
    cfg.max_sim_time_ns = Some(50_000); // 50 us of simulated time
    let r = run_experiment(&cfg);
    assert!(!r.completed);
    assert!(r.makespan.ns() <= 60_000);
}

#[test]
fn flat_network_and_nic_off_still_correct() {
    let mut cfg = ExperimentConfig::new(presets::t3sim_xs(), 8)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 });
    cfg.latency = dws::topology::LatencyParams::flat(2_000);
    cfg.nic_occupancy_ns = 0;
    let seq = dws::uts::search(&cfg.workload);
    cfg.expect_nodes = Some(seq.nodes);
    let r = run_experiment(&cfg);
    assert!(r.completed);
}
