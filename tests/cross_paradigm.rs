//! Cross-paradigm integration tests: the same UTS tree must be counted
//! identically by the sequential searcher, the threaded shared-memory
//! pool, and the simulated distributed scheduler under every victim
//! selection, steal amount, and rank mapping.

use dws::core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
use dws::shmem::parallel_search;
use dws::topology::RankMapping;
use dws::uts::presets;

fn all_policies() -> Vec<VictimPolicy> {
    vec![
        VictimPolicy::RoundRobin,
        VictimPolicy::Uniform,
        VictimPolicy::DistanceSkewed { alpha: 1.0 },
        VictimPolicy::DistanceSkewed { alpha: 2.0 },
    ]
}

#[test]
fn every_strategy_counts_the_same_tree() {
    let workload = presets::t3sim_xs();
    let seq = dws::uts::search(&workload);
    for victim in all_policies() {
        for steal in [StealAmount::OneChunk, StealAmount::Half] {
            let mut cfg = ExperimentConfig::new(workload.clone(), 8)
                .with_victim(victim)
                .with_steal(steal);
            cfg.expect_nodes = Some(seq.nodes);
            let r = run_experiment(&cfg);
            assert!(r.completed, "{}: did not terminate", r.label);
            assert_eq!(r.total_nodes, seq.nodes, "{}", r.label);
        }
    }
}

#[test]
fn every_mapping_counts_the_same_tree() {
    let workload = presets::t3sim_xs();
    let seq = dws::uts::search(&workload);
    for mapping in [
        RankMapping::OneToOne,
        RankMapping::RoundRobin { ppn: 8 },
        RankMapping::Grouped { ppn: 8 },
        RankMapping::Grouped { ppn: 3 },
    ] {
        let mut cfg = ExperimentConfig::new(workload.clone(), 4).with_mapping(mapping);
        cfg.expect_nodes = Some(seq.nodes);
        let r = run_experiment(&cfg);
        assert_eq!(r.total_nodes, seq.nodes, "mapping {}", mapping.label());
    }
}

#[test]
fn shmem_distributed_and_sequential_agree() {
    let workload = presets::t3sim_s();
    let seq = dws::uts::search(&workload);
    let shm = parallel_search(&workload, 4);
    assert_eq!(shm.stats.nodes, seq.nodes);
    let mut cfg = ExperimentConfig::new(workload, 16)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.collect_trace = false;
    let dist = run_experiment(&cfg);
    assert_eq!(dist.total_nodes, seq.nodes);
}

#[test]
fn same_seed_reproduces_bit_identical_runs() {
    let workload = presets::t3sim_xs();
    let run = || {
        let mut cfg = ExperimentConfig::new(workload.clone(), 8).with_victim(VictimPolicy::Uniform);
        cfg.jitter = 0.3;
        run_experiment(&cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.report, b.report);
    assert_eq!(a.stats.failed_steals(), b.stats.failed_steals());
    assert_eq!(
        a.trace.as_ref().map(|t| t.transitions().to_vec()),
        b.trace.as_ref().map(|t| t.transitions().to_vec()),
    );
}

#[test]
fn different_seed_changes_schedule_not_count() {
    let workload = presets::t3sim_xs();
    let run = |seed: u64| {
        let mut cfg = ExperimentConfig::new(workload.clone(), 8).with_victim(VictimPolicy::Uniform);
        cfg.seed = seed;
        run_experiment(&cfg)
    };
    let a = run(1);
    let b = run(2);
    assert_eq!(
        a.total_nodes, b.total_nodes,
        "tree identity is seed-independent"
    );
    assert_ne!(
        a.stats.total().steal_attempts,
        b.stats.total().steal_attempts,
        "different seeds should explore different schedules"
    );
}

#[test]
fn granularity_is_part_of_tree_identity_and_slows_runs() {
    let fine = presets::t3sim_xs();
    let coarse = presets::t3sim_xs().with_gen_rounds(8);
    let fine_seq = dws::uts::search(&fine);
    let coarse_seq = dws::uts::search(&coarse);
    let mut cfg_f = ExperimentConfig::new(fine, 8);
    cfg_f.expect_nodes = Some(fine_seq.nodes);
    let mut cfg_c = ExperimentConfig::new(coarse, 8);
    cfg_c.expect_nodes = Some(coarse_seq.nodes);
    let rf = run_experiment(&cfg_f);
    let rc = run_experiment(&cfg_c);
    // Coarse nodes cost 8x: per-node simulated time must reflect it.
    let per_node_f = rf.makespan.ns() as f64 / rf.total_nodes as f64;
    let per_node_c = rc.makespan.ns() as f64 / rc.total_nodes as f64;
    assert!(
        per_node_c > 4.0 * per_node_f,
        "granularity 8 should cost >> granularity 1 ({per_node_c:.0} vs {per_node_f:.0} ns/node)"
    );
}
