//! The four workloads: what each runs and why it was chosen.

use dws::core::{ExperimentConfig, FaultToleranceCfg, StealAmount, VictimPolicy};
use dws::simnet::FaultPlan;
use dws::topology::{AllocationPolicy, Job as PlacedJob, Machine, RankMapping};
use dws::uts::presets;
use std::sync::Arc;

/// A named workload and the reason it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flagship",
        why: "T3WL on 256 nodes 1/N, Tofu Half, trace on, 1 thread: the large-figure cell; \
              tree expansion in dws-uts is most of host time, per-rank alias tables",
    },
    Workload {
        name: "steal_storm",
        why: "T3SIM-L starved on 4,096 torus-filled nodes, 1 thread: 3.3M failed steals, so \
              queue, scheduler, shared-alias draws and network model do the work, not SHA-1",
    },
    Workload {
        name: "steal_storm_2t",
        why: "steal_storm on 2 threads: the same schedule through the sharded driver with \
              window barrier, exchange cells and shard rebalancing",
    },
    Workload {
        name: "observed_faulty",
        why: "T3XXL on 128 ranks 8RR with 1% message drop, spans and streamed snapshots on, \
              blame and JSON report rendered: the only one that runs recorders and fault paths",
    },
];

/// One job to hand to `run_experiment_streamed`.
pub struct Job {
    pub cfg: ExperimentConfig,
    /// Stream snapshots every simulated millisecond to an in-memory sink.
    pub streamed: bool,
    /// Size of the tree preset: what `total_nodes` must equal.
    pub expect_nodes: u64,
}

/// Which variant of a workload to build.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as named.
    Main,
    /// The same schedule by the plainer route, to hold the main runs
    /// against: `steal_storm_2t` on one thread (which is `steal_storm`),
    /// `observed_faulty` with spans and streaming off.
    Twin,
}

/// True when the workload has a [`Variant::Twin`].
pub fn has_twin(name: &str) -> bool {
    matches!(name, "steal_storm_2t" | "observed_faulty")
}

/// Build the job. `smoke` swaps every tree for T3SIM-S on 16–64 ranks,
/// keeping each workload's shape. `None` for an unknown name.
pub fn job(name: &str, seed: u64, smoke: bool, variant: Variant) -> Option<Job> {
    let twin = variant == Variant::Twin;
    let (tree, nodes, expect_nodes) = match (name, smoke) {
        ("flagship", false) => (presets::t3wl(), 256, 24_578_855),
        ("steal_storm" | "steal_storm_2t", false) => (presets::t3sim_l(), 4096, 415_823),
        ("observed_faulty", false) => (presets::t3xxl(), 16, 7_212_005),
        ("flagship", true) => (presets::t3sim_s(), 32, 22_235),
        ("steal_storm" | "steal_storm_2t", true) => (presets::t3sim_s(), 64, 22_235),
        ("observed_faulty", true) => (presets::t3sim_s(), 2, 22_235),
        _ => return None,
    };
    let mut cfg = ExperimentConfig::new(tree, nodes)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.seed = seed;
    let mut streamed = false;
    match name {
        "flagship" => {}
        "steal_storm" | "steal_storm_2t" => {
            cfg.alloc = AllocationPolicy::TorusFill;
            cfg.collect_trace = false;
            if name == "steal_storm_2t" && !twin {
                cfg.threads = 2;
            }
        }
        _ => {
            cfg.mapping = RankMapping::RoundRobin { ppn: 8 };
            cfg.fault_plan = FaultPlan::message_faults(0.01, 0.0, 0.0);
            // Under fault tolerance rank 0's token watchdog backs off in
            // doublings of `n_ranks × hop × timeout_mult`, and the run
            // ends on one of its ticks. At the default multiplier of 4
            // this job finishes its work right at a tick boundary, so
            // seeds split about 40/60 between makespans of 80 ms and
            // 137 ms; at 8 every seed ends on the same tick (133 ms).
            cfg.fault_tolerance = Some(FaultToleranceCfg {
                timeout_mult: 8,
                ..FaultToleranceCfg::default()
            });
            cfg.collect_spans = !twin;
            streamed = !twin;
        }
    }
    Some(Job {
        cfg,
        streamed,
        expect_nodes,
    })
}

/// Place the job as the runner does for these configurations, so the
/// layers behind it (`Job::place`, victim tables, network models) can
/// be timed from outside.
pub fn place(cfg: &ExperimentConfig) -> Arc<PlacedJob> {
    let machine = if cfg.alloc == AllocationPolicy::TorusFill {
        Machine::torus_for_nodes(cfg.n_nodes)
    } else {
        Machine::k_computer()
    };
    Arc::new(PlacedJob::place(
        machine,
        cfg.n_nodes,
        cfg.alloc,
        cfg.mapping,
        cfg.latency.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_a_valid_job_at_both_scales() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let job = job(w.name, 7, smoke, Variant::Main).expect("known workload");
                job.cfg.validate().expect("valid configuration");
                assert_eq!(job.cfg.seed, 7);
                assert!(
                    w.why.len() <= 200,
                    "{} why is too long for BENCHMARK.json",
                    w.name
                );
            }
        }
        assert!(job("nope", 0, false, Variant::Main).is_none());
    }

    #[test]
    fn twins_keep_the_schedule_and_drop_the_machinery() {
        let main = job("steal_storm_2t", 1, false, Variant::Main).unwrap();
        let twin = job("steal_storm_2t", 1, false, Variant::Twin).unwrap();
        assert_eq!((main.cfg.threads, twin.cfg.threads), (2, 1));
        assert_eq!(main.cfg.fingerprint(), twin.cfg.fingerprint());
        let main = job("observed_faulty", 1, false, Variant::Main).unwrap();
        let twin = job("observed_faulty", 1, false, Variant::Twin).unwrap();
        assert!(main.cfg.collect_spans && main.streamed);
        assert!(!twin.cfg.collect_spans && !twin.streamed);
        assert_eq!(main.cfg.fingerprint(), twin.cfg.fingerprint());
        // The storm on one thread is the storm.
        let storm = job("steal_storm", 1, false, Variant::Main).unwrap();
        let storm_2t_twin = job("steal_storm_2t", 1, false, Variant::Twin).unwrap();
        assert_eq!(storm.cfg.fingerprint(), storm_2t_twin.cfg.fingerprint());
        assert_eq!(storm.cfg.threads, storm_2t_twin.cfg.threads);
    }
}
