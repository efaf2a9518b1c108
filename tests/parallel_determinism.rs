//! The parallel engine's headline invariant, checked end-to-end: a full
//! work-stealing experiment produces a **bit-identical** outcome for
//! every simulation thread count — same makespan, same per-rank steal
//! counters, same spans, same machine-readable report — across seeds,
//! fault plans, and rank mappings. The faulty, crashing slice of the
//! matrix is `faulty_runs_are_identical_across_thread_counts` in
//! `engine_identity.rs`, beside this file.

use dws_core::{run_experiment, ExperimentConfig, ExperimentResult, VictimPolicy};
use dws_simnet::{CrashDomain, FaultPlan, Partition};
use dws_topology::RankMapping;
use dws_uts::{TreeSpec, Workload};

fn workload(b0: u32) -> Workload {
    Workload {
        name: "par-det",
        spec: TreeSpec::Binomial { b0, m: 2, q: 0.47 },
        seed: 19,
        gen_rounds: 1,
        base_node_ns: 1_000,
    }
}

fn run_at(cfg: &ExperimentConfig, threads: u32) -> ExperimentResult {
    let mut cfg = cfg.clone();
    cfg.threads = threads;
    run_experiment(&cfg)
}

/// Compare two runs field by field, down to the serialized report.
fn assert_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan differs");
    assert_eq!(a.total_nodes, b.total_nodes, "{what}: node count differs");
    assert_eq!(a.completed, b.completed, "{what}: completion differs");
    assert_eq!(
        a.report.events, b.report.events,
        "{what}: event count differs"
    );
    assert_eq!(
        a.report.messages, b.report.messages,
        "{what}: message count differs"
    );
    assert_eq!(
        a.stats.per_rank, b.stats.per_rank,
        "{what}: per-rank steal stats differ"
    );
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "{what}: config fingerprint differs (threads must not be in it)"
    );
    assert_eq!(
        a.json_report().to_string(),
        b.json_report().to_string(),
        "{what}: serialized run report differs"
    );
}

/// Both network models the runner builds: NIC contention (the default
/// occupancy) and, at zero occupancy, the pure latency function. Every
/// run at two or more threads must really be sharded.
#[test]
fn report_is_identical_across_thread_counts() {
    for seed in [7u64, 0xBEEF] {
        for mapping in [RankMapping::OneToOne, RankMapping::RoundRobin { ppn: 4 }] {
            for nic_occupancy_ns in [2_000, 0] {
                let mut cfg = ExperimentConfig::new(workload(900), 8).with_mapping(mapping);
                cfg.seed = seed;
                cfg.victim = VictimPolicy::Uniform;
                cfg.jitter = 0.2;
                cfg.collect_spans = true;
                cfg.nic_occupancy_ns = nic_occupancy_ns;
                let baseline = run_at(&cfg, 1);
                for threads in [2, 3, 8] {
                    let parallel = run_at(&cfg, threads);
                    let what = format!(
                        "seed {seed} {} nic {nic_occupancy_ns} threads {threads}",
                        cfg.label()
                    );
                    assert!(parallel.cut.shards > 1, "{what}: ran on one shard");
                    assert_identical(&baseline, &parallel, &what);
                }
            }
        }
    }
}

/// The adaptive overlay joins the bit-identity matrix: its health
/// updates and overlay redraws must be the same function of the config
/// for every thread count, across seeds and correlated fault plans
/// (whole-node crash domains plus a network partition).
#[test]
fn adaptive_runs_are_identical_across_thread_counts() {
    for seed in [11u64, 0xFEED] {
        for plan in [FaultPlan::default(), {
            let mut p = FaultPlan::message_faults(0.03, 0.01, 0.03);
            // Node 3 of the 2-rank-per-node job dies whole: ranks
            // 6 and 7 share its crash domain.
            p.crash_domains.push(CrashDomain {
                ranks: vec![6, 7],
                at_ns: 300_000,
            });
            p.partitions.push(Partition {
                boundary: 4,
                from_ns: 100_000,
                until_ns: 900_000,
            });
            p
        }] {
            let mut cfg = ExperimentConfig::new(workload(1200), 8)
                .with_mapping(RankMapping::Grouped { ppn: 2 })
                .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 });
            cfg.adaptive = true;
            cfg.seed = seed;
            cfg.fault_plan = plan.clone();
            cfg.collect_spans = true;
            let baseline = run_at(&cfg, 1);
            if plan.is_active() {
                let fr = baseline.fault.as_ref().expect("fault plan was active");
                assert_eq!(fr.crashed_ranks, vec![6, 7], "domain crash must fire");
                assert!(fr.stats.partition_drops > 0, "partition must fire");
                assert!(
                    baseline.stats.total().quarantines > 0,
                    "crash domain must trigger quarantines"
                );
            }
            for threads in [2, 3, 8] {
                let parallel = run_at(&cfg, threads);
                assert_identical(
                    &baseline,
                    &parallel,
                    &format!("adaptive seed {seed} threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn span_traces_reconcile_across_thread_counts() {
    let mut cfg = ExperimentConfig::new(workload(800), 8);
    cfg.victim = VictimPolicy::DistanceSkewed { alpha: 1.0 };
    cfg.collect_spans = true;
    let a = run_at(&cfg, 1);
    let b = run_at(&cfg, 4);
    let (sa, sb) = (a.spans.as_ref().unwrap(), b.spans.as_ref().unwrap());
    assert_eq!(sa.records(), sb.records(), "span streams differ");
    sa.reconcile(&a.stats)
        .expect("serial spans reconcile with steal counters");
    sb.reconcile(&b.stats)
        .expect("parallel spans reconcile with steal counters");
    let (na, nb) = (a.net.as_ref().unwrap(), b.net.as_ref().unwrap());
    assert_eq!(na.messages(), nb.messages(), "net trace message count");
    let tally = |n: &dws_simnet::NetTrace| {
        let mut v: Vec<_> = n.pair_tallies().map(|(k, t)| (*k, *t)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    };
    assert_eq!(tally(na), tally(nb), "traffic matrices differ");
}

/// Property: the lookahead window *plan* — the sequence of
/// committed window ends, folded into an order-sensitive digest by the
/// engine — is a pure function of the configuration, identical for
/// every thread count. Every worker derives the plan on its own from
/// the values all shards publish at the barrier, so the workers agree
/// on each window without a leader, and the shards' cut and window
/// width depend on the placement alone, never on how many threads run
/// them. The engine's always-on lookahead assertion (`route` panics if
/// a shard schedules below the window floor) acts as the safety oracle
/// while the plan is exercised; this test adds the cross-thread-count
/// equality on top.
#[test]
fn window_plan_is_identical_across_thread_counts() {
    for seed in [3u64, 0xACE] {
        for plan in [
            FaultPlan::default(),
            FaultPlan::message_faults(0.04, 0.01, 0.04),
        ] {
            let mut cfg = ExperimentConfig::new(workload(1000), 8);
            cfg.seed = seed;
            cfg.victim = VictimPolicy::Uniform;
            cfg.fault_plan = plan;
            let baseline = run_at(&cfg, 1);
            let (digest, windows) = baseline.window_plan;
            assert!(
                windows > 0,
                "windowed driver must have committed at least one window"
            );
            for threads in [2, 3, 8] {
                let parallel = run_at(&cfg, threads);
                assert_eq!(
                    parallel.window_plan,
                    (digest, windows),
                    "window plan differs at {threads} threads (seed {seed})"
                );
                assert_identical(
                    &baseline,
                    &parallel,
                    &format!("window-plan seed {seed} threads {threads}"),
                );
            }
        }
    }
}
