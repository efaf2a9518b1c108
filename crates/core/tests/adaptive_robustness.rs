//! End-to-end behavior of the failure-aware adaptive victim overlay.
//!
//! Crashes are visible to every scheduler through the engine's crash
//! oracle (the static policies already re-draw past corpses), but a
//! network partition is invisible: requests into it just vanish. The
//! static policy keeps hammering unreachable victims for the whole
//! partition window, while adaptive thieves quarantine them after two
//! timeouts and only send bounded probe steals until the network heals.

use dws_core::{run_experiment, ExperimentConfig, ExperimentResult, VictimPolicy};
use dws_metrics::SpanKind;
use dws_simnet::{CrashDomain, FaultPlan, Partition};
use dws_topology::RankMapping;
use dws_uts::{TreeSpec, Workload};

const BOUNDARY: u32 = 4;
const FROM_NS: u64 = 300_000;
const UNTIL_NS: u64 = 3_000_000;

/// One run under the paper's 1/d-skew, with or without the overlay.
fn run(adaptive: bool) -> ExperimentResult {
    let workload = Workload {
        name: "adaptive-e2e",
        spec: TreeSpec::Binomial {
            b0: 2_000,
            m: 2,
            q: 0.47,
        },
        seed: 23,
        gen_rounds: 1,
        base_node_ns: 1_000,
    };
    // 8 nodes, one rank each; ranks 0..4 are cut off from ranks 4..8
    // for most of the run's midgame.
    let mut cfg =
        ExperimentConfig::new(workload, 8).with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 });
    cfg.adaptive = adaptive;
    cfg.fault_plan = FaultPlan {
        partitions: vec![Partition {
            boundary: BOUNDARY,
            from_ns: FROM_NS,
            until_ns: UNTIL_NS,
        }],
        ..FaultPlan::default()
    };
    cfg.collect_spans = true;
    run_experiment(&cfg)
}

/// Steal requests that crossed the partition boundary while it was up
/// (every one of them is doomed to time out).
fn doomed_requests(r: &ExperimentResult) -> u64 {
    r.spans
        .as_ref()
        .expect("spans were collected")
        .records()
        .iter()
        .filter(|s| {
            (FROM_NS..UNTIL_NS).contains(&s.at_ns)
                && matches!(s.kind, SpanKind::StealRequestSent { victim }
                    if ((s.rank as u32) < BOUNDARY) != ((victim as u32) < BOUNDARY))
        })
        .count() as u64
}

#[test]
fn adaptive_quarantines_partitioned_victims() {
    let static_run = run(false);
    let adaptive_run = run(true);

    assert!(static_run.completed && adaptive_run.completed);
    assert_eq!(static_run.total_nodes, adaptive_run.total_nodes);
    assert!(
        static_run
            .fault
            .as_ref()
            .expect("faults on")
            .stats
            .partition_drops
            > 0,
        "partition never fired"
    );

    let static_doomed = doomed_requests(&static_run);
    let adaptive_doomed = doomed_requests(&adaptive_run);
    assert!(
        static_doomed >= 50,
        "static policy must keep stealing across the partition for this \
         test to discriminate (saw {static_doomed} doomed requests)"
    );
    // The fault-tolerant steal protocol's own per-victim timeout
    // backoff already throttles the static policy, so the overlay's
    // margin on top of it is a solid fraction, not an order of
    // magnitude: require at least a 20% cut.
    assert!(
        adaptive_doomed * 5 <= static_doomed * 4,
        "adaptive sent {adaptive_doomed} requests into the partition vs \
         {static_doomed} static — quarantine is not engaging"
    );

    // The mechanism, visible in the counters: quarantines fired, probe
    // steals re-checked the cut-off ranks, and the static run saw none.
    let t = adaptive_run.stats.total();
    assert!(t.quarantines > 0, "no quarantines recorded");
    assert!(t.probe_steals > 0, "no probe steals recorded");
    let s = static_run.stats.total();
    assert_eq!(s.quarantines, 0);
    assert_eq!(s.probe_steals, 0);
    assert_eq!(s.overlay_rejections, 0);

    // The final health ledger agrees: some cross-boundary victim was
    // quarantined and probed, and the victims a thief quarantined sit
    // on the far side of the cut.
    let vh = adaptive_run
        .victim_health
        .as_ref()
        .expect("adaptive runs report victim health");
    let mut cross_quarantines = 0u64;
    let mut cross_probes = 0u64;
    for (rank, tracked) in vh {
        for (victim, h) in tracked {
            if h.quarantines > 0 {
                assert!(
                    (*rank < BOUNDARY) != (*victim < BOUNDARY),
                    "rank {rank} quarantined same-side victim {victim}"
                );
                cross_quarantines += h.quarantines;
                cross_probes += h.probes;
            }
        }
    }
    assert!(
        cross_quarantines > 0,
        "health ledger records no quarantines"
    );
    assert!(cross_probes > 0, "health ledger records no probes");
    assert!(t.probe_steals >= cross_probes);
}

/// The chaos-stress acceptance run CI drives: 128 ranks (16 nodes, 8G)
/// under the adaptive overlay with message faults, a whole-node crash
/// domain, *and* a mid-run partition, all at once. Beyond termination
/// (run_experiment panics internally on a stalled protocol or
/// inconsistent survivor counters), this pins the two global ledgers:
/// the span stream reconciles exactly with the steal counters, and
/// processed + lost-subtree nodes add up to the sequential tree size.
#[test]
fn chaos_stress_128_ranks_reconciles() {
    let workload = Workload {
        name: "adaptive-chaos",
        spec: TreeSpec::Binomial {
            b0: 15_000,
            m: 2,
            q: 0.47,
        },
        seed: 41,
        gen_rounds: 1,
        base_node_ns: 1_000,
    };
    let expect = dws_uts::search(&workload).nodes;
    let mapping = RankMapping::Grouped { ppn: 8 };
    let n_nodes = 16;
    let domain = mapping.ranks_on_slot(5, n_nodes);
    let mut cfg = ExperimentConfig::new(workload, n_nodes)
        .with_mapping(mapping)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 });
    cfg.adaptive = true;
    cfg.expect_nodes = Some(expect);
    cfg.collect_spans = true;
    let mut plan = FaultPlan::message_faults(0.02, 0.01, 0.02);
    plan.crash_domains.push(CrashDomain {
        ranks: domain.clone(),
        at_ns: 400_000,
    });
    plan.partitions.push(Partition {
        boundary: 64,
        from_ns: 200_000,
        until_ns: 900_000,
    });
    cfg.fault_plan = plan;
    let r = run_experiment(&cfg);

    assert!(r.completed, "chaos run must terminate");
    let fr = r.fault.as_ref().expect("fault plan was active");
    assert_eq!(fr.crashed_ranks, domain, "whole node 5 dies together");
    assert!(fr.stats.partition_drops > 0, "partition never fired");
    assert!(r.stats.total().quarantines > 0, "overlay never engaged");
    r.spans
        .as_ref()
        .expect("spans were collected")
        .reconcile(&r.stats)
        .expect("span stream reconciles with steal counters under chaos");
    assert_eq!(
        r.total_nodes + fr.lost_subtree_nodes,
        expect,
        "lost-subtree accounting must balance the tree size"
    );
}

/// The overlay is one field over any policy, but the fingerprint still
/// names it per base: `label()` and `config_json()` of the five
/// adaptive bases on one fixed config, pinned to the strings recorded
/// when the overlay was still a `VictimPolicy` variant of its own.
#[test]
fn adaptive_fingerprints_are_pinned() {
    const JSON: &str = concat!(
        r#"{"fingerprint":"{fp}","label":"{victim} 8RR","seed":219512481,"#,
        r#""workload":{"name":"T3SIM-XS","spec":"Binomial { b0: 200, m: 2, q: 0.475 }","#,
        r#""tree_seed":316,"gen_rounds":1,"base_node_ns":1031},"n_nodes":16,"n_ranks":128,"#,
        r#""mapping":"8RR","alloc":"CompactRectangle","latency":"LatencyParams { "#,
        r#"same_node_ns: 600, same_blade_ns: 1000, same_cube_ns: 1300, same_rack_ns: 1700, "#,
        r#"inter_rack_ns: 3000, per_hop_ns: 5000, bytes_per_ns: 5.0, software_overhead_ns: 400 }","#,
        r#""victim":"{victim}","steal":"","chunk_size":20,"poll_interval":4,"#,
        r#""retry_delay_ns":2000,"probe_backoff_ns":10000,"msg_handle_ns":600,"#,
        r#""package_chunk_ns":200,"lifeline_threshold":null,"nic_occupancy_ns":2000,"#,
        r#""nic_bytes_per_ns":5,"link_level_network":null,"jitter":0,"clock_skew_max_ns":0,"#,
        r#""max_sim_time_ns":null,"max_events":null,"fault_plan":{"active":false,"#,
        r#""drop_prob":0,"dup_prob":0,"spike_prob":0,"spike_min_ns":50000,"spike_alpha":1.5,"#,
        r#""spike_cap_ns":5000000,"slowdowns":[],"brownouts":[],"crashes":[],"partitions":[],"#,
        r#""crash_domains":[]},"fault_tolerance":null}"#,
    );
    for (victim, name, fp) in [
        (VictimPolicy::RoundRobin, "AdaptRef", "d0bd9086467e7169"),
        (VictimPolicy::Uniform, "AdaptRand", "60bea3698cdf2aa1"),
        (
            VictimPolicy::DistanceSkewed { alpha: 1.0 },
            "AdaptTofu",
            "fe7ece3ca6c589c9",
        ),
        (
            VictimPolicy::LatencySkewed { alpha: 1.0 },
            "AdaptLat",
            "96119d89a8d92be9",
        ),
        (
            VictimPolicy::Hierarchical { local_tries: 4 },
            "AdaptHier",
            "e905d6c9d99ee25d",
        ),
    ] {
        let mut cfg = ExperimentConfig::new(dws_uts::presets::t3sim_xs(), 16)
            .with_mapping(RankMapping::RoundRobin { ppn: 8 })
            .with_victim(victim);
        cfg.adaptive = true;
        assert_eq!(cfg.label(), format!("{name} 8RR"));
        assert_eq!(
            cfg.config_json().to_string(),
            JSON.replace("{victim}", name).replace("{fp}", fp),
            "{name}"
        );
    }
}
