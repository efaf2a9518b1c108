//! Ablation: failure-aware adaptive victim selection vs the paper's
//! best static policy under correlated faults.
//!
//! The paper's 1/d-skew ("Tofu") assumes every victim is worth asking;
//! this sweep breaks that assumption three ways — a whole-node crash
//! domain, a network partition, and a whole-node NIC brownout — across
//! the three rank mappings (1/N, 8RR, 8G), and compares static Tofu
//! against the adaptive overlay (`AdaptTofu`: same 1/d-skew base, plus
//! online health tracking and quarantine).
//!
//! Crashes are visible to every policy through the engine's crash
//! oracle, so the crash-domain cells mostly measure the cost of losing
//! a node, not victim selection. Partitions and brownouts are
//! *invisible*: the static policy keeps paying timeout after timeout on
//! unreachable victims for the whole window, while adaptive thieves
//! quarantine them after two timeouts and retry with bounded probes.
//! Those cells are where the overlay earns its keep; the faults-off
//! cells bound its overhead.
//!
//! Fault timing is derived from the *static clean* makespan `T` of each
//! mapping (crash at T/4, windows [T/4, 3T/4)), identical for both
//! policies, so every cell differs from its neighbour in exactly one
//! axis. Window faults close before any run ends: the token-ring
//! termination wave cannot cross a partition, so an unhealed cut would
//! stall completion forever.
//!
//! Two clocks per cell: `work_done_ms` is the instant the last tree
//! node was processed — the number victim selection actually moves —
//! while `makespan_ms` adds termination detection. After a window
//! fault eats the token, rank 0 regenerates it on an exponential
//! backoff, so the detection tail is *quantized*: a run whose work
//! drags just past a regeneration threshold pays the whole next
//! interval. Compare policies on `work_done_ms`; read `makespan_ms`
//! as that plus token-ring latency.

use dws_bench::{emit, f, run_logged, FigArgs, MAPPINGS};
use dws_core::{ExperimentResult, VictimPolicy};
use dws_simnet::{Brownout, CrashDomain, FaultPlan, Partition};

const TOFU: VictimPolicy = VictimPolicy::DistanceSkewed { alpha: 1.0 };

/// Time the last tree node was processed, before the termination wave.
fn work_done_ns(r: &ExperimentResult) -> u64 {
    r.occupancy()
        .and_then(|occ| occ.last_reach_ns(0.0))
        .unwrap_or_else(|| r.makespan.ns())
}

fn row(
    mapping: &str,
    fault: &str,
    policy: &str,
    r: &ExperimentResult,
    clean_work_ns: u64,
) -> Vec<String> {
    let t = r.stats.total();
    let lost = r.fault.as_ref().map_or(0, |fr| fr.lost_subtree_nodes);
    let work_ns = work_done_ns(r);
    vec![
        mapping.to_string(),
        fault.to_string(),
        policy.to_string(),
        f(work_ns as f64 / 1e6, 2),
        f(work_ns as f64 / clean_work_ns as f64, 3),
        f(r.makespan.ns() as f64 / 1e6, 2),
        t.steal_timeouts.to_string(),
        t.quarantines.to_string(),
        t.probe_steals.to_string(),
        lost.to_string(),
    ]
}

fn main() {
    let args = FigArgs::parse();
    let tree = args.small_tree();
    let ranks = if args.full { 1024 } else { 128 };

    let mut rows = Vec::new();
    for &mapping in MAPPINGS {
        let n_nodes = ranks / mapping.ppn();
        let label = mapping.label();

        // Clean baselines: the static one also sets the fault-timing
        // scale T, shared by both policies so cells stay comparable.
        let mut runs = Vec::new();
        for (pname, adaptive) in [("Tofu", false), ("AdaptTofu", true)] {
            let mut cfg = args
                .config(tree.clone(), n_nodes)
                .with_mapping(mapping)
                .with_victim(TOFU);
            cfg.adaptive = adaptive;
            let r = run_logged(&cfg);
            runs.push((pname, adaptive, r));
        }
        let t_ns = runs[0].2.makespan.ns();
        let (from_ns, until_ns) = (t_ns / 4, t_ns * 3 / 4);

        // One physical node's worth of ranks, away from rank 0 (which
        // owns the token ring and may not die).
        let slot = (n_nodes / 3).max(1) as usize;
        let domain = mapping.ranks_on_slot(slot, n_nodes);

        let plans: Vec<(&str, FaultPlan)> = vec![
            (
                "node-crash",
                FaultPlan {
                    crash_domains: vec![CrashDomain {
                        ranks: domain.clone(),
                        at_ns: from_ns,
                    }],
                    ..FaultPlan::default()
                },
            ),
            (
                "partition",
                FaultPlan {
                    partitions: vec![Partition {
                        boundary: ranks / 2,
                        from_ns,
                        until_ns,
                    }],
                    ..FaultPlan::default()
                },
            ),
            (
                "brownout",
                FaultPlan {
                    brownouts: domain
                        .iter()
                        .map(|&rank| Brownout {
                            rank,
                            from_ns,
                            until_ns,
                        })
                        .collect(),
                    ..FaultPlan::default()
                },
            ),
        ];

        for (pname, _, clean) in &runs {
            rows.push(row(&label, "none", pname, clean, work_done_ns(clean)));
        }
        for (fname, plan) in &plans {
            for (pname, adaptive, clean) in &runs {
                let mut cfg = args
                    .config(tree.clone(), n_nodes)
                    .with_mapping(mapping)
                    .with_victim(TOFU);
                cfg.adaptive = *adaptive;
                cfg.fault_plan = plan.clone();
                let r = run_logged(&cfg);
                rows.push(row(&label, fname, pname, &r, work_done_ns(clean)));
            }
        }
    }

    emit(
        &args,
        "ablation_adaptive",
        "Adaptive vs static 1/d-skew under correlated faults",
        &[
            "mapping",
            "fault",
            "policy",
            "work_done_ms",
            "slowdown_vs_clean",
            "makespan_ms",
            "timeouts",
            "quarantines",
            "probe_steals",
            "lost_subtree",
        ],
        &rows,
        None,
    );
}
