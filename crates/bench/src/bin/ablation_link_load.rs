//! Ablation: aggregate link load under each victim-selection policy.
//!
//! The system-level argument for skewed selection: steal traffic costs
//! the network `traffic × hops` link-units, and long routes share links
//! with everyone else's long routes. This analysis charges each
//! potential steal request along its dimension-ordered route, weighted
//! by the policy's victim distribution, and reports total link-units
//! and the hotspot factor (max/mean link load). No simulation — pure
//! topology analysis, so it runs at full 1,024-rank scale instantly.

use dws_bench::{emit, f, FigArgs, Samples};
use dws_core::skew_weight;
use dws_topology::{Job, LinkLoad, RankMapping};
use std::sync::Arc;

fn main() {
    let args = FigArgs::parse_unstreamed();
    let n = if args.full { 4096 } else { 1024 };
    let job = Arc::new(Job::compact(n, RankMapping::OneToOne));
    let machine = job.machine().clone();
    // Weight-per-pair generators, per policy.
    type WeightFn = Box<dyn Fn(u32, u32) -> f64>;
    let policies: Vec<(&str, WeightFn)> = vec![
        ("Uniform", { Box::new(move |_i, _j| 1.0) }),
        ("Tofu a=1", {
            let job = Arc::clone(&job);
            Box::new(move |i, j| skew_weight(&job, i, j, 1.0))
        }),
        ("Tofu a=4", {
            let job = Arc::clone(&job);
            Box::new(move |i, j| skew_weight(&job, i, j, 4.0))
        }),
    ];
    let mut rows = Vec::new();
    for (name, weight) in policies {
        let mut load = LinkLoad::new();
        let mut expected_hops = 0.0f64;
        // Sample thieves to keep all-pairs cost bounded at --full scale.
        let stride = if n > 2048 { 8 } else { 1 };
        let mut thieves = 0u32;
        for i in (0..n).step_by(stride) {
            thieves += 1;
            let total: f64 = (0..n).filter(|&j| j != i).map(|j| weight(i, j)).sum();
            for j in 0..n {
                if j == i {
                    continue;
                }
                let p = weight(i, j) / total;
                // Integer traffic units: probability in parts per million.
                let units = (p * 1_000_000.0) as u64;
                if units == 0 {
                    continue;
                }
                let hops = load.add_route(&machine, job.coord_of(i), job.coord_of(j), units);
                expected_hops += p * hops as f64;
            }
        }
        rows.push(vec![
            name.to_string(),
            f(expected_hops / thieves as f64, 3),
            (load.total_link_units() / thieves as u64).to_string(),
            f(load.hotspot_factor(), 2),
            load.links_used().to_string(),
        ]);
    }
    emit(
        &args,
        "ablation_link_load",
        "Expected steal-traffic link load per policy (per thief)",
        &[
            "policy",
            "E[hops]",
            "link_units",
            "hotspot_factor",
            "links_used",
        ],
        &rows,
        None,
        Samples::default(),
    );
}
