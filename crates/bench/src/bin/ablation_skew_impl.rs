//! Ablation: the three skewed-draw samplers — shared offset-alias
//! tables (torus-symmetric jobs), per-rank alias tables, and rejection
//! sampling — must realize the same distribution. Rejection is the
//! oracle: exact by construction, O(1) memory, no table to get wrong.
//! For each sampler this reports the draw cost and the worst relative
//! deviation of its empirical histogram from the analytic PDF.

use dws_bench::{emit, f, FigArgs, Samples};
use dws_core::victim::skew_weights_by_sq;
use dws_core::{VictimPolicy, VictimSelector};
use dws_simnet::DetRng;
use dws_topology::{AllocationPolicy, Job, LatencyParams, Machine, RankMapping};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = FigArgs::parse_unstreamed();
    let ranks: u32 = if args.full { 1024 } else { 256 };
    let draws: u32 = if args.full { 2_000_000 } else { 500_000 };
    let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
    let me: u32 = 3;

    // Non-symmetric compact job: build() yields the per-rank alias
    // table. Symmetric TorusFill job: build() yields the shared tables.
    let compact = Arc::new(Job::compact(ranks, RankMapping::OneToOne));
    let symmetric = Arc::new(Job::place(
        Machine::torus_for_nodes(ranks),
        ranks,
        AllocationPolicy::TorusFill,
        RankMapping::OneToOne,
        LatencyParams::default(),
    ));

    let cases: Vec<(&str, Arc<Job>, VictimSelector)> = vec![
        ("shared_offset_alias", Arc::clone(&symmetric), {
            let ctx = policy.prepare(&symmetric);
            assert!(ctx.uses_shared_table(), "TorusFill must be symmetric");
            policy.build(&symmetric, me, &ctx)
        }),
        (
            "per_rank_alias",
            Arc::clone(&compact),
            policy.build(&compact, me, &policy.prepare(&compact)),
        ),
        (
            "rejection_oracle",
            Arc::clone(&compact),
            VictimSelector::rejection(&compact, me, skew_weights_by_sq(&compact, 1.0)),
        ),
    ];

    let mut rows = Vec::new();
    for (name, job, mut sel) in cases {
        let mut rng = DetRng::new(11 ^ args.seed);
        let mut counts = vec![0u64; ranks as usize];
        let wall = Instant::now();
        for _ in 0..draws {
            counts[sel.next_victim(&mut rng) as usize] += 1;
        }
        let ns_per_draw = wall.elapsed().as_nanos() as f64 / draws as f64;
        // Worst relative deviation from the analytic PDF, over targets
        // with enough expected mass for the comparison to be stable.
        let mut worst = 0.0f64;
        assert_eq!(counts[me as usize], 0, "{name} drew self");
        for j in 0..ranks {
            if j == me {
                continue;
            }
            let p = policy.probability(&job, me, j).expect("skewed pdf");
            let expect = p * draws as f64;
            if expect >= 500.0 {
                worst = worst.max((counts[j as usize] as f64 - expect).abs() / expect);
            }
        }
        println!(
            "{name}: {ns_per_draw:.1} ns/draw, worst deviation {:.2}%",
            worst * 100.0
        );
        rows.push(vec![
            name.to_string(),
            f(ns_per_draw, 1),
            f(worst * 100.0, 2),
            draws.to_string(),
        ]);
    }
    emit(
        &args,
        "ablation_skew_impl",
        "Skewed-draw sampler equivalence (shared / per-rank alias / rejection)",
        &["sampler", "ns_per_draw", "worst_pdf_deviation_pct", "draws"],
        &rows,
        None,
        Samples::default(),
    );
}
