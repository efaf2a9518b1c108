//! Figure 8: the probability distribution function p(0, x) of the
//! distance-skewed victim selection for a 1,024-node deployment
//! (1 rank per node) — most mass stays spread across the machine, with
//! sharp spikes on physically nearby ranks.

use dws_bench::{chart, emit, FigArgs, Samples};
use dws_core::VictimPolicy;
use dws_topology::{Job, RankMapping};

fn main() {
    let args = FigArgs::parse_unstreamed();
    let n = 1024u32; // the paper's exact deployment for this figure
    let job = Job::compact(n, RankMapping::OneToOne);
    let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
    let uniform = 1.0 / (n - 1) as f64;
    let mut rows = Vec::new();
    let mut pts = Vec::new();
    for j in 0..n {
        let p = policy
            .probability(&job, 0, j)
            .expect("skewed policy defines probabilities");
        rows.push(vec![j.to_string(), format!("{p:.6e}")]);
        pts.push((j as f64, p));
    }
    println!("uniform baseline would be {uniform:.3e} per rank");
    let total: f64 = pts.iter().map(|(_, p)| p).sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "PDF must normalize, got {total}"
    );
    emit(
        &args,
        "fig08",
        "PDF of p(0, x), distance-skewed selection, 1024 nodes 1/N",
        &["rank", "probability"],
        &rows,
        Some(chart("p(0,x) vs rank", &[("p", pts)])),
        Samples::default(),
    );
}
