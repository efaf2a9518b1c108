//! The paper's measurement contribution, §III: from the run's activity
//! trace, compute the occupancy curve and the starting/ending latency
//! metrics, then render the Figure-4-style chart in the terminal.
//!
//! ```text
//! cargo run --release --example latency_metrics
//! ```

use dws::core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
use dws::metrics::ascii_chart;
use dws::uts::presets;

fn main() {
    // The paper had to correct its traces for clock skew; the engine
    // records this one on the global clock.
    let cfg = ExperimentConfig::new(presets::t3xxl(), 128)
        .with_victim(VictimPolicy::RoundRobin)
        .with_steal(StealAmount::OneChunk);
    let r = run_experiment(&cfg);
    let occ = r.occupancy().expect("trace collection is on by default");

    println!("run: {} on {} ranks", r.label, r.n_ranks);
    println!("makespan {}   speedup {:.1}", r.makespan, r.perf.speedup());
    println!(
        "Wmax = {} ranks ({:.0}%)   average occupancy {:.1}%",
        occ.w_max(),
        100.0 * occ.w_max() as f64 / occ.n_ranks() as f64,
        100.0 * occ.average_occupancy()
    );
    for pct in [10u32, 25, 50, 75, 90] {
        let x = pct as f64 / 100.0;
        match (occ.starting_latency(x), occ.ending_latency(x)) {
            (Some(sl), Some(el)) => println!(
                "occupancy {pct:3}%:  SL = {:6.2}% of runtime   EL = {:6.2}%",
                sl * 100.0,
                el * 100.0
            ),
            _ => println!("occupancy {pct:3}%:  never reached"),
        }
    }

    let mut sl_pts = Vec::new();
    let mut el_pts = Vec::new();
    for (pct, sl, el) in occ.latency_series(95) {
        if let (Some(sl), Some(el)) = (sl, el) {
            sl_pts.push((pct as f64, sl * 100.0));
            el_pts.push((pct as f64, el * 100.0));
        }
    }
    println!(
        "\n{}",
        ascii_chart(
            "starting/ending latency (% of runtime) vs occupancy (%)",
            &[("SL", sl_pts), ("EL", el_pts)],
            64,
            14
        )
    );
}
