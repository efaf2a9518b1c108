//! Microbenchmarks of the `dws-shmem` executor: the Chase–Lev deque's
//! owner and thief paths, and a four-thread search of a small tree.
//!
//! These are the only primitives no other benchmark times. Everything
//! the simulator runs — SHA-1, child expansion, sequential search, the
//! chunked stack, victim draws, the event queue, whole simulated runs —
//! has its one timer in the repo benchmark under `benchmarks/`.
//!
//! The harness is a plain `Instant`-based timer (the workspace is
//! dependency-free): each benchmark warms up, then reports the best of
//! several timed batches — the minimum is the stablest location
//! estimator for short, allocation-light loops.

use dws_metrics::perflab::{self, BenchMetric, BenchRecord, Polarity};
use dws_uts::presets;
use std::hint::black_box;
use std::time::Instant;

/// Counting allocator so allocation-heavy regressions show up in the
/// `allocs_total` metric of the bench record.
#[global_allocator]
static ALLOC: dws_simnet::CountingAlloc = dws_simnet::CountingAlloc;

/// Timed batches per benchmark; doubles as the record's trial count.
const BATCHES: usize = 7;

/// The benchmarks a run times: the command-line filters, and the
/// metrics of the benchmarks they selected.
struct Bench {
    /// Substring filters over benchmark names; empty runs everything.
    only: Vec<String>,
    metrics: Vec<BenchMetric>,
}

impl Bench {
    /// Time `f` (which runs `iters` inner iterations per call) if the
    /// filters select `name`: print the best per-iteration time across
    /// the batches (the minimum is the stablest location estimator for
    /// short loops), and keep all batch samples so the bench record can
    /// carry a mean and 95% CI.
    fn time<F: FnMut()>(&mut self, name: &str, iters: u64, mut f: F) {
        if !self.only.is_empty() && !self.only.iter().any(|o| name.contains(o.as_str())) {
            return;
        }
        // Warm-up batch: populate caches and branch predictors.
        f();
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = Instant::now();
            f();
            samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let unit = if best >= 1e6 {
            format!("{:.3} ms", best / 1e6)
        } else if best >= 1e3 {
            format!("{:.3} µs", best / 1e3)
        } else {
            format!("{best:.1} ns")
        };
        println!("{name:44} {unit:>12} /iter");
        self.metrics.push(BenchMetric::from_samples(
            name,
            "ns/iter",
            Polarity::LowerIsBetter,
            &samples,
        ));
    }
}

/// Fold the timed benchmarks into a [`BenchRecord`]: one metric per
/// benchmark (mean ns/iter with a 95% CI across batches), plus the
/// process-wide allocation count and peak RSS. The fingerprint hashes
/// the benchmark names that ran, so filtered runs do not diff against
/// full ones — but deliberately not the trial seed.
fn build_record(started: Instant, trial_seed: u64, mut metrics: Vec<BenchMetric>) -> BenchRecord {
    let names: String = metrics.iter().map(|m| m.name.as_str()).collect();
    metrics.push(BenchMetric::point(
        "wall_s_total",
        "s",
        Polarity::LowerIsBetter,
        started.elapsed().as_secs_f64(),
    ));
    metrics.push(BenchMetric::point(
        "allocs_total",
        "count",
        Polarity::LowerIsBetter,
        dws_simnet::allocation_count() as f64,
    ));
    if let Some(rss) = perflab::peak_rss_bytes() {
        metrics.push(BenchMetric::point(
            "peak_rss_bytes",
            "B",
            Polarity::LowerIsBetter,
            rss as f64,
        ));
    }
    BenchRecord {
        schema: perflab::BENCH_SCHEMA_VERSION,
        bench: "micro".to_string(),
        git_rev: perflab::git_rev(),
        fingerprint: perflab::fingerprint(&names),
        trial_seed,
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        trials: BATCHES as u64,
        threads: 1,
        metrics,
    }
}

fn write_record(path: &str, record: &BenchRecord) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, format!("{}\n", record.to_json()))
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Vec<String> = Vec::new();
    let mut json_path: Option<String> = Some("results/BENCH_micro.json".to_string());
    let mut trajectory: Option<String> = None;
    // Stamped on the record for trajectory bookkeeping; no benchmark
    // here draws from a seeded stream.
    let mut trial_seed = 0;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = it.next().or(json_path),
            "--no-json" => json_path = None,
            "--trajectory" => trajectory = it.next(),
            "--trial-seed" => {
                trial_seed = it
                    .next()
                    .expect("--trial-seed needs a value")
                    .parse()
                    .expect("--trial-seed must be an integer");
            }
            _ => only.push(a),
        }
    }
    let mut b = Bench {
        only,
        metrics: Vec::new(),
    };
    b.time("chase_lev/owner_push_pop_64", 1_000, || {
        let (w, _s) = dws_shmem::new_deque::<u64>(1024);
        for _ in 0..1_000 {
            for i in 0..64u64 {
                w.push(black_box(i));
            }
            for _ in 0..64 {
                black_box(w.pop());
            }
        }
    });
    b.time("chase_lev/uncontended_steal", 10_000, || {
        let (w, s) = dws_shmem::new_deque::<u64>(1024);
        for i in 0..20_000u64 {
            w.push(i);
        }
        for _ in 0..10_000 {
            black_box(s.steal());
        }
    });
    b.time("end_to_end/threads_4_xs_tree", 1, || {
        black_box(
            dws_shmem::parallel_search(&presets::t3sim_xs(), 4)
                .stats
                .nodes,
        );
    });
    let record = build_record(started, trial_seed, b.metrics);
    if let Some(path) = json_path {
        match write_record(&path, &record) {
            Ok(()) => println!("[results written to {path}]"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    if let Some(path) = trajectory {
        match perflab::append_record(&path, &record) {
            Ok(()) => println!("[record appended to {path}]"),
            Err(e) => eprintln!("warning: could not append to {path}: {e}"),
        }
    }
}
