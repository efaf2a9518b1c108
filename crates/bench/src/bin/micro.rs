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

/// The benchmarks, in run order: name, inner iterations per call, and
/// the loop to time.
const BENCHES: &[(&str, u64, fn())] = &[
    ("chase_lev/owner_push_pop_64", 1_000, owner_push_pop_64),
    ("chase_lev/uncontended_steal", 10_000, uncontended_steal),
    ("end_to_end/threads_4_xs_tree", 1, threads_4_xs_tree),
];

fn owner_push_pop_64() {
    let (w, _s) = dws_shmem::new_deque::<u64>(1024);
    for _ in 0..1_000 {
        for i in 0..64u64 {
            w.push(black_box(i));
        }
        for _ in 0..64 {
            black_box(w.pop());
        }
    }
}

fn uncontended_steal() {
    let (w, s) = dws_shmem::new_deque::<u64>(1024);
    for i in 0..20_000u64 {
        w.push(i);
    }
    for _ in 0..10_000 {
        black_box(s.steal());
    }
}

fn threads_4_xs_tree() {
    black_box(
        dws_shmem::parallel_search(&presets::t3sim_xs(), 4)
            .stats
            .nodes,
    );
}

/// What the command line asks for.
#[derive(Debug)]
struct Options {
    /// Substring filters over benchmark names; empty runs everything.
    only: Vec<String>,
    /// Where the bench record goes (`None` under `--no-json`).
    json_path: Option<String>,
}

impl Options {
    fn selects(&self, name: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|o| name.contains(o.as_str()))
    }
}

/// Parse `[--json <path> | --no-json] [filter...]`. An unknown
/// `--flag`, or filters that select no benchmark, are errors: a run
/// that times nothing would still write a record for a gate to diff.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        only: Vec::new(),
        json_path: Some("results/BENCH_micro.json".to_string()),
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json_path = it.next().or(opts.json_path),
            "--no-json" => opts.json_path = None,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => opts.only.push(a),
        }
    }
    if !BENCHES.iter().any(|(name, ..)| opts.selects(name)) {
        return Err(format!("the filters {:?} select no benchmark", opts.only));
    }
    Ok(opts)
}

/// Time `f` (which runs `iters` inner iterations per call): print the
/// best per-iteration time across the batches (the minimum is the
/// stablest location estimator for short loops), and keep all batch
/// samples so the bench record can carry a mean and 95% CI.
fn time(name: &str, iters: u64, f: fn()) -> BenchMetric {
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
    BenchMetric::from_samples(name, "ns/iter", Polarity::LowerIsBetter, &samples)
}

/// Fold the timed benchmarks into a [`BenchRecord`]: one metric per
/// benchmark (mean ns/iter with a 95% CI across batches), plus the
/// process-wide allocation count and peak RSS. The fingerprint hashes
/// the benchmark names that ran, so filtered runs do not diff against
/// full ones. No benchmark draws from a seeded stream, so the record's
/// seed is 0.
fn build_record(started: Instant, mut metrics: Vec<BenchMetric>) -> BenchRecord {
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
        trial_seed: 0,
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
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("micro: {e}; usage: micro [--json <path> | --no-json] [filter...]");
        eprintln!("the benchmarks (a filter selects those whose name contains it):");
        for (name, ..) in BENCHES {
            eprintln!("  {name}");
        }
        std::process::exit(2)
    });
    let metrics = BENCHES
        .iter()
        .filter(|(name, ..)| opts.selects(name))
        .map(|&(name, iters, f)| time(name, iters, f))
        .collect();
    let record = build_record(started, metrics);
    if let Some(path) = opts.json_path {
        match write_record(&path, &record) {
            Ok(()) => println!("[results written to {path}]"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<Options, String> {
        parse_args(argv.split_whitespace().map(String::from))
    }

    #[test]
    fn filters_and_json_flags_parse() {
        let opts = parse("--no-json chase_lev").unwrap();
        assert_eq!(opts.json_path, None);
        assert_eq!(opts.only, ["chase_lev"]);
        assert!(opts.selects("chase_lev/uncontended_steal"));
        assert!(!opts.selects("end_to_end/threads_4_xs_tree"));
        let opts = parse("--json perf/a.json").unwrap();
        assert_eq!(opts.json_path.as_deref(), Some("perf/a.json"));
        assert!(BENCHES.iter().all(|(name, ..)| opts.selects(name)));
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        for argv in ["--trial-seed 1", "chase_lev --bogus"] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("unknown option --"), "{argv}: {err}");
        }
    }

    #[test]
    fn filters_that_select_nothing_are_an_error() {
        for argv in ["nothing_matches", "--no-json 1"] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("select no benchmark"), "{argv}: {err}");
        }
        // One matching filter among others selects.
        assert!(parse("nothing_matches steal").is_ok());
    }
}
