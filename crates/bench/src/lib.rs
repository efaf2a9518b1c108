//! # dws-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper. Every figure prints the rows the paper plots (plus an ASCII
//! rendition of the chart) and writes a CSV and a [`BenchRecord`] under
//! `results/`. Every figure that simulates is an entry of
//! [`figures::FIGURES`], run by the `figures <id>` binary. The rest keep
//! one binary each: the figures that simulate nothing (`table1`, fig08,
//! `ablation_skew_impl`, `ablation_link_load`) and the engine gates
//! `smoke_8192`, `ablation_threads` and `micro`.
//!
//! ## Scale mapping
//!
//! The paper's trees realize at 2.8·10⁹ (T3XXL) and 1.57·10¹¹ (T3WL)
//! nodes; ours realize at 7.2·10⁶ and 2.46·10⁷ (see
//! `dws_uts::presets`). A near-critical binomial tree exposes a DFS
//! frontier of ≈ √S nodes, so the number of ranks a tree can feed
//! scales with √S — our T3WL supports roughly 1/16 of the paper's rank
//! counts at comparable starvation levels. The large-scale figures
//! therefore default to ranks {64, 128, 256, 512} standing in for the
//! paper's {1,024 … 8,192}; pass `--full` to run the paper's literal
//! rank counts (slower, more starved, and with *larger* strategy gaps —
//! the effects grow with scale in both systems).
//!
//! Run a figure:
//!
//! ```text
//! cargo run --release -p dws-bench --bin figures             # list the ids
//! cargo run --release -p dws-bench --bin figures -- fig03
//! cargo run --release -p dws-bench --bin figures -- fig03 --full
//! cargo run --release -p dws-bench --bin figures -- fig16
//! ```

pub mod figures;

use dws_core::{
    run_experiment_streamed, ExperimentConfig, ExperimentResult, StealAmount, StreamingSetup,
    VictimPolicy, STREAMING_FLAGS,
};
use dws_metrics::perflab::{self, BenchMetric, BenchRecord, Polarity};
use dws_metrics::{ascii_chart, render_table, write_csv};
use dws_topology::RankMapping;
use dws_uts::Workload;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct FigArgs {
    /// Run at the paper's literal scale instead of the compressed one.
    pub full: bool,
    /// Directory for CSV output (`results/` by default; `None` disables).
    pub csv_dir: Option<PathBuf>,
    /// Seed override for variance studies.
    pub seed: u64,
    /// Simulation worker threads for every run (`--threads`).
    pub threads: u32,
    /// The streaming flags as given, `(name, value)`: `--live` and
    /// [`STREAMING_FLAGS`]. Each run builds its own setup from them
    /// ([`streaming`](Self::streaming)).
    pub stream_flags: Vec<(String, String)>,
    /// When the binary started, for the wall-clock bench metric.
    pub started: Instant,
}

impl Default for FigArgs {
    /// Compressed scale, CSVs under `results/`, the figures' seed, one
    /// thread, no streaming.
    fn default() -> Self {
        Self {
            full: false,
            csv_dir: Some(PathBuf::from("results")),
            seed: 0xD15_7EA1,
            threads: 1,
            stream_flags: Vec::new(),
            started: Instant::now(),
        }
    }
}

/// The options line every figure binary prints for `--help` and after
/// a bad option.
const OPTIONS: &str = "options: --full (paper-scale ranks)  --no-csv  \
     --csv-dir <dir>  --seed <n>  --threads <n>  --live  --snapshot <path>  \
     --snapshot-every <dur, e.g. 500ms of simulated time>  \
     --flight-dump <path>  --flight-ring <n>  \
     --wall-budget <dur of host time>  --rss-budget-mb <n>";

impl FigArgs {
    /// Parse from `std::env::args` (see [`FigArgs::parse_from`]).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// [`FigArgs::from_args`], or exit 2 printing the error and the
    /// options line.
    pub fn parse_from(args: impl Iterator<Item = String>) -> Self {
        Self::from_args(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{OPTIONS}");
            std::process::exit(2)
        })
    }

    /// Parse options: recognizes `--full`, `--no-csv`,
    /// `--csv-dir <dir>`, `--seed <n>`, `--threads <n>` and the
    /// streaming flags; `--help` prints them and exits. An unknown
    /// option or a bad value is an error naming the flag.
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        while let Some(a) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--full" => out.full = true,
                "--no-csv" => out.csv_dir = None,
                "--csv-dir" => out.csv_dir = Some(PathBuf::from(value()?)),
                "--seed" => {
                    let v = value()?;
                    out.seed = v
                        .parse()
                        .map_err(|_| format!("--seed must be an integer, got {v:?}"))?;
                }
                "--threads" => {
                    let v = value()?;
                    out.threads = match v.parse() {
                        Ok(n) if n >= 1 => n,
                        _ => return Err(format!("--threads must be at least 1, got {v:?}")),
                    };
                }
                "--live" => out.stream_flags.push(("live".into(), String::new())),
                "--help" | "-h" => {
                    eprintln!("{OPTIONS}");
                    std::process::exit(0);
                }
                other => match other.strip_prefix("--") {
                    Some(name) if STREAMING_FLAGS.contains(&name) => {
                        out.stream_flags.push((name.to_string(), value()?));
                    }
                    _ => return Err(format!("unknown option {other}")),
                },
            }
        }
        Ok(out)
    }

    /// Rank counts for the paper's small-scale experiments
    /// (Figures 2, 4): the paper's literal 8–128.
    pub fn small_ranks(&self) -> Vec<u32> {
        vec![8, 16, 32, 64, 128]
    }

    /// Rank counts for the large-scale experiments (Figures 3, 5–15):
    /// compressed by default, the paper's 1,024–8,192 under `--full`.
    pub fn large_ranks(&self) -> Vec<u32> {
        if self.full {
            vec![1024, 2048, 4096, 8192]
        } else {
            vec![64, 128, 256, 512]
        }
    }

    /// The single "largest scale" rank count used by the trace figures
    /// (Figures 5, 12, 13) and the granularity sweep (Figure 16).
    pub fn flagship_ranks(&self) -> u32 {
        if self.full {
            8192
        } else {
            512
        }
    }

    /// Workload for the small-scale experiments (paper: T3XXL).
    pub fn small_tree(&self) -> Workload {
        dws_uts::presets::t3xxl()
    }

    /// Workload for the large-scale experiments (paper: T3WL).
    pub fn large_tree(&self) -> Workload {
        dws_uts::presets::t3wl()
    }

    /// Base experiment configuration with this harness's seed.
    pub fn config(&self, workload: Workload, n_nodes: u32) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(workload, n_nodes);
        cfg.seed = self.seed;
        cfg.threads = self.threads;
        cfg
    }

    /// Streaming-telemetry attachment from the streaming flags, or
    /// `None` when none was given. Build one per run — the sink file is
    /// truncated on each call.
    ///
    /// # Panics
    /// Panics on a malformed flag value or a snapshot file that cannot
    /// be created.
    pub fn streaming(&self) -> Option<StreamingSetup> {
        let flags = self.stream_flags.iter();
        StreamingSetup::from_flags(flags.map(|(name, value)| (name.as_str(), value.as_str())))
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The strategy axes the paper sweeps, with its legend names.
pub const STRATEGIES: &[(&str, VictimPolicy, StealAmount)] = &[
    ("Reference", VictimPolicy::RoundRobin, StealAmount::OneChunk),
    ("Rand", VictimPolicy::Uniform, StealAmount::OneChunk),
    (
        "Tofu",
        VictimPolicy::DistanceSkewed { alpha: 1.0 },
        StealAmount::OneChunk,
    ),
    (
        "Reference Half",
        VictimPolicy::RoundRobin,
        StealAmount::Half,
    ),
    ("Rand Half", VictimPolicy::Uniform, StealAmount::Half),
    (
        "Tofu Half",
        VictimPolicy::DistanceSkewed { alpha: 1.0 },
        StealAmount::Half,
    ),
];

/// Look up a strategy by legend name.
pub fn strategy(name: &str) -> (VictimPolicy, StealAmount) {
    STRATEGIES
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, v, s)| (*v, *s))
        .unwrap_or_else(|| panic!("unknown strategy {name}"))
}

/// The paper's three rank mappings.
pub const MAPPINGS: &[RankMapping] = &[
    RankMapping::OneToOne,
    RankMapping::RoundRobin { ppn: 8 },
    RankMapping::Grouped { ppn: 8 },
];

/// What one simulated run adds to its figure's [`BenchRecord`].
pub struct RunSample {
    makespan_ns: f64,
    speedup: f64,
    events: f64,
    wall_s: f64,
    fingerprint: String,
}

/// What [`emit`] folds into a figure's [`BenchRecord`]: one sample per
/// run, in run order, and any figure-specific metrics (host facts,
/// phase timings, …).
#[derive(Default)]
pub struct Samples {
    /// Every run's sample, in run order.
    pub runs: Vec<RunSample>,
    /// Metrics appended to the record as they are.
    pub extra: Vec<BenchMetric>,
}

/// Run one configured experiment with an optional streaming-telemetry
/// attachment (see [`FigArgs::streaming`]), echoing progress to stderr.
/// The schedule — and thus every bench metric except wall time — is
/// identical with and without streaming.
pub fn run_logged(
    cfg: &ExperimentConfig,
    streaming: Option<StreamingSetup>,
) -> (ExperimentResult, RunSample) {
    let started = std::time::Instant::now();
    eprint!(
        "  running {:24} ranks={:5} ... ",
        cfg.label(),
        cfg.mapping.rank_count(cfg.n_nodes)
    );
    let r = run_experiment_streamed(cfg, streaming);
    let wall = started.elapsed();
    eprintln!(
        "makespan={} speedup={:.1} ({:.1?})",
        r.makespan,
        r.perf.speedup(),
        wall
    );
    let sample = RunSample {
        makespan_ns: r.makespan.ns() as f64,
        speedup: r.perf.speedup(),
        events: r.report.events as f64,
        wall_s: wall.as_secs_f64(),
        fingerprint: r.fingerprint.clone(),
    };
    (r, sample)
}

/// Fold a figure's runs into one [`BenchRecord`].
///
/// The makespan/speedup metrics aggregate across *heterogeneous*
/// configurations (the figure's whole sweep), so their CI captures the
/// sweep's spread, not sampling noise — a coarse but stable signature
/// of the simulated results. The wall/throughput metrics track the
/// harness itself. The fingerprint hashes every run's config
/// fingerprint in order, so any change to what the figure sweeps
/// shows up as a config change in `dws diff`.
fn figure_record(args: &FigArgs, fig_id: &str, samples: Samples) -> BenchRecord {
    let Samples { runs, extra } = samples;
    let wall_s = args.started.elapsed().as_secs_f64();
    let mut metrics = vec![BenchMetric::point(
        "wall_s_total",
        "s",
        Polarity::LowerIsBetter,
        wall_s,
    )];
    let fingerprint = if runs.is_empty() {
        perflab::fingerprint(fig_id)
    } else {
        let makespans: Vec<f64> = runs.iter().map(|s| s.makespan_ns).collect();
        let speedups: Vec<f64> = runs.iter().map(|s| s.speedup).collect();
        let sim_wall: f64 = runs.iter().map(|s| s.wall_s).sum();
        let events: f64 = runs.iter().map(|s| s.events).sum();
        metrics.push(BenchMetric::point(
            "sim_runs",
            "count",
            Polarity::Neutral,
            runs.len() as f64,
        ));
        metrics.push(BenchMetric::from_samples(
            "makespan_ns",
            "ns",
            Polarity::LowerIsBetter,
            &makespans,
        ));
        metrics.push(BenchMetric::from_samples(
            "speedup",
            "x",
            Polarity::HigherIsBetter,
            &speedups,
        ));
        if sim_wall > 0.0 {
            metrics.push(BenchMetric::point(
                "events_per_sec",
                "1/s",
                Polarity::HigherIsBetter,
                events / sim_wall,
            ));
        }
        let combined: String = runs.iter().map(|s| s.fingerprint.as_str()).collect();
        perflab::fingerprint(&combined)
    };
    if let Some(rss) = perflab::peak_rss_bytes() {
        metrics.push(BenchMetric::point(
            "peak_rss_bytes",
            "B",
            Polarity::LowerIsBetter,
            rss as f64,
        ));
    }
    metrics.extend(extra);
    BenchRecord {
        schema: perflab::BENCH_SCHEMA_VERSION,
        bench: fig_id.to_string(),
        git_rev: perflab::git_rev(),
        fingerprint,
        trial_seed: args.seed,
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        trials: runs.len().max(1) as u64,
        threads: args.threads,
        metrics,
    }
}

/// Emit a figure: aligned table on stdout, optional ASCII chart, CSV
/// under the configured directory, and the [`BenchRecord`] folded from
/// `samples`.
pub fn emit(
    args: &FigArgs,
    fig_id: &str,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
    chart: Option<String>,
    samples: Samples,
) {
    println!("== {fig_id}: {title} ==");
    println!("{}", render_table(header, rows));
    if let Some(chart) = chart {
        println!("{chart}");
    }
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("cannot create results directory");
        let path = dir.join(format!("{fig_id}.csv"));
        let file = std::fs::File::create(&path).expect("cannot create CSV file");
        write_csv(std::io::BufWriter::new(file), header, rows).expect("cannot write CSV");
        println!("[csv written to {}]", path.display());
    }
    let record = figure_record(args, fig_id, samples);
    if let Some(dir) = &args.csv_dir {
        let path = dir.join(format!("{fig_id}.record.json"));
        std::fs::write(&path, format!("{}\n", record.to_json()))
            .expect("cannot write bench record");
        println!("[bench record written to {}]", path.display());
    }
}

/// Convenience: format a float with fixed precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Render an ASCII chart sized for figure output.
pub fn chart(title: &str, series: &[(&str, Vec<(f64, f64)>)]) -> String {
    ascii_chart(title, series, 64, 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_lookup() {
        let (v, s) = strategy("Tofu Half");
        assert_eq!(v.label(), "Tofu");
        assert_eq!(s, StealAmount::Half);
    }

    #[test]
    #[should_panic(expected = "unknown strategy")]
    fn unknown_strategy_panics() {
        strategy("Bogus");
    }

    #[test]
    fn scale_mapping() {
        let quick = FigArgs::default();
        let full = FigArgs {
            full: true,
            ..FigArgs::default()
        };
        assert_eq!(quick.large_ranks(), vec![64, 128, 256, 512]);
        assert_eq!(full.large_ranks(), vec![1024, 2048, 4096, 8192]);
        assert_eq!(quick.flagship_ranks(), 512);
        assert_eq!(full.flagship_ranks(), 8192);
    }

    #[test]
    fn streaming_flags_reach_the_shared_parser() {
        assert!(FigArgs::default().streaming().is_none());
        let argv = "--live --snapshot-every 2ms --flight-ring 64 --rss-budget-mb 100 --threads 2";
        let args = FigArgs::from_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(args.threads, 2);
        let cfg = args.streaming().expect("streaming flags given").cfg;
        assert!(cfg.live);
        assert_eq!(cfg.snapshot_every_sim_ns, 2_000_000);
        assert_eq!(cfg.flight_ring, 64);
        assert_eq!(cfg.rss_budget_bytes, Some(100 << 20));
    }

    #[test]
    fn a_bad_option_is_an_error_naming_its_flag() {
        for (argv, flag) in [
            ("--trajectory p", "--trajectory"),
            ("--seed x", "--seed"),
            ("--threads 0", "--threads"),
            ("--threads", "--threads"),
            ("--snapshot", "--snapshot"),
        ] {
            let err = FigArgs::from_args(argv.split(' ').map(String::from)).unwrap_err();
            assert!(err.contains(flag), "{argv}: {err}");
        }
    }

    #[test]
    fn six_strategies_three_mappings() {
        assert_eq!(STRATEGIES.len(), 6);
        assert_eq!(MAPPINGS.len(), 3);
    }
}
