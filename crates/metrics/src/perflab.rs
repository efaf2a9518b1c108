//! Perf-lab: benchmark trajectory records and cross-run regression
//! diffing.
//!
//! The paper's whole argument rests on comparing runs, and the
//! harness's own trustworthiness rests on noticing when *it* gets
//! slower. This module gives both comparisons one vocabulary:
//!
//! - [`BenchRecord`] — one entry of the benchmark trajectory: what was
//!   measured (named metrics with repeated-trial mean + 95% CI), under
//!   which code (`git_rev`) and configuration (`fingerprint`), when;
//! - the **trajectory store** — an append-only JSON-lines file
//!   (`BENCH_trajectory.json`) written by [`append_record`] and read
//!   back by [`read_trajectory`], so the performance history of the
//!   repository survives across sessions and CI runs;
//! - [`verdict`] / [`compare`] — noise-aware per-metric diffing: a
//!   delta is significant only when it exceeds both the combined 95%
//!   confidence half-widths of the two samples and a relative
//!   tolerance floor, and its direction is interpreted through the
//!   metric's [`Polarity`] (a *larger* makespan is a regression, a
//!   *larger* events/sec is an improvement);
//! - [`metrics_from_run_report`] — the bridge from a `dws run --json`
//!   run report to comparable metric samples, so `dws diff` can set
//!   two simulator runs side by side as easily as two bench records.
//!
//! Following Khatiri et al. (arXiv:1910.02803), a reproduction
//! simulator is only trustworthy if its own cost and variance are
//! measured; following Gast et al. (arXiv:1805.00857), distributions
//! are reported with confidence bounds, never as bare points.

use crate::export::{parse, JsonValue};
use crate::summary::Summary;

/// Schema version stamped into every [`BenchRecord`], and the only
/// one [`BenchRecord::from_json`] reads; bump on incompatible layout
/// changes.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// Two-sided 95% critical value of Student's t for `df` degrees of
/// freedom (exact table for 1–30, the normal 1.96 beyond).
pub fn t_crit95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        d if d <= 30 => TABLE[(d - 1) as usize],
        _ => 1.960,
    }
}

/// Mean and 95% confidence half-width of `samples` (t-distribution,
/// unbiased sample deviation). Fewer than two samples yield a zero
/// half-width: a point estimate carries no internal noise evidence.
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let s = Summary::of(samples.iter().copied());
    if s.count() < 2 {
        return (s.mean(), 0.0);
    }
    (s.mean(), t_crit95(s.count() - 1) * s.stderr())
}

/// Which direction of change is *good* for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Smaller is better (latencies, makespans, allocation counts).
    LowerIsBetter,
    /// Larger is better (speedup, efficiency, events per second).
    HigherIsBetter,
    /// Informational only; a change is never a regression.
    Neutral,
}

impl Polarity {
    /// Short wire name (`"lower"` / `"higher"` / `"neutral"`).
    pub fn label(&self) -> &'static str {
        match self {
            Polarity::LowerIsBetter => "lower",
            Polarity::HigherIsBetter => "higher",
            Polarity::Neutral => "neutral",
        }
    }

    /// Parse a wire name back.
    pub fn from_label(s: &str) -> Option<Polarity> {
        match s {
            "lower" => Some(Polarity::LowerIsBetter),
            "higher" => Some(Polarity::HigherIsBetter),
            "neutral" => Some(Polarity::Neutral),
            _ => None,
        }
    }
}

/// One named measurement of a [`BenchRecord`]: the mean of `n`
/// repeated trials with its 95% confidence half-width.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Metric name (e.g. `"makespan_ns"`, `"chase_lev/uncontended_steal"`).
    pub name: String,
    /// Unit label (e.g. `"ns"`, `"ns_per_iter"`, `"events_per_sec"`).
    pub unit: String,
    /// Number of trials aggregated.
    pub n: u64,
    /// Trial mean.
    pub mean: f64,
    /// 95% confidence half-width (0 for a point estimate).
    pub ci95: f64,
    /// Which direction of change is good.
    pub better: Polarity,
}

impl BenchMetric {
    /// Build from raw trial samples: records the trial count, mean and
    /// 95% CI in one step.
    pub fn from_samples(name: &str, unit: &str, better: Polarity, samples: &[f64]) -> Self {
        let (mean, ci95) = mean_ci95(samples);
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            n: samples.len() as u64,
            mean,
            ci95,
            better,
        }
    }

    /// A single-trial point estimate (zero CI).
    pub fn point(name: &str, unit: &str, better: Polarity, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            n: 1,
            mean: value,
            ci95: 0.0,
            better,
        }
    }
}

/// One entry of the benchmark trajectory: everything needed to compare
/// this measurement against any other entry, now or years later.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Benchmark identifier (`"micro"`, `"fig03"`, ...).
    pub bench: String,
    /// Git revision the benchmark ran under (`"unknown"` outside a
    /// repository).
    pub git_rev: String,
    /// Configuration fingerprint: two records with equal fingerprints
    /// measured the same thing and may be diffed without caveats.
    pub fingerprint: String,
    /// Per-trial RNG seed offset (trials within one record share it;
    /// distinct trajectory entries of the same config vary it).
    pub trial_seed: u64,
    /// Unix timestamp (seconds) of the measurement.
    pub unix_time_s: u64,
    /// Number of repeated trials behind the confidence intervals.
    pub trials: u64,
    /// Simulation worker threads the benchmark ran with. Thread count
    /// never changes simulated metrics (the engine's schedule is
    /// shard-count invariant) but does change wall-clock ones, so
    /// records carry it without folding it into the fingerprint.
    pub threads: u32,
    /// The measurements.
    pub metrics: Vec<BenchMetric>,
}

impl BenchRecord {
    /// Serialize to a single-line JSON object (the trajectory-store
    /// line format).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", self.schema.into()),
            ("bench", self.bench.as_str().into()),
            ("git_rev", self.git_rev.as_str().into()),
            ("fingerprint", self.fingerprint.as_str().into()),
            ("trial_seed", self.trial_seed.into()),
            ("unix_time_s", self.unix_time_s.into()),
            ("trials", self.trials.into()),
            ("threads", self.threads.into()),
            (
                "metrics",
                JsonValue::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            JsonValue::obj(vec![
                                ("name", m.name.as_str().into()),
                                ("unit", m.unit.as_str().into()),
                                ("n", m.n.into()),
                                ("mean", m.mean.into()),
                                ("ci95", m.ci95.into()),
                                ("better", m.better.label().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialize and validate a record. Rejects unknown schema
    /// versions, missing fields, and empty metric lists.
    pub fn from_json(doc: &JsonValue) -> Result<BenchRecord, String> {
        let get_str = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("bench record missing string field {key:?}"))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("bench record missing numeric field {key:?}"))
        };
        let schema = get_u64("schema")?;
        if schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported bench record schema {schema} (supported: {BENCH_SCHEMA_VERSION})"
            ));
        }
        let metrics_json = doc
            .get("metrics")
            .and_then(|v| v.as_arr())
            .ok_or("bench record missing metrics array")?;
        if metrics_json.is_empty() {
            return Err("bench record carries no metrics".into());
        }
        let mut metrics = Vec::with_capacity(metrics_json.len());
        for m in metrics_json {
            let name = m
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or("metric missing name")?;
            let bad = |key: &str| format!("metric {name:?} missing or malformed field {key:?}");
            let num = |key: &str| m.get(key).and_then(|v| v.as_num()).ok_or_else(|| bad(key));
            let text = |key: &str| m.get(key).and_then(|v| v.as_str()).ok_or_else(|| bad(key));
            metrics.push(BenchMetric {
                name: name.to_string(),
                unit: text("unit")?.to_string(),
                n: m.get("n")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| bad("n"))?,
                mean: num("mean")?,
                ci95: num("ci95")?,
                better: Polarity::from_label(text("better")?).ok_or_else(|| bad("better"))?,
            });
        }
        Ok(BenchRecord {
            schema,
            bench: get_str("bench")?,
            git_rev: get_str("git_rev")?,
            fingerprint: get_str("fingerprint")?,
            trial_seed: get_u64("trial_seed")?,
            unix_time_s: get_u64("unix_time_s")?,
            trials: get_u64("trials")?,
            threads: u32::try_from(get_u64("threads")?)
                .map_err(|_| "bench record threads out of range".to_string())?,
            metrics,
        })
    }
}

/// Append one record to an append-only trajectory file (JSON lines:
/// one single-line record object per line). Creates the file and any
/// parent directories on first use.
pub fn append_record(path: &str, record: &BenchRecord) -> Result<(), String> {
    use std::io::Write as _;
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{}", record.to_json()).map_err(|e| format!("{path}: {e}"))
}

/// Read a trajectory file back: every non-empty line must parse as a
/// schema-valid [`BenchRecord`].
pub fn read_trajectory(path: &str) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_trajectory(&text).map_err(|e| format!("{path}: {e}"))
}

/// [`read_trajectory`] on in-memory text.
pub fn parse_trajectory(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(BenchRecord::from_json(&doc).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// The outcome of comparing one metric across two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change exceeds the noise threshold in the *bad* direction.
    Regression,
    /// The change exceeds the noise threshold in the *good* direction.
    Improvement,
    /// The change does not exceed the noise threshold.
    WithinNoise,
}

impl Verdict {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::WithinNoise => "within-noise",
        }
    }
}

/// One metric's delta between two runs, with its noise threshold and
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Baseline mean (run A).
    pub a: f64,
    /// Candidate mean (run B).
    pub b: f64,
    /// Relative change `(b - a) / |a|` (0 when `a == 0`).
    pub rel: f64,
    /// Noise threshold the absolute delta was held against.
    pub threshold: f64,
    /// The call.
    pub verdict: Verdict,
}

/// Compare one metric across two runs.
///
/// The absolute delta is significant only if it **strictly exceeds**
/// the noise threshold `max(ci95_a + ci95_b, tol · |mean_a|)`: the
/// confidence intervals must not overlap *and* the change must clear
/// the relative-tolerance floor. A delta exactly at the threshold is
/// within noise — ties go to "no news". [`Polarity::Neutral`] metrics
/// report their delta but never regress.
pub fn verdict(a: &BenchMetric, b: &BenchMetric, tol: f64) -> MetricDelta {
    let delta = b.mean - a.mean;
    let threshold = (a.ci95 + b.ci95).max(tol * a.mean.abs());
    let significant = delta.abs() > threshold;
    let v = if !significant {
        Verdict::WithinNoise
    } else {
        match (a.better, delta > 0.0) {
            (Polarity::Neutral, _) => Verdict::WithinNoise,
            (Polarity::LowerIsBetter, true) | (Polarity::HigherIsBetter, false) => {
                Verdict::Regression
            }
            (Polarity::LowerIsBetter, false) | (Polarity::HigherIsBetter, true) => {
                Verdict::Improvement
            }
        }
    };
    MetricDelta {
        name: a.name.clone(),
        unit: a.unit.clone(),
        a: a.mean,
        b: b.mean,
        rel: if a.mean != 0.0 {
            delta / a.mean.abs()
        } else {
            0.0
        },
        threshold,
        verdict: v,
    }
}

/// Compare two metric sets by name (order follows `a`; metrics present
/// on only one side are skipped — they carry no comparison).
pub fn compare(a: &[BenchMetric], b: &[BenchMetric], tol: f64) -> Vec<MetricDelta> {
    a.iter()
        .filter_map(|ma| {
            b.iter()
                .find(|mb| mb.name == ma.name)
                .map(|mb| verdict(ma, mb, tol))
        })
        .collect()
}

/// True if any delta in `deltas` is a regression.
pub fn any_regression(deltas: &[MetricDelta]) -> bool {
    deltas.iter().any(|d| d.verdict == Verdict::Regression)
}

/// True if `doc` looks like a `dws run --json` run report (as opposed
/// to a [`BenchRecord`]).
pub fn is_run_report(doc: &JsonValue) -> bool {
    doc.get("makespan_ns").is_some() && doc.get("n_ranks").is_some()
}

/// Extract the comparable metrics of a machine-readable run report:
/// the headline simulated metrics (makespan, speedup, efficiency),
/// the occupancy latencies (SL/EL) when present, the steal-RTT
/// percentiles when histograms were collected, and the self-profile's
/// wall metrics when the run was profiled.
pub fn metrics_from_run_report(doc: &JsonValue) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &str, better: Polarity, v: Option<f64>| {
        if let Some(v) = v {
            out.push(BenchMetric::point(name, unit, better, v));
        }
    };
    let num = |path: &[&str]| -> Option<f64> {
        let mut v = doc;
        for key in path {
            v = v.get(key)?;
        }
        v.as_num()
    };
    push(
        "makespan_ns",
        "ns",
        Polarity::LowerIsBetter,
        num(&["makespan_ns"]),
    );
    push("speedup", "x", Polarity::HigherIsBetter, num(&["speedup"]));
    push(
        "efficiency",
        "frac",
        Polarity::HigherIsBetter,
        num(&["efficiency"]),
    );
    push(
        "steals_failed",
        "count",
        Polarity::Neutral,
        num(&["totals", "steals_failed"]),
    );
    for pct in ["25", "50", "90"] {
        push(
            &format!("sl{pct}"),
            "frac",
            Polarity::LowerIsBetter,
            num(&["occupancy", "sl", pct]),
        );
        push(
            &format!("el{pct}"),
            "frac",
            Polarity::LowerIsBetter,
            num(&["occupancy", "el", pct]),
        );
    }
    for p in ["p50", "p90", "p99"] {
        push(
            &format!("steal_rtt_{p}_ns"),
            "ns",
            Polarity::LowerIsBetter,
            num(&["histograms", "steal_rtt_ns", p]),
        );
    }
    push(
        "events_per_sec",
        "events/s",
        Polarity::HigherIsBetter,
        num(&["profile", "events_per_sec"]),
    );
    push(
        "allocs_per_event",
        "allocs",
        Polarity::LowerIsBetter,
        num(&["profile", "allocs_per_event"]),
    );
    push(
        "peak_rss_bytes",
        "bytes",
        Polarity::LowerIsBetter,
        num(&["profile", "peak_rss_bytes"]),
    );
    out
}

/// The configuration fingerprint of either artifact kind (run report
/// or bench record), if it carries one.
pub fn fingerprint_of_doc(doc: &JsonValue) -> Option<String> {
    if let Some(f) = doc.get("fingerprint").and_then(|v| v.as_str()) {
        return Some(f.to_string());
    }
    doc.get("config")
        .and_then(|c| c.get("fingerprint"))
        .and_then(|v| v.as_str())
        .map(str::to_string)
}

/// Deterministic 64-bit FNV-1a fingerprint of a canonical
/// configuration string, rendered as 16 hex digits. One shared
/// implementation so run reports, bench records, and trajectory
/// entries are fingerprint-compatible.
pub fn fingerprint(canonical: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Best-effort current git revision (short hash, `-dirty` suffixed
/// when the work tree has local modifications); `"unknown"` when git
/// or the repository is unavailable.
pub fn git_rev() -> String {
    let run = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match run(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = run(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`;
/// `None` elsewhere or when procfs is unavailable).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Wall-clock phase accounting of one profiled run, as carried in the
/// run report's `profile` section.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Host wall-clock time of the simulation loop, in nanoseconds.
    pub wall_ns: u64,
    /// Events the engine processed.
    pub events: u64,
    /// Heap allocations during the run (0 when the counting allocator
    /// is not installed in this binary).
    pub allocs: u64,
    /// Peak resident set size in bytes (0 when unavailable).
    pub peak_rss_bytes: u64,
    /// Tree nodes the run expanded.
    pub tree_nodes: u64,
    /// Host nanoseconds to generate one child of the run's own root,
    /// timed outside the simulation loop (0 for a childless root).
    pub child_ns: f64,
    /// Per-phase timing: `(name, calls, total_ns)`.
    pub phases: Vec<(String, u64, u64)>,
    /// Per-shard execution profile of a windowed (parallel) run:
    /// `(shard, ranks, events, windows, busy_ns, wait_ns)`, where
    /// `busy_ns` is time spent advancing the shard's events and
    /// `wait_ns` time parked at window barriers.
    pub shards: Vec<(u32, u32, u64, u64, u64, u64)>,
}

impl ProfileReport {
    /// Engine throughput in events per host second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Heap allocations per processed event (0 when allocation
    /// counting is unavailable).
    pub fn allocs_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.allocs as f64 / self.events as f64
    }

    /// The tree floor in host nanoseconds: what generating the run's
    /// nodes costs with no engine, scheduler or network around it —
    /// nodes × the measured cost of one child.
    pub fn tree_floor_ns(&self) -> f64 {
        self.tree_nodes as f64 * self.child_ns
    }

    /// The tree floor as a fraction of the run's wall time.
    pub fn tree_floor_share(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.tree_floor_ns() / self.wall_ns as f64
    }

    /// Serialize for the run report's `profile` section.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("wall_ns", self.wall_ns.into()),
            ("events", self.events.into()),
            ("events_per_sec", self.events_per_sec().into()),
            ("allocs", self.allocs.into()),
            ("allocs_per_event", self.allocs_per_event().into()),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
            (
                "tree_floor",
                JsonValue::obj(vec![
                    ("nodes", self.tree_nodes.into()),
                    ("ns_per_child", self.child_ns.into()),
                    ("floor_ms", (self.tree_floor_ns() / 1e6).into()),
                    ("share_of_wall", self.tree_floor_share().into()),
                ]),
            ),
            (
                "phases",
                JsonValue::Arr(
                    self.phases
                        .iter()
                        .map(|(name, calls, total_ns)| {
                            JsonValue::obj(vec![
                                ("name", name.as_str().into()),
                                ("calls", (*calls).into()),
                                ("total_ns", (*total_ns).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "shards",
                JsonValue::Arr(
                    self.shards
                        .iter()
                        .map(|&(shard, ranks, events, windows, busy_ns, wait_ns)| {
                            JsonValue::obj(vec![
                                ("shard", shard.into()),
                                ("ranks", ranks.into()),
                                ("events", events.into()),
                                ("windows", windows.into()),
                                ("busy_ns", busy_ns.into()),
                                ("wait_ns", wait_ns.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_table_brackets_the_normal() {
        assert!((t_crit95(1) - 12.706).abs() < 1e-9);
        assert!((t_crit95(9) - 2.262).abs() < 1e-9);
        assert!((t_crit95(30) - 2.042).abs() < 1e-9);
        assert!((t_crit95(1000) - 1.960).abs() < 1e-9);
        assert!(t_crit95(0).is_infinite());
        // Monotonically shrinking toward the normal.
        for df in 1..60 {
            assert!(t_crit95(df) >= t_crit95(df + 1));
        }
    }

    #[test]
    fn ci_math_known_values() {
        // Two samples: mean 10, sd = sqrt(2)·? — sd of {9, 11} is
        // sqrt(((9-10)² + (11-10)²)/1) = sqrt(2)... no: = sqrt(2/1) ≈ 1.4142.
        // stderr = 1.4142/sqrt(2) = 1.0; ci = t(1)·1.0 = 12.706.
        let (mean, ci) = mean_ci95(&[9.0, 11.0]);
        assert!((mean - 10.0).abs() < 1e-12);
        assert!((ci - 12.706).abs() < 1e-9, "got {ci}");
        // Identical samples: zero CI.
        let (_, ci) = mean_ci95(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(ci, 0.0);
        // Point estimates carry no noise evidence.
        let (mean, ci) = mean_ci95(&[42.0]);
        assert_eq!((mean, ci), (42.0, 0.0));
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
    }

    fn metric(name: &str, mean: f64, ci: f64, better: Polarity) -> BenchMetric {
        BenchMetric {
            name: name.into(),
            unit: "u".into(),
            n: 5,
            mean,
            ci95: ci,
            better,
        }
    }

    #[test]
    fn verdict_boundary_exactly_at_ci_threshold_is_noise() {
        // CIs: 2 + 3 = 5; delta exactly 5 → within noise (strict >).
        let a = metric("m", 100.0, 2.0, Polarity::LowerIsBetter);
        let b = metric("m", 105.0, 3.0, Polarity::LowerIsBetter);
        assert_eq!(verdict(&a, &b, 0.0).verdict, Verdict::WithinNoise);
        // One ulp beyond → regression.
        let b2 = metric("m", 105.0 + 1e-9, 3.0, Polarity::LowerIsBetter);
        assert_eq!(verdict(&a, &b2, 0.0).verdict, Verdict::Regression);
    }

    #[test]
    fn verdict_boundary_exactly_at_tolerance_floor_is_noise() {
        // Point estimates, tol 2%: threshold = 2.0; delta exactly 2.0
        // → within noise, just beyond → significant.
        let a = metric("m", 100.0, 0.0, Polarity::LowerIsBetter);
        let at = metric("m", 102.0, 0.0, Polarity::LowerIsBetter);
        let beyond = metric("m", 102.000001, 0.0, Polarity::LowerIsBetter);
        assert_eq!(verdict(&a, &at, 0.02).verdict, Verdict::WithinNoise);
        assert_eq!(verdict(&a, &beyond, 0.02).verdict, Verdict::Regression);
    }

    #[test]
    fn verdict_respects_polarity() {
        let a = metric("m", 100.0, 0.0, Polarity::HigherIsBetter);
        let worse = metric("m", 50.0, 0.0, Polarity::HigherIsBetter);
        let better = metric("m", 200.0, 0.0, Polarity::HigherIsBetter);
        assert_eq!(verdict(&a, &worse, 0.01).verdict, Verdict::Regression);
        assert_eq!(verdict(&a, &better, 0.01).verdict, Verdict::Improvement);
        // Neutral metrics never regress, no matter the delta.
        let n = metric("m", 100.0, 0.0, Polarity::Neutral);
        let n2 = metric("m", 1e9, 0.0, Polarity::Neutral);
        assert_eq!(verdict(&n, &n2, 0.01).verdict, Verdict::WithinNoise);
    }

    #[test]
    fn verdict_uses_wider_of_ci_and_tolerance() {
        // CI sum (1.0) below the tolerance floor (5.0): the floor wins.
        let a = metric("m", 100.0, 0.5, Polarity::LowerIsBetter);
        let b = metric("m", 104.0, 0.5, Polarity::LowerIsBetter);
        assert_eq!(verdict(&a, &b, 0.05).verdict, Verdict::WithinNoise);
        // CI sum (10.0) above the floor (1.0): the CIs win.
        let a = metric("m", 100.0, 5.0, Polarity::LowerIsBetter);
        let b = metric("m", 108.0, 5.0, Polarity::LowerIsBetter);
        assert_eq!(verdict(&a, &b, 0.01).verdict, Verdict::WithinNoise);
    }

    #[test]
    fn compare_matches_by_name_and_flags_regressions() {
        let a = vec![
            metric("x", 100.0, 0.0, Polarity::LowerIsBetter),
            metric("y", 10.0, 0.0, Polarity::HigherIsBetter),
            metric("only_in_a", 1.0, 0.0, Polarity::Neutral),
        ];
        let b = vec![
            metric("y", 10.0, 0.0, Polarity::HigherIsBetter),
            metric("x", 150.0, 0.0, Polarity::LowerIsBetter),
        ];
        let deltas = compare(&a, &b, 0.02);
        assert_eq!(deltas.len(), 2);
        assert!(any_regression(&deltas));
        assert_eq!(deltas[0].name, "x");
        assert_eq!(deltas[0].verdict, Verdict::Regression);
        assert_eq!(deltas[1].verdict, Verdict::WithinNoise);
    }

    #[test]
    fn record_roundtrip_and_validation() {
        let rec = BenchRecord {
            schema: BENCH_SCHEMA_VERSION,
            bench: "micro".into(),
            git_rev: "abc1234".into(),
            fingerprint: fingerprint("micro-v1"),
            trial_seed: 1,
            unix_time_s: 1_700_000_000,
            trials: 7,
            threads: 1,
            metrics: vec![BenchMetric::from_samples(
                "sha1/digest_64B",
                "ns_per_iter",
                Polarity::LowerIsBetter,
                &[100.0, 101.0, 99.0],
            )],
        };
        let text = rec.to_json().to_string();
        assert!(!text.contains('\n'), "records must be single-line");
        let back = BenchRecord::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, rec);
        // Other schemas, a missing field and empty metrics are
        // rejected.
        for schema in [2, 99] {
            let mut bad = rec.clone();
            bad.schema = schema;
            assert!(BenchRecord::from_json(&bad.to_json()).is_err());
        }
        for key in ["threads", "trial_seed", "n", "ci95", "unit", "better"] {
            let text = text.replace(&format!("\"{key}\":"), "\"dropped\":");
            let err = BenchRecord::from_json(&parse(&text).unwrap()).expect_err(key);
            assert!(err.contains(key), "{err}");
        }
        let mut empty = rec;
        empty.metrics.clear();
        assert!(BenchRecord::from_json(&empty.to_json()).is_err());
    }

    #[test]
    fn trajectory_parses_jsonl_and_rejects_other_forms() {
        let rec = BenchRecord {
            schema: BENCH_SCHEMA_VERSION,
            bench: "micro".into(),
            git_rev: "r".into(),
            fingerprint: "f".into(),
            trial_seed: 0,
            unix_time_s: 1,
            trials: 1,
            threads: 1,
            metrics: vec![BenchMetric::point("m", "ns", Polarity::LowerIsBetter, 5.0)],
        };
        let line = rec.to_json().to_string();
        let jsonl = format!("{line}\n\n{line}\n");
        let recs = parse_trajectory(&jsonl).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(parse_trajectory(&format!("[{line},{line}]")).is_err());
        assert!(parse_trajectory("not json\n").is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint("a"), fingerprint("a"));
        assert_ne!(fingerprint("a"), fingerprint("b"));
        assert_eq!(fingerprint("").len(), 16);
    }

    #[test]
    fn run_report_metric_extraction() {
        let doc = parse(
            r#"{"makespan_ns": 1000, "n_ranks": 4, "speedup": 3.5, "efficiency": 0.875,
                "totals": {"steals_failed": 7},
                "occupancy": {"sl": {"50": 0.1}, "el": {"50": 0.2}},
                "histograms": {"steal_rtt_ns": {"p50": 10, "p90": 20, "p99": 30}},
                "profile": {"events_per_sec": 1e6, "allocs_per_event": 0.5,
                            "peak_rss_bytes": 1048576}}"#,
        )
        .unwrap();
        assert!(is_run_report(&doc));
        let metrics = metrics_from_run_report(&doc);
        let find = |n: &str| metrics.iter().find(|m| m.name == n).unwrap();
        assert_eq!(find("makespan_ns").mean, 1000.0);
        assert_eq!(find("makespan_ns").better, Polarity::LowerIsBetter);
        assert_eq!(find("speedup").better, Polarity::HigherIsBetter);
        assert_eq!(find("sl50").mean, 0.1);
        assert_eq!(find("steal_rtt_p99_ns").mean, 30.0);
        assert_eq!(find("events_per_sec").mean, 1e6);
        assert_eq!(find("steals_failed").better, Polarity::Neutral);
        // Sections absent → metrics absent, not zero.
        let bare = parse(r#"{"makespan_ns": 1, "n_ranks": 2, "speedup": 1.0}"#).unwrap();
        let m = metrics_from_run_report(&bare);
        assert!(m.iter().all(|x| x.name != "sl50"));
    }

    #[test]
    fn profile_report_json_and_rates() {
        let p = ProfileReport {
            wall_ns: 2_000_000_000,
            events: 4_000_000,
            allocs: 1_000_000,
            peak_rss_bytes: 1 << 20,
            tree_nodes: 10_000_000,
            child_ns: 40.0,
            phases: vec![("dispatch".into(), 4_000_000, 1_500_000_000)],
            shards: vec![(0, 8, 2_000_000, 300, 900_000_000, 100_000_000)],
        };
        assert!((p.events_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert!((p.allocs_per_event() - 0.25).abs() < 1e-12);
        assert!((p.tree_floor_share() - 0.2).abs() < 1e-12);
        let j = p.to_json();
        assert_eq!(j.get("events").unwrap().as_u64(), Some(4_000_000));
        let floor = j.get("tree_floor").unwrap();
        assert_eq!(floor.get("nodes").unwrap().as_u64(), Some(10_000_000));
        assert_eq!(floor.get("floor_ms").unwrap().as_num(), Some(400.0));
        let phases = j.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(
            phases[0].get("name").and_then(|v| v.as_str()),
            Some("dispatch")
        );
        let shards = j.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards[0].get("ranks").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(
            shards[0].get("busy_ns").and_then(|v| v.as_u64()),
            Some(900_000_000)
        );
    }
}
