//! The parent process: starts one child per job, folds what they print
//! into metrics and checks, and never runs a job itself. The load is
//! closed: one job at a time, the next only after the last has ended.

use crate::child::check;
use crate::procfs;
use crate::stats::{self, median, Fold};
use crate::workloads::{has_twin, WORKLOADS};
use dws::metrics::export::parse;
use dws::metrics::{perflab, JsonValue};
use std::process::{Command, Stdio};

/// Timed repeats of a workload in one invocation are never fewer than
/// this, however long one takes.
const MIN_REPEATS: usize = 2;

/// Nor more than this, however short.
const MAX_REPEATS: usize = 64;

/// Timed repeats per workload when every workload runs in one go.
const FULL_RUN_REPEATS: usize = 3;

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline figure by which it may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness works from: it prints the
/// metrics this file names, with the units it gives, and `compare`
/// applies its bounds.
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Read `BENCHMARK.json` from the current directory (the repo root).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repo root)"))?;
        Spec::from_json(&parse(&text)?)
    }

    pub fn from_json(doc: &JsonValue) -> Result<Spec, String> {
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .ok_or(format!("BENCHMARK.json: no {key} list"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(JsonValue::as_str);
                    Ok(MetricSpec {
                        name: text("name").ok_or("metric without a name")?.to_string(),
                        unit: text("unit").ok_or("metric without a unit")?.to_string(),
                        lower_is_better: text("better") == Some("lower"),
                        bound: m.get("bound").and_then(JsonValue::as_num),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_num)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// How the repeats of a run-level metric fold into its figure: the
/// fastest repeat for host time, the median for everything else.
pub fn fold_of(metric: &str) -> Fold {
    match metric {
        "wall_s" | "cpu_s" | "setup_s" => Fold::Fastest,
        _ => Fold::Median,
    }
}

/// What every child is told about the run it belongs to.
#[derive(Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub smoke: bool,
}

impl RunOpts {
    /// Where results and traces go, relative to the repo root. Smoke
    /// runs keep out of the way of real results.
    pub fn out_dir(&self) -> &'static str {
        if self.smoke {
            "benchmarks/out/smoke"
        } else {
            "benchmarks/out"
        }
    }
}

/// Run this executable again as a child doing `mode`, wait for it, and
/// parse the JSON object on its last line of output.
fn spawn(mode: &str, opts: RunOpts, flags: &[&str]) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode])
        .args(["--seed", &opts.seed.to_string()])
        .args(flags)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child {flags:?} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{mode} child {flags:?} printed no result: {e}"))
}

fn passed(check: &JsonValue) -> bool {
    check.get("ok") == Some(&JsonValue::Bool(true))
}

fn num(doc: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(JsonValue::as_num)
}

/// The figure at `path` of the fastest of `over` ÷ that of the fastest
/// of `under`: the same fold on both sides. 0 when either has no runs.
fn fastest_ratio(over: &[JsonValue], under: &[JsonValue], path: &[&str]) -> f64 {
    let fastest = |docs: &[JsonValue]| {
        let figures: Vec<f64> = docs.iter().filter_map(|d| num(d, path)).collect();
        Fold::Fastest.of(&figures)
    };
    if over.is_empty() || under.is_empty() {
        0.0
    } else {
        fastest(over) / fastest(under)
    }
}

/// What the micro-probes measured. They depend on the seed and on no
/// workload, so one child serves a whole invocation.
pub struct Probes {
    /// `(metric, value, batches)`: `<name>` is the median of the batches
    /// and `<name>.p95` their slow tail.
    rows: Vec<(String, f64, u64)>,
    /// One harness span per probe.
    spans: Vec<JsonValue>,
}

impl Probes {
    /// Run the probes in a child of their own and write its spans to
    /// `trace.probes.json`.
    pub fn measure(opts: RunOpts) -> Result<Probes, String> {
        let doc = spawn("probes", opts, &[])?;
        let Some(JsonValue::Obj(probes)) = doc.get("probes") else {
            return Err("the probes child reported no probes".into());
        };
        let mut rows = Vec::new();
        for (name, row) in probes {
            let n = row.get("n").and_then(JsonValue::as_u64).unwrap_or(0);
            rows.push((name.clone(), num(row, &["p50"]).unwrap_or(f64::NAN), n));
            rows.push((
                format!("{name}.p95"),
                num(row, &["p95"]).unwrap_or(f64::NAN),
                n,
            ));
        }
        let spans = doc
            .get("spans")
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
            .to_vec();
        let probes = Probes { rows, spans };
        write_trace("probes", &probes.spans, opts)?;
        Ok(probes)
    }

    /// A probe's figure by metric name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// The `probes` section of `result.json`.
    fn to_json(&self, spec: &Spec) -> JsonValue {
        let rows = self.rows.iter().map(|(name, value, n)| {
            let unit = spec.per_layer.iter().find(|m| m.name == *name);
            let row = JsonValue::obj(vec![
                ("value", (*value).into()),
                ("unit", unit.map_or("", |m| m.unit.as_str()).into()),
                ("n", (*n).into()),
            ]);
            (name.clone(), row)
        });
        JsonValue::Obj(rows.collect())
    }
}

/// Everything gathered about one workload in one invocation.
#[derive(Default)]
pub struct Acc {
    /// Seconds per zero-event `run_experiment` call.
    setup: Vec<f64>,
    /// What each timed, untraced run child printed.
    runs: Vec<JsonValue>,
    /// The same from the workload's twin, run for run (empty where the
    /// workload has none).
    twins: Vec<JsonValue>,
    /// Children started, and how many of them died, did not complete
    /// their job or failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Every check made, by children and by the parent.
    checks: Vec<JsonValue>,
    /// Per-layer values from the traced pass.
    layers: Vec<(String, f64)>,
    /// Harness spans from the traced pass.
    spans: Vec<JsonValue>,
}

impl Acc {
    /// Book a check made here in the parent.
    fn book(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(check(name, ok, detail));
        if !ok {
            self.failed += 1;
        }
    }

    /// Start one child, wait for it and book the checks it made.
    /// `None` if it died.
    fn child(
        &mut self,
        mode: &str,
        workload: &str,
        opts: RunOpts,
        flags: &[&str],
    ) -> Option<JsonValue> {
        self.attempted += 1;
        let flags = [&["--workload", workload], flags].concat();
        match spawn(mode, opts, &flags) {
            Ok(doc) => {
                let checks = doc
                    .get("checks")
                    .and_then(JsonValue::as_arr)
                    .unwrap_or_default();
                if !checks.iter().all(passed) {
                    self.failed += 1;
                }
                self.checks.extend(checks.iter().cloned());
                Some(doc)
            }
            Err(e) => {
                self.book("child_exit", false, e);
                None
            }
        }
    }

    /// Add one group of set-up samples, measured in a child of its own.
    /// Called before the first timed run and after each one, so that
    /// the groups are seconds apart and the figure does not hang on what
    /// the host was doing in one tenth of a second.
    pub fn measure_setup(&mut self, workload: &str, opts: RunOpts) {
        if let Some(doc) = self.child("setup", workload, opts, &[]) {
            let samples = doc
                .get("samples")
                .and_then(JsonValue::as_arr)
                .unwrap_or_default();
            self.setup
                .extend(samples.iter().filter_map(JsonValue::as_num));
        }
    }

    /// One timed, untraced run.
    pub fn timed_run(&mut self, workload: &str, opts: RunOpts) {
        if let Some(doc) = self.child("run", workload, opts, &[]) {
            self.runs.push(doc);
        }
    }

    /// Timed runs until they have measured `seconds`, and at least
    /// [`MIN_REPEATS`] of them, with a group of set-up samples before the
    /// first and after each. Every run counts as long as the fastest so
    /// far: a slow quarter of an hour must not buy itself fewer repeats,
    /// which is when the fastest of them needs more.
    pub fn timed_runs_for(&mut self, workload: &str, opts: RunOpts, seconds: f64) {
        self.measure_setup(workload, opts);
        for started in 0..MAX_REPEATS {
            let measured = started as f64 * self.figure("wall_s");
            if started >= MIN_REPEATS && measured >= seconds {
                break;
            }
            self.timed_run(workload, opts);
            self.measure_setup(workload, opts);
            // A child that died is not retried for the rest of the budget.
            if self.runs.len() <= started {
                break;
            }
        }
    }

    /// Samples of an end-to-end metric over the timed runs.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        if metric == "setup_s" {
            return self.setup.clone();
        }
        self.runs
            .iter()
            .filter_map(|r| num(r, &["run", metric]))
            .collect()
    }

    /// The figure reported for an end-to-end metric.
    pub fn figure(&self, metric: &str) -> f64 {
        fold_of(metric).of(&self.samples(metric))
    }

    /// Repeats of one seed must be the same simulation: same makespan,
    /// window plan, per-rank steal statistics and config fingerprint.
    fn check_repeats_identical(&mut self) {
        let ids: Vec<String> = self
            .runs
            .iter()
            .map(|r| format!("{:?} {:?}", r.get("identity"), r.get("fingerprint")))
            .collect();
        let same = ids.windows(2).all(|w| w[0] == w[1]);
        self.book(
            "repeats_identical",
            same,
            format!("{} repeats: {:?}", ids.len(), ids.first()),
        );
    }

    fn identity(&self) -> Option<&JsonValue> {
        self.runs.first().and_then(|r| r.get("identity"))
    }

    /// Run the workload's twin once for every timed run there has been,
    /// so both sides of a twin ratio are the same fold of as many runs.
    pub fn run_twins(&mut self, workload: &str, opts: RunOpts) {
        for _ in 0..self.runs.len() {
            if let Some(doc) = self.child("run", workload, opts, &["--twin"]) {
                self.twins.push(doc);
            }
        }
    }

    /// Use the timed runs of `plain` as the twins: in a full run the
    /// twin of `steal_storm_2t` is the workload `steal_storm`.
    pub fn take_twins_from(&mut self, plain: &[JsonValue]) {
        self.twins = plain.to_vec();
    }

    /// The traced pass: one profiled run with harness spans, then the
    /// per-layer figures that need the untraced figures, the twins and
    /// the probes. Call after the timed runs and the twins.
    pub fn traced_pass(&mut self, workload: &str, opts: RunOpts, probes: &Probes) {
        let wall_s = self.figure("wall_s");
        let setup_s = self.figure("setup_s");
        let mut layers: Vec<(String, f64)> = Vec::new();

        if let Some(traced) = self.child("run", workload, opts, &["--traced"]) {
            if let Some(JsonValue::Obj(pairs)) = traced.get("layers") {
                layers.extend(
                    pairs
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_num()?))),
                );
            }
            let get = |k: &str| num(&traced, &["layers", k]).unwrap_or(0.0);
            let child_ns = probes.value("uts.child_ns").unwrap_or(0.0);
            // Tree expansion is the work no simulator change removes.
            let nodes_s = get("uts.nodes") * child_ns / 1e9;
            layers.push(("uts.floor_share".into(), nodes_s / wall_s));
            layers.push(("engine.events_per_s".into(), get("engine.events") / wall_s));
            layers.push((
                "scheduler.overhead_ns_per_event".into(),
                (wall_s - setup_s - nodes_s) * 1e9 / get("engine.events"),
            ));
            layers.push((
                "runner.postrun_ms".into(),
                get("runner.call_ms") - setup_s * 1e3 - get("runner.profiled_wall_ms"),
            ));
            layers.push((
                "trace.overhead_ratio".into(),
                num(&traced, &["run", "wall_s"]).unwrap_or(0.0) / wall_s,
            ));
            self.spans = traced
                .get("spans")
                .and_then(JsonValue::as_arr)
                .unwrap_or_default()
                .to_vec();
            self.book(
                "traced_identical",
                traced.get("identity") == self.identity(),
                format!("traced {:?}", traced.get("identity")),
            );
        }

        // The twin is the same simulation by the plainer route. Figures
        // only one workload has are 0 on the others.
        if has_twin(workload) {
            let ids: Vec<_> = self.twins.iter().map(|t| t.get("identity")).collect();
            self.book(
                "twin_identical",
                !ids.is_empty() && ids.iter().all(|id| *id == self.identity()),
                format!("{} twins: {:?}", ids.len(), ids.first()),
            );
        }
        let (speedup_2t, recording_overhead) = match workload {
            "steal_storm_2t" => (
                fastest_ratio(&self.twins, &self.runs, &["run", "wall_s"]),
                0.0,
            ),
            "observed_faulty" => (
                0.0,
                fastest_ratio(&self.runs, &self.twins, &["layers", "runner.call_ms"]),
            ),
            _ => (0.0, 0.0),
        };
        layers.push(("engine.speedup_2t".into(), speedup_2t));
        layers.push((
            "metrics.recording_overhead_ratio".into(),
            recording_overhead,
        ));
        self.layers = layers;
    }

    /// Per-layer value by name.
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Close the books: check the repeats against each other, print
    /// every failed check to stderr, and say whether everything held.
    pub fn finish(&mut self, workload: &str) -> bool {
        self.check_repeats_identical();
        for c in self.checks.iter().filter(|c| !passed(c)) {
            eprintln!("CHECK FAILED [{workload}] {c}");
        }
        self.failed == 0 && !self.runs.is_empty()
    }

    /// Write the harness spans to `trace.<workload>.json`.
    pub fn write_trace(&self, workload: &str, opts: RunOpts) -> Result<(), String> {
        write_trace(workload, &self.spans, opts)
    }

    /// This workload's section of `result.json`.
    fn to_json(&self, spec: &Spec, why: &str, correct: bool) -> JsonValue {
        let end_to_end = spec
            .end_to_end
            .iter()
            .map(|m| {
                let s = self.samples(&m.name);
                let fold = fold_of(&m.name);
                (
                    m.name.clone(),
                    JsonValue::obj(vec![
                        ("value", fold.of(&s).into()),
                        ("fold", format!("{fold:?}").into()),
                        ("spread", fold.spread(&s).into()),
                        ("median", median(&s).into()),
                        ("min", stats::min(&s).into()),
                        ("max", stats::max(&s).into()),
                        ("n", s.len().into()),
                        ("unit", m.unit.as_str().into()),
                        (
                            "samples",
                            JsonValue::Arr(s.iter().map(|&v| v.into()).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let per_layer = spec
            .per_layer
            .iter()
            .filter_map(|m| {
                let row = JsonValue::obj(vec![
                    ("value", self.layer(&m.name)?.into()),
                    ("unit", m.unit.as_str().into()),
                ]);
                Some((m.name.clone(), row))
            })
            .collect();
        JsonValue::obj(vec![
            ("why", why.into()),
            ("correct", correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("end_to_end", JsonValue::Obj(end_to_end)),
            ("per_layer", JsonValue::Obj(per_layer)),
            ("checks", JsonValue::Arr(self.checks.clone())),
        ])
    }
}

/// Write harness spans to `trace.<name>.json`.
fn write_trace(name: &str, spans: &[JsonValue], opts: RunOpts) -> Result<(), String> {
    let doc = JsonValue::obj(vec![
        ("workload", name.into()),
        ("spans", JsonValue::Arr(spans.to_vec())),
    ]);
    write_out(opts, &format!("trace.{name}.json"), &doc)
}

fn write_out(opts: RunOpts, file: &str, doc: &JsonValue) -> Result<(), String> {
    let dir = opts.out_dir();
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/{file}");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))
}

/// The contract's single-workload run: measure for `seconds`, print
/// every end-to-end metric (`trace` off) or every per-layer metric
/// (`trace` on) by name with its unit, then the result object as the
/// last line. Returns whether the outputs were correct.
pub fn run_one(
    spec: &Spec,
    workload: &str,
    opts: RunOpts,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    let mut acc = Acc::default();
    let mut probes = None;
    let which = if trace {
        // The traced pass is held against the fewest untraced runs.
        acc.timed_runs_for(workload, opts, 0.0);
        if has_twin(workload) {
            acc.run_twins(workload, opts);
        }
        let probes = probes.insert(Probes::measure(opts)?);
        acc.traced_pass(workload, opts, probes);
        acc.write_trace(workload, opts)?;
        &spec.per_layer
    } else {
        acc.timed_runs_for(workload, opts, seconds);
        &spec.end_to_end
    };
    let correct = acc.finish(workload);
    let mut metrics = Vec::new();
    for m in which {
        let value = match &probes {
            Some(probes) => acc.layer(&m.name).or_else(|| probes.value(&m.name)),
            None => Some(acc.figure(&m.name)),
        }
        .filter(|v| v.is_finite())
        .ok_or(format!("{workload}: metric {} was not produced", m.name))?;
        println!("{:40} {:>16.6} {}", m.name, value, m.unit);
        metrics.push((
            m.name.clone(),
            JsonValue::obj(vec![
                ("value", value.into()),
                ("unit", m.unit.as_str().into()),
            ]),
        ));
    }
    println!(
        "{}",
        JsonValue::obj(vec![
            ("correct", correct.into()),
            ("attempted", acc.attempted.into()),
            ("failed", acc.failed.into()),
            ("metrics", JsonValue::Obj(metrics)),
        ])
    );
    Ok(correct)
}

/// `rustc -V`, or `unknown`.
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The whole benchmark in one go: every workload [`FULL_RUN_REPEATS`]
/// times (once in a smoke run) in alternating order, so drift falls on
/// all alike, then the twins, the probes and a traced pass each; prints
/// every metric, writes `result.json` and the trace files. Returns
/// whether every check passed.
pub fn run_all(spec: &Spec, opts: RunOpts) -> Result<bool, String> {
    let repeats = if opts.smoke { 1 } else { FULL_RUN_REPEATS };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut accs: Vec<Acc> = names.iter().map(|_| Acc::default()).collect();
    for (acc, name) in accs.iter_mut().zip(&names) {
        acc.measure_setup(name, opts);
    }
    for round in 0..repeats {
        let mut order: Vec<usize> = (0..names.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            eprintln!("[round {}/{repeats}] {}", round + 1, names[i]);
            accs[i].timed_run(names[i], opts);
            accs[i].measure_setup(names[i], opts);
        }
    }
    eprintln!("[probes]");
    let probes = Probes::measure(opts)?;
    let storm_runs = names
        .iter()
        .position(|n| *n == "steal_storm")
        .map_or(Vec::new(), |at| accs[at].runs.clone());
    for (acc, name) in accs.iter_mut().zip(&names) {
        eprintln!("[traced pass] {name}");
        if *name == "steal_storm_2t" {
            acc.take_twins_from(&storm_runs);
        } else if has_twin(name) {
            acc.run_twins(name, opts);
        }
        acc.traced_pass(name, opts, &probes);
        acc.write_trace(name, opts)?;
    }

    let nproc = procfs::nproc();
    let rev = perflab::git_rev();
    let dirty = rev.ends_with("-dirty") || rev == "unknown";
    let mut all_correct = true;
    let mut sections = Vec::new();
    for ((acc, w), name) in accs.iter_mut().zip(&WORKLOADS).zip(&names) {
        let correct = acc.finish(name);
        all_correct &= correct;
        let mut section = acc.to_json(spec, w.why, correct);
        if *name == "steal_storm_2t" && nproc < 2 {
            if let JsonValue::Obj(pairs) = &mut section {
                pairs.push(("insufficient_cores".into(), true.into()));
            }
        }
        sections.push((name.to_string(), section));
    }
    println!("{:<34} {:<16} {:>14}  unit", "metric", "workload", "value");
    for m in &spec.end_to_end {
        for (acc, name) in accs.iter().zip(&names) {
            let s = acc.samples(&m.name);
            println!(
                "{:<34} {:<16} {:>14.6}  {} ({:?} of n={}: median {:.6}, min {:.6}, max {:.6})",
                m.name,
                name,
                acc.figure(&m.name),
                m.unit,
                fold_of(&m.name),
                s.len(),
                median(&s),
                stats::min(&s),
                stats::max(&s),
            );
        }
    }
    let (attempted, failed) = accs
        .iter()
        .fold((0, 0), |(a, f), acc| (a + acc.attempted, f + acc.failed));
    println!(
        "{:<34} {:<16} {:>14}  {failed} of {attempted} runs",
        "failed_runs", "all", failed
    );
    for m in &spec.per_layer {
        if let Some(value) = probes.value(&m.name) {
            println!(
                "{:<34} {:<16} {:>14.4}  {}",
                m.name, "(probe)", value, m.unit
            );
            continue;
        }
        for (acc, name) in accs.iter().zip(&names) {
            let value = acc
                .layer(&m.name)
                .ok_or(format!("{name}: metric {} was not produced", m.name))?;
            println!("{:<34} {:<16} {:>14.4}  {}", m.name, name, value, m.unit);
        }
    }

    let doc = JsonValue::obj(vec![
        ("schema", 1u64.into()),
        ("seed", opts.seed.to_string().into()),
        ("smoke", opts.smoke.into()),
        ("repeats", repeats.into()),
        (
            "host",
            JsonValue::obj(vec![
                ("nproc", nproc.into()),
                ("cpu_model", procfs::cpu_model().into()),
                ("rustc", rustc_version().into()),
                ("git_rev", rev.as_str().into()),
                ("dirty", dirty.into()),
            ]),
        ),
        (
            "failed_runs",
            (failed as f64 / attempted.max(1) as f64).into(),
        ),
        ("attempted", attempted.into()),
        ("probes", probes.to_json(spec)),
        ("workloads", JsonValue::Obj(sections)),
    ]);
    write_out(opts, "result.json", &doc)?;
    println!("[result written to {}/result.json]", opts.out_dir());
    if dirty {
        println!(
            "[git rev {rev}: the tree is not a clean commit, so this result is marked dirty \
             and is no baseline]"
        );
    }
    Ok(all_correct)
}
