//! What one child process does: exactly one job (or one round of
//! set-up samples), so that peak RSS, CPU time and the allocation count
//! it reports belong to that job alone.

use crate::procfs;
use crate::spans::{self, Tracer};
use crate::workloads::{self, Variant};
use dws::core::{run_experiment, run_experiment_streamed, ExperimentResult, StreamingSetup};
use dws::metrics::perflab::ProfileReport;
use dws::metrics::{perflab, JsonValue};
use dws::simnet::{allocation_count, StreamingCfg};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timed `run_experiment` calls per set-up measurement.
const SETUP_SAMPLES: usize = 15;

/// How long the set-up child repeats the call untimed before sampling.
/// A process fresh from `exec` runs at about half speed on this class
/// of host for its first tenths of a second, which is all the time 15
/// calls of a few milliseconds take.
const SETUP_WARM_UP: Duration = Duration::from_millis(300);

/// Seconds per zero-event `run_experiment` call: placement, victim
/// tables, workers and engine construction, no event processed.
pub fn setup_samples(name: &str, seed: u64, smoke: bool) -> JsonValue {
    let mut cfg = workloads::job(name, seed, smoke, Variant::Main)
        .expect("the parent passes a known workload")
        .cfg;
    cfg.max_events = Some(0);
    let call = || {
        let t0 = Instant::now();
        std::hint::black_box(run_experiment(&cfg));
        t0.elapsed()
    };
    let mut warm = call();
    while warm < SETUP_WARM_UP {
        warm += call();
    }
    let samples = (0..SETUP_SAMPLES)
        .map(|_| call().as_secs_f64().into())
        .collect();
    JsonValue::obj(vec![("samples", JsonValue::Arr(samples))])
}

/// Snapshot sink that stays in memory and can be read back after the
/// run has consumed its boxed clone.
#[derive(Clone, Default)]
struct MemorySink(Arc<Mutex<Vec<u8>>>);

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("sink lock is never held across a panic")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A named pass/fail with what was seen.
pub fn check(name: &str, ok: bool, detail: String) -> JsonValue {
    JsonValue::obj(vec![
        ("name", name.into()),
        ("ok", ok.into()),
        ("detail", detail.into()),
    ])
}

/// Time the set-up layers the runner calls (`Job::place`, victim
/// `prepare` + `build` for every rank) from outside, as the runner
/// calls them. Returns `(topology.place_ms, victim.build_ms)`.
fn time_setup_layers(tracer: &mut Tracer, cfg: &dws::core::ExperimentConfig) -> (f64, f64) {
    let (job, place_ms) = tracer.time("Job::place", || workloads::place(cfg));
    let build = tracer.enter("victim.build");
    let (ctx, _) = tracer.time("VictimPolicy::prepare", || cfg.victim.prepare(&job));
    let (selectors, _) = tracer.time("VictimPolicy::build", || {
        (0..job.n_ranks())
            .map(|me| cfg.victim.build(&job, me, &ctx))
            .collect::<Vec<_>>()
    });
    std::hint::black_box(&selectors);
    let build_ms = tracer.exit(build);
    (place_ms, build_ms)
}

/// Sum of `total_ns` and of `calls` over the profile phases named `name`.
fn phase(profile: &ProfileReport, name: &str) -> (u64, u64) {
    profile
        .phases
        .iter()
        .filter(|(n, _, _)| n == name)
        .fold((0, 0), |(calls, ns), (_, c, t)| (calls + c, ns + t))
}

/// Per-layer numbers the program's own profiler reports for this run.
fn profile_layers(p: &ProfileReport, threads: u32) -> Vec<(&'static str, f64)> {
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let (_, dispatch_ns) = phase(p, "dispatch");
    let (fault_calls, fault_ns) = phase(p, "fault_eval");
    let (draws, _) = phase(p, "victim_draw");
    let (_, barrier_ns) = phase(p, "barrier_wait");
    let (_, exchange_ns) = phase(p, "exchange");
    let busy: Vec<f64> = p.shards.iter().map(|s| s.4 as f64).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let imbalance = if mean_busy > 0.0 {
        busy.iter().copied().fold(0.0, f64::max) / mean_busy
    } else {
        0.0
    };
    vec![
        ("engine.dispatch_ns_per_event", per(dispatch_ns, p.events)),
        // Phase totals add up over worker threads.
        (
            "engine.barrier_wait_share",
            barrier_ns as f64 / (p.wall_ns.max(1) as f64 * f64::from(threads)),
        ),
        ("engine.exchange_ms", exchange_ns as f64 / 1e6),
        ("engine.shard_busy_imbalance", imbalance),
        ("victim.draws", draws as f64),
        ("fault.evals", fault_calls as f64),
        ("fault.eval_ns_per_call", per(fault_ns, fault_calls)),
    ]
}

/// Counts the run reports whether profiled or not.
fn run_layers(r: &ExperimentResult, snapshots: usize) -> Vec<(&'static str, f64)> {
    let total = r.stats.total();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("uts.nodes", r.total_nodes as f64),
        ("network.messages", r.report.messages as f64),
        ("engine.events", r.report.events as f64),
        ("engine.windows", r.window_plan.1 as f64),
        (
            "engine.events_per_window",
            ratio(r.report.events, r.window_plan.1),
        ),
        ("engine.shard_rebalances", r.engine_steals as f64),
        ("scheduler.steals_ok", total.steals_ok as f64),
        ("scheduler.steals_failed", total.steals_failed as f64),
        ("scheduler.sessions", total.sessions as f64),
        ("scheduler.timeouts", total.steal_timeouts as f64),
        ("scheduler.retransmits", total.retransmits as f64),
        (
            "victim.failed_steal_ratio",
            ratio(total.steals_failed, total.steal_attempts),
        ),
        (
            "fault.dropped",
            r.fault.as_ref().map_or(0.0, |f| f.stats.dropped as f64),
        ),
        (
            "metrics.spans",
            r.spans.as_ref().map_or(0.0, |s| s.records().len() as f64),
        ),
        ("metrics.snapshots", snapshots as f64),
    ]
}

/// Run the job once and report what was measured, what was counted and
/// what was checked, as one JSON object.
pub fn run(name: &str, seed: u64, smoke: bool, variant: Variant, traced: bool) -> JsonValue {
    let job =
        workloads::job(name, seed, smoke, variant).expect("the parent passes a known workload");
    let mut cfg = job.cfg;
    cfg.profile = traced;
    let observed = cfg.collect_spans;
    let mut tracer = Tracer::new(traced);
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    if traced {
        let (place_ms, build_ms) = time_setup_layers(&mut tracer, &cfg);
        layers.push(("topology.place_ms", place_ms));
        layers.push(("victim.build_ms", build_ms));
    }

    let sink = MemorySink::default();
    let streaming = job.streamed.then(|| StreamingSetup {
        cfg: StreamingCfg::default(),
        sink: Some(Box::new(sink.clone())),
    });
    let (cpu0, allocs0, t0) = (procfs::cpu_s(), allocation_count(), Instant::now());
    let call = tracer.enter("run_experiment_streamed");
    let r = run_experiment_streamed(&cfg, streaming);
    if let Some(p) = &r.profile {
        tracer.attr(&call, "profile", p.to_json());
    }
    let call_ms = tracer.exit(call);
    // What a user of an observed run asks for next is part of its cost.
    let mut rendered: Vec<u8> = Vec::new();
    let (mut blame, mut blame_ms, mut json_ms) = (None, 0.0, 0.0);
    if observed {
        (blame, blame_ms) = tracer.time("blame_report", || r.blame_report());
        json_ms = tracer
            .time("json_report", || {
                write!(rendered, "{}", r.json_report()).expect("writing to a Vec cannot fail")
            })
            .1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_s() - cpu0;
    let allocs = allocation_count() - allocs0;
    let peak_rss_mb = procfs::peak_rss_mb();

    let snapshots = sink
        .0
        .lock()
        .expect("the run has ended")
        .iter()
        .filter(|&&b| b == b'\n')
        .count();
    layers.extend(run_layers(&r, snapshots));
    layers.push(("runner.call_ms", call_ms));
    if traced {
        let (occ, occupancy_ms) = tracer.time("occupancy", || r.occupancy());
        let (hist, histograms_ms) = tracer.time("latency_histograms", || r.latency_histograms());
        layers.push(("metrics.occupancy_ms", occ.map_or(0.0, |_| occupancy_ms)));
        layers.push(("metrics.histograms_ms", hist.map_or(0.0, |_| histograms_ms)));
        layers.push(("metrics.blame_ms", blame_ms));
        layers.push(("metrics.json_report_ms", json_ms));
        let p = r.profile.as_ref().expect("profile was requested");
        layers.extend(profile_layers(p, cfg.threads));
        layers.push(("runner.profiled_wall_ms", p.wall_ns as f64 / 1e6));
    }

    let mut checks = vec![
        check(
            "completed",
            r.completed,
            format!("completed = {}", r.completed),
        ),
        check(
            "total_nodes",
            r.total_nodes == job.expect_nodes,
            format!(
                "{} nodes, the preset has {}",
                r.total_nodes, job.expect_nodes
            ),
        ),
    ];
    let fault_evals = r.profile.as_ref().map_or(0, |p| phase(p, "fault_eval").0);
    let recorded = r.spans.is_some() || r.fault.is_some() || snapshots > 0 || fault_evals > 0;
    if name == "observed_faulty" {
        let dropped = r.fault.as_ref().map_or(0, |f| f.stats.dropped);
        checks.push(check(
            "fault_path_ran",
            dropped > 0,
            format!("{dropped} messages dropped"),
        ));
    } else {
        checks.push(check(
            "recorders_quiet",
            !recorded,
            format!("spans, fault report, fault evaluations or snapshots present = {recorded}"),
        ));
    }
    if observed {
        let spans = r.spans.as_ref().expect("collect_spans was set");
        let reconcile = spans.reconcile(&r.stats);
        checks.push(check(
            "spans_reconcile",
            reconcile.is_ok(),
            reconcile
                .err()
                .unwrap_or_else(|| "spans match the counters".into()),
        ));
        let sums = blame.map(|b| b.check());
        checks.push(check(
            "blame_sums_to_makespan",
            matches!(sums, Some(Ok(()))),
            format!("{sums:?}"),
        ));
        checks.push(check(
            "snapshots_streamed",
            snapshots > 0 && !rendered.is_empty(),
            format!("{snapshots} snapshots, {} report bytes", rendered.len()),
        ));
    }

    let mut stats_text = String::new();
    for s in &r.stats.per_rank {
        use std::fmt::Write as _;
        write!(stats_text, "{s:?}").expect("writing to a String cannot fail");
    }
    let num_map = |pairs: Vec<(&'static str, f64)>| {
        JsonValue::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into()))
                .collect(),
        )
    };
    JsonValue::obj(vec![
        (
            "run",
            num_map(vec![
                ("wall_s", wall_s),
                ("cpu_s", cpu_s),
                ("peak_rss_mb", peak_rss_mb),
                (
                    "allocs_per_event",
                    allocs as f64 / r.report.events.max(1) as f64,
                ),
                ("sim_makespan_ms", r.makespan.ns() as f64 / 1e6),
            ]),
        ),
        // What must not differ between repeats, thread counts or twins.
        (
            "identity",
            format!(
                "makespan_ns={} window_plan={:016x}/{} stats={}",
                r.makespan.ns(),
                r.window_plan.0,
                r.window_plan.1,
                perflab::fingerprint(&stats_text)
            )
            .into(),
        ),
        ("fingerprint", r.fingerprint.as_str().into()),
        ("layers", num_map(layers)),
        ("checks", JsonValue::Arr(checks)),
        (
            "spans",
            JsonValue::Arr(spans::to_json(tracer.spans(), name, "traced_run")),
        ),
    ])
}
