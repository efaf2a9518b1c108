//! Perf-lab end-to-end checks: the engine self-profiler must not
//! perturb the simulation, bench records must round-trip through the
//! trajectory store, and cross-run diffing must flag real regressions
//! while staying quiet on identical-seed runs.

use dws::core::{run_experiment, ExperimentConfig, ExperimentResult, StealAmount, VictimPolicy};
use dws::metrics::perflab::{
    self, BenchMetric, BenchRecord, Polarity, ProfileReport, Verdict, BENCH_SCHEMA_VERSION,
};
use dws::metrics::write_csv;
use dws::simnet::FaultPlan;
use dws::uts::presets;

fn seeded_config(ranks: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_s(), ranks)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.seed = 0x00D1_57EA;
    cfg
}

/// Render a result the way a figure binary would: a CSV row of its
/// headline numbers, byte-for-byte.
fn figure_csv(r: &ExperimentResult) -> Vec<u8> {
    let totals = r.stats.total();
    let rows = vec![vec![
        r.n_ranks.to_string(),
        r.makespan.ns().to_string(),
        format!("{:.6}", r.perf.speedup()),
        format!("{:.6}", r.perf.efficiency()),
        totals.steals_ok.to_string(),
        totals.steals_failed.to_string(),
    ]];
    let mut out = Vec::new();
    write_csv(
        &mut out,
        &[
            "ranks",
            "makespan_ns",
            "speedup",
            "efficiency",
            "ok",
            "failed",
        ],
        &rows,
    )
    .expect("csv into Vec cannot fail");
    out
}

/// The tentpole guarantee: turning the profiler on must not change the
/// simulated schedule at all. Every simulated quantity — makespan,
/// event/message/timer counts, per-rank steal counters — and the CSV a
/// figure would emit must be bit-identical with the profiler on or off.
#[test]
fn profiler_does_not_perturb_schedule() {
    for ranks in [16, 48] {
        let off = run_experiment(&seeded_config(ranks));
        let mut cfg = seeded_config(ranks);
        cfg.profile = true;
        let on = run_experiment(&cfg);

        assert_eq!(
            off.makespan, on.makespan,
            "makespan drifted at {ranks} ranks"
        );
        assert_eq!(off.total_nodes, on.total_nodes);
        assert_eq!(off.report.events, on.report.events);
        assert_eq!(off.report.messages, on.report.messages);
        assert_eq!(off.report.timers, on.report.timers);
        assert_eq!(
            format!("{:?}", off.stats.per_rank),
            format!("{:?}", on.stats.per_rank),
            "per-rank steal counters drifted at {ranks} ranks"
        );
        assert_eq!(
            figure_csv(&off),
            figure_csv(&on),
            "figure CSV bytes drifted at {ranks} ranks"
        );
        // And the profiled run must actually carry a profile.
        assert!(off.profile.is_none());
        let p = on.profile.as_ref().expect("profiled run has no profile");
        assert!(p.wall_ns > 0);
        assert_eq!(p.events, on.report.events);
        let dispatch = p
            .phases
            .iter()
            .find(|(name, _, _)| name == "dispatch")
            .expect("dispatch phase missing");
        assert!(dispatch.1 > 0, "no dispatch calls timed");
    }
}

/// The per-shard profile adds up: every dispatch and victim draw is
/// counted once, the fault evaluations do not depend on the thread
/// count, the shard rows cover every rank and event once, the
/// barrier-wait phase is the sum of the shards' waits — one ledger —
/// and repeated runs at one thread count make equal exchange calls.
#[test]
fn profile_counts_are_exact_and_thread_invariant() {
    let run = |threads: u32, drop: f64| {
        let mut cfg = seeded_config(32);
        cfg.threads = threads;
        cfg.profile = true;
        if drop > 0.0 {
            cfg.fault_plan = FaultPlan::message_faults(drop, 0.0, 0.0);
        }
        let r = run_experiment(&cfg);
        let p = r.profile.clone().expect("profiled run has no profile");
        (r, p)
    };
    // `(calls, total_ns)` of one phase.
    let phase = |p: &ProfileReport, phase: &str| {
        p.phases
            .iter()
            .find(|(name, _, _)| name == phase)
            .map(|&(_, calls, ns)| (calls, ns))
            .unwrap_or_else(|| panic!("phase {phase} missing"))
    };
    let mut fault_evals = Vec::new();
    for drop in [0.0, 0.01] {
        for threads in [1, 2] {
            let (r, p) = run(threads, drop);
            let at = format!("threads {threads}, drop {drop}");
            let names: Vec<&str> = p.phases.iter().map(|(n, _, _)| n.as_str()).collect();
            assert_eq!(
                names,
                [
                    "dispatch",
                    "fault_eval",
                    "victim_draw",
                    "trace_record",
                    "barrier_wait",
                    "exchange"
                ],
                "{at}"
            );
            // Each event and each rank's start is one dispatch.
            assert_eq!(
                phase(&p, "dispatch").0,
                r.report.events + u64::from(r.n_ranks),
                "{at}"
            );
            if drop == 0.0 {
                assert_eq!(
                    phase(&p, "victim_draw").0,
                    r.stats.total().steal_attempts,
                    "{at}"
                );
                assert_eq!(phase(&p, "fault_eval").0, 0, "{at}");
            } else {
                fault_evals.push(phase(&p, "fault_eval").0);
            }
            let ranks: u32 = p.shards.iter().map(|s| s.1).sum();
            assert_eq!(ranks, r.n_ranks, "{at}");
            let events: u64 = p.shards.iter().map(|s| s.2).sum();
            assert_eq!(events, p.events, "{at}");
            let barrier_ns = phase(&p, "barrier_wait").1;
            let wait_ns: u64 = p.shards.iter().map(|s| s.5).sum();
            assert_eq!(barrier_ns, wait_ns, "{at}");
            if threads == 1 {
                assert_eq!(barrier_ns, 0, "{at}: a lone worker waits at no barrier");
            }
        }
    }
    assert!(fault_evals[0] > 0);
    assert_eq!(fault_evals[0], fault_evals[1]);
    // The exchange cells are double-buffered by window parity, so at a
    // fixed thread count the exchange calls are a schedule count.
    for threads in [2, 3] {
        let exchange = || phase(&run(threads, 0.0).1, "exchange").0;
        let first = exchange();
        assert!(first > 0, "threads {threads}: nothing crossed a shard");
        for _ in 0..2 {
            assert_eq!(exchange(), first, "threads {threads}");
        }
    }
}

/// Profiling must not change the config fingerprint: observability
/// switches are excluded so profiled runs diff as the *same* config.
#[test]
fn fingerprint_ignores_observability_switches() {
    let plain = seeded_config(16);
    let mut profiled = seeded_config(16);
    profiled.profile = true;
    profiled.collect_spans = true;
    assert_eq!(plain.fingerprint(), profiled.fingerprint());
    // ...but real config changes must move it.
    let mut other = seeded_config(16);
    other.seed ^= 1;
    assert_ne!(plain.fingerprint(), other.fingerprint());
}

/// Two runs of the same seed must diff clean: every metric within
/// noise, no regressions, fingerprints equal.
#[test]
fn identical_seed_runs_diff_within_noise() {
    let a = run_experiment(&seeded_config(32));
    let b = run_experiment(&seeded_config(32));
    let ma = perflab::metrics_from_run_report(&a.json_report());
    let mb = perflab::metrics_from_run_report(&b.json_report());
    assert!(!ma.is_empty(), "run report yielded no metrics");
    assert_eq!(a.fingerprint, b.fingerprint);
    let deltas = perflab::compare(&ma, &mb, 0.02);
    assert_eq!(deltas.len(), ma.len());
    for d in &deltas {
        assert_eq!(
            d.verdict,
            Verdict::WithinNoise,
            "metric {} not within noise on identical runs",
            d.name
        );
    }
    assert!(!perflab::any_regression(&deltas));
}

/// A genuinely worse run — steal-half instead of steal-one on a large
/// tree — must register a makespan regression past the noise gate.
#[test]
fn worse_configuration_registers_regression() {
    let mut one = ExperimentConfig::new(presets::t3sim_l(), 32);
    one.seed = 7;
    let mut half = ExperimentConfig::new(presets::t3sim_l(), 32).with_steal(StealAmount::Half);
    half.seed = 7;
    let a = run_experiment(&one);
    let b = run_experiment(&half);
    let deltas = perflab::compare(
        &perflab::metrics_from_run_report(&a.json_report()),
        &perflab::metrics_from_run_report(&b.json_report()),
        0.02,
    );
    let makespan = deltas
        .iter()
        .find(|d| d.name == "makespan_ns")
        .expect("makespan metric missing");
    assert_eq!(makespan.verdict, Verdict::Regression);
    assert!(perflab::any_regression(&deltas));
}

/// BenchRecord → JSON text → parse → BenchRecord must round-trip, and
/// the trajectory store must append and read back in order.
#[test]
fn record_round_trip_and_trajectory_store() {
    let rec = BenchRecord {
        schema: BENCH_SCHEMA_VERSION,
        bench: "roundtrip".to_string(),
        git_rev: "abc1234".to_string(),
        fingerprint: perflab::fingerprint("roundtrip-config"),
        trial_seed: 3,
        unix_time_s: 1_754_000_000,
        trials: 7,
        threads: 2,
        metrics: vec![
            BenchMetric::from_samples("lat", "ns", Polarity::LowerIsBetter, &[10.0, 11.0, 12.0]),
            BenchMetric::point("rate", "1/s", Polarity::HigherIsBetter, 1e6),
        ],
    };
    let text = rec.to_json().to_string();
    assert!(!text.contains('\n'), "record must serialize to one line");
    let back = BenchRecord::from_json(&dws::metrics::export::parse(&text).expect("parse"))
        .expect("round-trip");
    assert_eq!(back.bench, rec.bench);
    assert_eq!(back.fingerprint, rec.fingerprint);
    assert_eq!(back.trial_seed, rec.trial_seed);
    assert_eq!(back.trials, rec.trials);
    assert_eq!(back.threads, rec.threads);
    assert_eq!(back.metrics.len(), 2);
    assert_eq!(back.metrics[0].name, "lat");
    assert!((back.metrics[0].mean - 11.0).abs() < 1e-12);
    assert!(back.metrics[0].ci95 > 0.0);

    let dir = std::env::temp_dir().join(format!("dws_perflab_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("traj.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let mut second = rec.clone();
    second.trial_seed = 4;
    perflab::append_record(path_str, &rec).expect("append 1");
    perflab::append_record(path_str, &second).expect("append 2");
    let all = perflab::read_trajectory(path_str).expect("read back");
    assert_eq!(all.len(), 2);
    assert_eq!(all[0].trial_seed, 3);
    assert_eq!(all[1].trial_seed, 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// The run report's own metrics must survive the JSON round trip the
/// CLI performs: report → text → parse → metrics equals the in-memory
/// extraction.
#[test]
fn run_report_metrics_survive_serialization() {
    let r = run_experiment(&seeded_config(16));
    let doc = r.json_report();
    assert!(perflab::is_run_report(&doc));
    let direct = perflab::metrics_from_run_report(&doc);
    let reparsed =
        dws::metrics::export::parse(&doc.to_string()).expect("report must be valid JSON");
    let via_text = perflab::metrics_from_run_report(&reparsed);
    assert_eq!(direct.len(), via_text.len());
    for (d, t) in direct.iter().zip(&via_text) {
        assert_eq!(d.name, t.name);
        assert!((d.mean - t.mean).abs() <= 1e-9 * d.mean.abs().max(1.0));
    }
    assert_eq!(
        perflab::fingerprint_of_doc(&reparsed).as_deref(),
        Some(r.fingerprint.as_str())
    );
}
