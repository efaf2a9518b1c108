//! End-to-end checks of the streaming-telemetry subsystem: the occupancy
//! fold fed live at window barriers must agree field by field with the
//! same fold run over the retained activity trace, across seeds, fault
//! plans, and thread counts; attaching streaming must leave the
//! schedule — and the machine-readable report — byte-identical; and an
//! induced budget abort must leave behind a well-formed flight dump.

use dws::core::{
    run_experiment, run_experiment_streamed, ExperimentConfig, StealAmount, StreamingSetup,
    VictimPolicy,
};
use dws::metrics::export::parse;
use dws::metrics::Snapshot;
use dws::simnet::{FaultPlan, StreamingCfg};
use dws::uts::presets;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A snapshot sink whose bytes stay reachable after the run consumed
/// the boxed writer.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedSink {
    fn lines(&self) -> Vec<String> {
        String::from_utf8(self.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }
}

fn base_config(seed: u64, threads: u32, fault: FaultPlan) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_xs(), 16)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.jitter = 0.2;
    cfg.collect_spans = true;
    cfg.fault_plan = fault;
    cfg
}

fn streamed(sink: &SharedSink, every_ns: u64) -> Option<StreamingSetup> {
    Some(StreamingSetup {
        cfg: StreamingCfg {
            snapshot_every_sim_ns: every_ns,
            ..StreamingCfg::default()
        },
        sink: Some(Box::new(sink.clone())),
    })
}

/// Across seeds × fault plans × thread counts, the occupancy folded
/// live at window barriers (O(ranks) memory, no retained log) must
/// equal, field by field, the fold over the run's retained activity
/// trace.
#[test]
fn online_aggregates_match_posthoc_across_seeds_faults_threads() {
    let plans = [
        ("clean", FaultPlan::default()),
        ("faulty", FaultPlan::message_faults(0.05, 0.02, 0.05)),
    ];
    for seed in [1u64, 2] {
        for (plan_name, plan) in &plans {
            for threads in [1u32, 2, 8] {
                let tag = format!("seed={seed} plan={plan_name} threads={threads}");
                let sink = SharedSink::default();
                let r = run_experiment_streamed(
                    &base_config(seed, threads, plan.clone()),
                    streamed(&sink, 50_000),
                );
                assert!(r.completed, "{tag}: run must complete");
                assert!(!sink.lines().is_empty(), "{tag}: snapshots emitted");

                // Occupancy: the live fold vs the fold over the trace.
                let live = r.online_occupancy.as_ref().expect("streamed run");
                assert!(r.trace.is_some(), "{tag}: trace collected");
                let traced = r.occupancy().expect("traced run");
                assert!(live.steps().is_none() && traced.steps().is_some());
                assert_eq!(live.n_ranks(), traced.n_ranks(), "{tag}: ranks");
                assert_eq!(live.total_ns(), traced.total_ns(), "{tag}: run length");
                assert_eq!(
                    live.busy_ns_per_rank(),
                    traced.busy_ns_per_rank(),
                    "{tag}: busy time per rank"
                );
                assert_eq!(live.w_max(), traced.w_max(), "{tag}: w_max");
                assert_eq!(
                    live.busy_integral_ns(),
                    traced.busy_integral_ns(),
                    "{tag}: busy integral"
                );
                for p in 1..=100 {
                    let x = f64::from(p) / 100.0;
                    assert_eq!(
                        (live.first_reach_ns(x), live.last_reach_ns(x)),
                        (traced.first_reach_ns(x), traced.last_reach_ns(x)),
                        "{tag}: first/last reach at {p}%"
                    );
                }
            }
        }
    }
}

/// Snapshot streams from the same configuration must agree on every
/// schedule-derived field at every emission point regardless of thread
/// count (wall-clock fields are observational and may differ).
#[test]
fn snapshot_cadence_is_thread_count_invariant() {
    let mut streams: Vec<Vec<Snapshot>> = Vec::new();
    for threads in [1u32, 2, 8] {
        let sink = SharedSink::default();
        let r = run_experiment_streamed(
            &base_config(7, threads, FaultPlan::default()),
            streamed(&sink, 100_000),
        );
        assert!(r.completed);
        let snaps: Vec<Snapshot> = sink
            .lines()
            .iter()
            .map(|l| Snapshot::from_json(&parse(l).expect("valid JSON")).expect("valid snapshot"))
            .collect();
        assert!(!snaps.is_empty());
        streams.push(snaps);
    }
    for other in &streams[1..] {
        assert_eq!(streams[0].len(), other.len(), "same number of snapshots");
        for (a, b) in streams[0].iter().zip(other.iter()) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.events, b.events, "seq {}", a.seq);
            assert_eq!(a.steals_ok, b.steals_ok, "seq {}", a.seq);
            assert_eq!(a.steals_empty, b.steals_empty, "seq {}", a.seq);
            assert_eq!(a.ready_chunks, b.ready_chunks, "seq {}", a.seq);
            assert_eq!(a.quarantined, b.quarantined, "seq {}", a.seq);
            assert_eq!(a.w_max, b.w_max, "seq {}", a.seq);
            assert_eq!(a.active_workers, b.active_workers, "seq {}", a.seq);
            assert_eq!(a.n_ranks, b.n_ranks, "seq {}", a.seq);
        }
    }
}

/// Attaching streaming must not perturb the schedule: the run report —
/// every simulated metric, histogram, and the config fingerprint — is
/// byte-identical with streaming on or off.
#[test]
fn streaming_off_is_schedule_and_byte_identical() {
    let plain = run_experiment(&base_config(42, 2, FaultPlan::default()));
    let sink = SharedSink::default();
    let streamed_run = run_experiment_streamed(
        &base_config(42, 2, FaultPlan::default()),
        streamed(&sink, 50_000),
    );
    assert!(!sink.lines().is_empty(), "snapshots were actually emitted");
    assert_eq!(plain.report, streamed_run.report, "engine-level schedule");
    assert_eq!(
        plain.json_report().to_string(),
        streamed_run.json_report().to_string(),
        "machine-readable report must be byte-identical"
    );
    // Without a trace the report's occupancy section comes from the
    // live fold, and reads the same.
    let mut untraced = base_config(42, 2, FaultPlan::default());
    untraced.collect_trace = false;
    let live_run = run_experiment_streamed(&untraced, streamed(&SharedSink::default(), 50_000));
    assert!(live_run.trace.is_none());
    let occupancy = |r: &dws::core::ExperimentResult| {
        r.json_report()
            .get("occupancy")
            .map(|o| o.to_string())
            .expect("occupancy section")
    };
    assert_eq!(occupancy(&live_run), occupancy(&plain));
}

/// An induced budget abort must halt the run and leave a well-formed
/// flight dump: a header line, the final snapshot, and the retained
/// ring events, all parseable JSONL.
#[test]
fn induced_abort_writes_a_valid_flight_dump() {
    let dir = std::env::temp_dir().join("dws_streaming_abort_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flight.jsonl");
    let _ = std::fs::remove_file(&path);
    let sink = SharedSink::default();
    let setup = StreamingSetup {
        cfg: StreamingCfg {
            snapshot_every_sim_ns: 50_000,
            flight_ring: 256,
            flight_dump_path: Some(path.clone()),
            wall_budget: Some(std::time::Duration::ZERO),
            ..StreamingCfg::default()
        },
        sink: Some(Box::new(sink.clone())),
    };
    let r = run_experiment_streamed(&base_config(3, 2, FaultPlan::default()), Some(setup));
    assert!(!r.completed, "zero wall budget must abort the run");
    assert!(r.report.halted, "abort reports as a halted run");

    let text = std::fs::read_to_string(&path).expect("flight dump written");
    let mut lines = text.lines();
    let header = parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        header.get("kind").and_then(|v| v.as_str()),
        Some("flight_dump")
    );
    assert_eq!(
        header.get("reason").and_then(|v| v.as_str()),
        Some("wall_budget")
    );
    let recorded = header
        .get("events_recorded")
        .and_then(|v| v.as_u64())
        .expect("events_recorded");
    assert!(recorded > 0, "startup sends reach the ring before abort");
    let snap_line = lines.next().expect("snapshot line");
    let snap = Snapshot::from_json(&parse(snap_line).expect("snapshot parses"))
        .expect("valid final snapshot");
    assert_eq!(snap.n_ranks, 16);
    let mut event_lines = 0usize;
    for line in lines {
        let doc = parse(line).expect("event line parses");
        assert!(doc.get("kind").and_then(|v| v.as_str()).is_some());
        assert!(doc.get("at_ns").and_then(|v| v.as_u64()).is_some());
        event_lines += 1;
    }
    assert!(event_lines > 0, "ring events dumped");
    let _ = std::fs::remove_file(&path);
}

/// Snapshot `queue_depth` counts every pending event, wherever the
/// engine holds it: at a snapshot barrier a cross-shard delivery sits
/// either in its destination's queue or, not yet ingested, in an
/// exchange cell, and which of the two depends on thread timing. The
/// top-level sum must be equal at every thread count and the per-shard
/// rows equal across repeated runs at one thread count.
#[test]
fn snapshot_queue_depth_is_thread_invariant() {
    let run = |threads: u32| -> Vec<Snapshot> {
        let mut cfg = ExperimentConfig::new(presets::t3sim_m(), 64);
        cfg.threads = threads;
        let sink = SharedSink::default();
        let r = run_experiment_streamed(&cfg, streamed(&sink, 200_000));
        assert!(r.completed);
        sink.lines()
            .iter()
            .map(|l| Snapshot::from_json(&parse(l).expect("valid JSON")).expect("valid snapshot"))
            .collect()
    };
    let one = run(1);
    for threads in [2u32, 4] {
        let other = run(threads);
        assert_eq!(one.len(), other.len(), "threads={threads}: snapshot count");
        for (a, b) in one.iter().zip(&other) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(
                a.queue_depth, b.queue_depth,
                "threads={threads} seq {}: queue_depth",
                a.seq
            );
        }
    }
    let shard_rows = |snaps: &[Snapshot]| -> Vec<(u64, u32, u64, u64, u64, u64)> {
        snaps
            .iter()
            .flat_map(|s| {
                s.shards
                    .iter()
                    .map(move |r| (s.seq, r.shard, r.now_ns, r.windows, r.events, r.queue_depth))
            })
            .collect()
    };
    let first = shard_rows(&run(2));
    assert!(
        first.iter().any(|r| r.1 > 0),
        "a 2-thread run has 2+ shards"
    );
    for _ in 0..2 {
        assert_eq!(
            first,
            shard_rows(&run(2)),
            "per-shard rows across 2-thread runs"
        );
    }
}
