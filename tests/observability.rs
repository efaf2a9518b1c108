//! End-to-end checks of the observability subsystem: span/counter
//! reconciliation, Chrome trace well-formedness, the machine-readable
//! run report, and the zero-overhead guarantee when tracing is off.

mod common;

use common::five_record_form;
use dws::core::{
    run_experiment, run_experiment_streamed, ExperimentConfig, ExperimentResult, StealAmount,
    StreamingSetup, VictimPolicy,
};
use dws::metrics::export::{link_matrix_json, parse, write_chrome_trace};
use dws::metrics::{CriticalPath, JsonValue};
use dws::simnet::{Crash, FaultPlan, StreamingCfg};
use dws::topology::{LinkLoad, RankMapping};
use dws::uts::presets;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

fn traced_config(ranks: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_s(), ranks)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.seed = 0x0B5E_55ED;
    cfg.collect_spans = true;
    cfg
}

/// The tentpole acceptance check: on a seeded 64-rank run, span counts
/// must equal the scheduler's own `StealStats` counters *exactly*, per
/// rank — spans are recorded at the counter-increment sites, so any
/// drift is a bug, not noise.
#[test]
fn spans_reconcile_with_counters_64_ranks() {
    let r = run_experiment(&traced_config(64));
    assert!(r.completed);
    let spans = r.spans.as_ref().expect("spans collected");
    spans
        .reconcile(&r.stats)
        .expect("span counts must match StealStats counters");
    assert!(spans.count(|k| matches!(k, dws::metrics::SpanKind::StealOk { .. })) > 0);
}

/// Reconciliation still holds under message faults and the
/// failure-tolerant protocol, where timeouts, retransmissions, and
/// abandoned requests enter the books.
#[test]
fn spans_reconcile_under_faults() {
    let mut cfg = traced_config(32);
    cfg.fault_plan = FaultPlan::message_faults(0.05, 0.02, 0.05);
    let r = run_experiment(&cfg);
    assert!(r.completed);
    let spans = r.spans.as_ref().expect("spans collected");
    spans
        .reconcile(&r.stats)
        .expect("span counts must match StealStats counters under faults");
    let t = r.stats.total();
    assert!(
        t.steal_timeouts + t.retransmits > 0,
        "a 5% drop rate must exercise the recovery paths"
    );
}

/// The Chrome trace document must be well-formed: it parses as JSON,
/// every duration-begin event has a matching end, per-rank timestamps
/// are monotone, flow steps/ends bind to an emitted flow start, and
/// the critical-path track tiles `[0, makespan]` exactly.
#[test]
fn chrome_trace_is_well_formed() {
    let mut cfg = traced_config(16);
    // A crash leaves orphaned steal attempts; they must still be closed.
    cfg.fault_plan.crashes.push(Crash {
        rank: 5,
        at_ns: 2_000_000,
    });
    let r = run_experiment(&cfg);
    let mut doc = Vec::new();
    r.write_chrome_trace(&mut doc).unwrap();
    let text = String::from_utf8(doc).unwrap();
    let parsed = parse(&text).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let n_ranks = r.n_ranks as usize;
    let mut b_minus_e = 0i64; // thread-duration nesting per trace
    let mut async_open: Vec<(String, String)> = Vec::new();
    let mut flow_started: Vec<(String, String)> = Vec::new();
    // tid n_ranks is the synthetic "critical path" track.
    let mut last_ts = vec![f64::NEG_INFINITY; n_ranks + 1];
    let mut critpath_cursor = 0.0f64; // µs tiling cursor
    let mut critpath_slices = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
        let tid = ev.get("tid").and_then(|v| v.as_u64()).expect("tid") as usize;
        assert!(tid <= n_ranks, "tid {tid} out of range");
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let cat = ev.get("cat").and_then(|v| v.as_str()).unwrap_or("");
        assert!(
            tid < n_ranks || cat == "critpath",
            "only critical-path slices may sit on the synthetic track"
        );
        let ts = ev.get("ts").and_then(|v| v.as_num()).expect("ts");
        assert!(
            ts >= last_ts[tid],
            "rank {tid}: timestamps must be monotone ({ts} < {})",
            last_ts[tid]
        );
        last_ts[tid] = ts;
        match ph {
            "B" => b_minus_e += 1,
            "E" => {
                b_minus_e -= 1;
                assert!(b_minus_e >= 0, "E without a matching B");
            }
            "b" => {
                let cat = ev.get("cat").and_then(|v| v.as_str()).expect("cat");
                let id = ev.get("id").and_then(|v| v.as_str()).expect("async id");
                async_open.push((cat.to_string(), id.to_string()));
            }
            "e" => {
                let cat = ev.get("cat").and_then(|v| v.as_str()).expect("cat");
                let id = ev.get("id").and_then(|v| v.as_str()).expect("async id");
                let pos = async_open
                    .iter()
                    .position(|(c, i)| c == cat && i == id)
                    .expect("async end must match an open begin");
                async_open.swap_remove(pos);
            }
            "s" => {
                let id = ev.get("id").and_then(|v| v.as_str()).expect("flow id");
                flow_started.push((cat.to_string(), id.to_string()));
            }
            "t" | "f" => {
                let id = ev.get("id").and_then(|v| v.as_str()).expect("flow id");
                assert!(
                    flow_started.iter().any(|(c, i)| c == cat && i == id),
                    "flow {ph} ({cat}, {id}) must follow its flow start"
                );
                if ph == "f" {
                    assert_eq!(
                        ev.get("bp").and_then(|v| v.as_str()),
                        Some("e"),
                        "flow ends must bind to the enclosing slice"
                    );
                }
            }
            "X" => {
                assert_eq!(cat, "critpath", "only the critical path emits X slices");
                let dur = ev.get("dur").and_then(|v| v.as_num()).expect("dur");
                assert!(
                    (ts - critpath_cursor).abs() < 1e-6,
                    "critical-path slices must tile contiguously \
                     ({ts} after cursor {critpath_cursor})"
                );
                critpath_cursor = ts + dur;
                critpath_slices += 1;
            }
            "n" | "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(b_minus_e, 0, "every B must have a matching E");
    assert!(
        async_open.is_empty(),
        "every steal-attempt span must be closed (even crash-orphaned ones): \
         {async_open:?}"
    );
    assert!(
        flow_started.iter().any(|(c, _)| c == "steal-flow"),
        "steal chains must carry flow arrows"
    );
    assert!(critpath_slices > 0, "critical-path track must be present");
    let makespan_us = r.makespan.ns() as f64 / 1e3;
    assert!(
        (critpath_cursor - makespan_us).abs() < 1e-6,
        "critical-path track must end at the makespan \
         ({critpath_cursor} vs {makespan_us})"
    );
}

/// The Chrome document's critical-path track is the blame report's
/// cached path: the bytes are the same whether the report was built
/// first or by the document itself, and the same as with a path
/// extracted afresh.
#[test]
fn chrome_trace_is_the_same_whether_blame_ran_first() {
    let cfg = traced_config(16);
    let cold = run_experiment(&cfg);
    let mut cold_doc = Vec::new();
    cold.write_chrome_trace(&mut cold_doc).unwrap();
    let warm = run_experiment(&cfg);
    let blame = warm.blame_report().expect("spans and trace collected");
    assert!(!blame.critical_path.segments().is_empty());
    let mut warm_doc = Vec::new();
    warm.write_chrome_trace(&mut warm_doc).unwrap();
    assert_eq!(cold_doc, warm_doc);

    let spans = warm.spans.as_ref().expect("spans collected");
    let trace = warm.trace.as_ref().expect("trace collected");
    let makespan_ns = warm.makespan.ns();
    let fresh = CriticalPath::extract(spans, trace, makespan_ns);
    let mut fresh_doc = Vec::new();
    write_chrome_trace(
        &mut fresh_doc,
        spans,
        Some(trace),
        makespan_ns,
        Some(&fresh),
    )
    .unwrap();
    assert_eq!(warm_doc, fresh_doc);
}

/// The machine-readable report round-trips through our own parser and
/// repeats the numbers the typed result carries.
#[test]
fn json_report_round_trips() {
    let r = run_experiment(&traced_config(16));
    let text = format!("{}", r.json_report());
    let doc = parse(&text).expect("report must be valid JSON");
    assert_eq!(
        doc.get("makespan_ns").and_then(|v| v.as_u64()),
        Some(r.makespan.ns())
    );
    assert_eq!(
        doc.get("total_nodes").and_then(|v| v.as_u64()),
        Some(r.total_nodes)
    );
    let totals = doc.get("totals").expect("totals object");
    assert_eq!(
        totals.get("steal_attempts").and_then(|v| v.as_u64()),
        Some(r.stats.total().steal_attempts)
    );
    let per_rank = doc
        .get("per_rank")
        .and_then(|v| v.as_arr())
        .expect("per_rank array");
    assert_eq!(per_rank.len(), r.n_ranks as usize);
    // Span counts in the report reconcile with the counters too.
    let counts = doc.get("span_counts").expect("span_counts present");
    assert_eq!(
        counts.get("steal_request_sent").and_then(|v| v.as_u64()),
        Some(r.stats.total().steal_attempts)
    );
    // The network section is present on a traced run.
    let network = doc.get("network").expect("network present");
    assert!(network.get("messages").and_then(|v| v.as_u64()).unwrap() > 0);
}

/// Zero-overhead guarantee: collecting spans must not change the event
/// schedule — makespan, event counts, and every per-rank counter are
/// identical with the tracer on and off.
#[test]
fn tracing_does_not_perturb_the_run() {
    let mut with = traced_config(32);
    let mut without = traced_config(32);
    without.collect_spans = false;
    with.jitter = 0.2;
    without.jitter = 0.2;
    let a = run_experiment(&with);
    let b = run_experiment(&without);
    assert_eq!(a.makespan, b.makespan, "makespan must be unaffected");
    assert_eq!(a.report.events, b.report.events);
    assert_eq!(a.report.messages, b.report.messages);
    assert_eq!(a.report.timers, b.report.timers);
    assert_eq!(a.stats.per_rank, b.stats.per_rank);
    assert!(a.spans.is_some() && b.spans.is_none());
}

/// `link_load` sums the traffic per node pair and routes each node
/// pair once. Routing every communicating rank pair on its own, as the
/// oracle here does, must charge every link the same units, with eight
/// ranks a node (where same-node pairs cross no link) and with one.
#[test]
fn link_load_per_node_pair_matches_routing_every_rank_pair() {
    for (mapping, nodes) in [
        (RankMapping::RoundRobin { ppn: 8 }, 8),
        (RankMapping::OneToOne, 16),
    ] {
        let r = run_experiment(&traced_config(nodes).with_mapping(mapping));
        let net = r.net.as_ref().expect("spans carry the network trace");
        let mut oracle = LinkLoad::new();
        let mut same_node = 0;
        for (&(from, to), tally) in net.pair_tallies() {
            let (src, dst) = (r.job.coord_of(from), r.job.coord_of(to));
            same_node += usize::from(src == dst);
            oracle.add_route(r.job.machine(), src, dst, tally.bytes);
        }
        let load = r.link_load().expect("spans were collected");
        let label = mapping.label();
        assert!(load.links_used() > 0, "{label}: no link carried traffic");
        assert_eq!(
            same_node > 0,
            matches!(mapping, RankMapping::RoundRobin { .. }),
            "{label}: {same_node} same-node rank pairs"
        );
        assert_eq!(
            load.hottest(load.links_used()),
            oracle.hottest(oracle.links_used()),
            "{label}"
        );
        assert_eq!(
            load.total_link_units(),
            oracle.total_link_units(),
            "{label}"
        );
        assert_eq!(load.links_used(), oracle.links_used(), "{label}");
        assert_eq!(
            load.hotspot_factor().to_bits(),
            oracle.hotspot_factor().to_bits(),
            "{label}"
        );
    }
}

/// Latency histograms distilled from the spans agree with the
/// counters' aggregate view where they overlap.
#[test]
fn histograms_agree_with_counters() {
    let r = run_experiment(&traced_config(16));
    let h = r.latency_histograms().expect("histograms available");
    let t = r.stats.total();
    assert_eq!(h.steal_rtt_ns.count(), t.steals_ok + t.steals_failed);
    assert_eq!(h.session_ns.count(), t.sessions);
    assert_eq!(h.session_ns.sum(), t.session_ns as u128);
    assert_eq!(h.msg_delivery_ns.count(), r.report.messages);
}

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

/// Drop `keys` from a JSON object (a no-op on anything else).
fn without(doc: &JsonValue, keys: &[&str]) -> JsonValue {
    match doc {
        JsonValue::Obj(pairs) => JsonValue::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Everything one run leaves behind, rendered to bytes: the Chrome
/// trace, the report's sections, the link matrix and the snapshot
/// lines, each `None` when the run did not record what it needs.
struct Artifacts {
    makespan: u64,
    events: u64,
    window_plan: (u64, u64),
    per_rank: Vec<dws::metrics::StealStats>,
    chrome: Option<Vec<u8>>,
    /// `(section, bytes)` of the JSON report. `profile` reports host
    /// wall time, so it is left out.
    report: Vec<(String, String)>,
    links: Option<String>,
    /// Snapshot lines without their wall-clock fields and the per-shard
    /// rows, whose count follows the thread count.
    snapshots: Option<Vec<String>>,
}

fn record_run(cfg: &ExperimentConfig, stream: bool) -> (Artifacts, ExperimentResult) {
    let sink = SharedSink::default();
    let setup = stream.then(|| StreamingSetup {
        cfg: StreamingCfg {
            snapshot_every_sim_ns: 200_000,
            ..StreamingCfg::default()
        },
        sink: Some(Box::new(sink.clone()) as Box<dyn Write + Send>),
    });
    let r = run_experiment_streamed(cfg, setup);
    assert!(r.completed);
    let report = match r.json_report() {
        JsonValue::Obj(pairs) => pairs
            .into_iter()
            .filter(|(k, _)| k != "profile")
            .map(|(k, v)| (k, v.to_string()))
            .collect(),
        _ => unreachable!("the report is an object"),
    };
    let links = r.link_load().map(|load| {
        let rows: Vec<(String, u64)> = load
            .hottest(load.links_used())
            .iter()
            .map(|(l, units)| (format!("{l:?}"), *units))
            .collect();
        link_matrix_json(&rows, load.hotspot_factor()).to_string()
    });
    let snapshots = stream.then(|| {
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<String> = text
            .lines()
            .map(|l| {
                let doc = parse(l).expect("snapshot line parses");
                without(&doc, &["wall_ms", "events_per_sec", "shards"]).to_string()
            })
            .collect();
        assert!(!lines.is_empty(), "a streamed run emits snapshots");
        lines
    });
    let artifacts = Artifacts {
        makespan: r.makespan.ns(),
        events: r.report.events,
        window_plan: r.window_plan,
        per_rank: r.stats.per_rank.clone(),
        chrome: r.spans.is_some().then(|| {
            let mut doc = Vec::new();
            r.write_chrome_trace(&mut doc).unwrap();
            doc
        }),
        report,
        links,
        snapshots,
    };
    (artifacts, r)
}

/// No combination of recorders moves the run or any artifact: every
/// subset of {activity trace, spans with the net trace, profiler,
/// streaming with its flight ring} at two threads, and all four at one
/// thread, give the same schedule, and each artifact a run produces is
/// byte-equal to the all-on run's (the Chrome trace of a run without
/// the activity trace to the all-on run's spans rendered without it).
#[test]
fn recorders_never_change_the_run() {
    let config = |bits: u8, threads: u32| {
        let mut cfg = ExperimentConfig::new(presets::t3sim_s(), 32);
        cfg.seed = 0x0B5E_55ED;
        cfg.fault_plan = FaultPlan::message_faults(0.02, 0.01, 0.02);
        cfg.threads = threads;
        cfg.collect_trace = bits & 1 != 0;
        cfg.collect_spans = bits & 2 != 0;
        cfg.profile = bits & 4 != 0;
        (cfg, bits & 8 != 0)
    };
    let (all_cfg, all_stream) = config(0b1111, 1);
    let (all, all_run) = record_run(&all_cfg, all_stream);
    let spans = all_run.spans.as_ref().expect("spans recorded");
    let mut untraced_chrome = Vec::new();
    write_chrome_trace(
        &mut untraced_chrome,
        spans,
        None,
        all_run.makespan.ns(),
        None,
    )
    .unwrap();
    let all_sections: HashMap<&str, &str> = all
        .report
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    for bits in 0..16u8 {
        let (cfg, stream) = config(bits, 2);
        let tag = format!(
            "trace={} spans={} profile={} streaming={stream}",
            cfg.collect_trace, cfg.collect_spans, cfg.profile
        );
        let (run, _) = record_run(&cfg, stream);
        assert_eq!(run.makespan, all.makespan, "{tag}: makespan");
        assert_eq!(run.events, all.events, "{tag}: events");
        assert_eq!(run.window_plan, all.window_plan, "{tag}: window plan");
        assert_eq!(run.per_rank, all.per_rank, "{tag}: per-rank stats");
        if let Some(chrome) = &run.chrome {
            let expect = if cfg.collect_trace {
                all.chrome.as_ref().unwrap()
            } else {
                &untraced_chrome
            };
            assert!(chrome == expect, "{tag}: Chrome trace bytes");
        }
        for (section, bytes) in &run.report {
            assert_eq!(
                Some(bytes.as_str()),
                all_sections.get(section.as_str()).copied(),
                "{tag}: report section {section}"
            );
        }
        if let Some(links) = &run.links {
            assert_eq!(Some(links), all.links.as_ref(), "{tag}: links");
        }
        if let Some(snaps) = &run.snapshots {
            assert_eq!(Some(snaps), all.snapshots.as_ref(), "{tag}: snapshots");
        }
    }
}

/// Spans are kept as a compact byte log, not as 56-byte records: a
/// faulty 64-rank run with spans on stays at 16 encoded bytes per
/// record or fewer at one and two threads, and at three records per
/// steal attempt or fewer (the request, the victim's one service record
/// and the outcome). Its records are the ones the `Vec<SpanRecord>`
/// store held: the five-record count and `{:?}` fingerprint were
/// recorded with that store, before the log replaced it and before the
/// victim's three records became one, and are checked against the log
/// expanded back to that form.
#[test]
fn observed_span_log_stays_compact() {
    for threads in [1, 2] {
        let mut cfg = traced_config(64);
        cfg.fault_plan = FaultPlan::message_faults(0.01, 0.0, 0.0);
        cfg.threads = threads;
        let r = run_experiment(&cfg);
        assert!(r.completed);
        let spans = r.spans.as_ref().expect("spans collected");
        spans.reconcile(&r.stats).expect("spans match the counters");
        let records = spans.records();
        let (five_record_count, five_record_text) = five_record_form(records);
        assert_eq!(five_record_count, 44_941, "{threads} thread(s)");
        assert_eq!(
            dws::metrics::perflab::fingerprint(&five_record_text),
            "8df5ec69cf793260",
            "{threads} thread(s)"
        );
        assert_eq!(records.len(), 27_311, "{threads} thread(s)");
        // 26,760 records of 8,955 attempts; the five-record form held
        // 4.96 an attempt.
        let attempts = r.stats.total().steal_attempts;
        let attempt_records = records.iter().filter(|r| r.trace != 0).count() as u64;
        assert!(
            attempt_records <= 3 * attempts,
            "{attempt_records} records of {attempts} steal attempts at {threads} thread(s)"
        );
        let per_record = records.encoded_bytes() as f64 / records.len() as f64;
        assert!(
            per_record <= 16.0,
            "{per_record:.2} bytes per span at {threads} thread(s)"
        );
    }
}
