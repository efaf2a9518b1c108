//! End-to-end checks of the observability subsystem: span/counter
//! reconciliation, Chrome trace well-formedness, the machine-readable
//! run report, and the zero-overhead guarantee when tracing is off.

use dws::core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
use dws::metrics::export::{chrome_trace_with_critpath, parse};
use dws::metrics::CriticalPath;
use dws::simnet::{Crash, FaultPlan};
use dws::uts::presets;

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
    let doc = r.chrome_trace_json().expect("spans collected");
    let text = format!("{doc}");
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
    let cold_doc = cold
        .chrome_trace_json()
        .expect("spans collected")
        .to_string();
    let warm = run_experiment(&cfg);
    let blame = warm.blame_report().expect("spans and trace collected");
    assert!(!blame.critical_path.segments().is_empty());
    let warm_doc = warm
        .chrome_trace_json()
        .expect("spans collected")
        .to_string();
    assert_eq!(cold_doc, warm_doc);

    let spans = warm.spans.as_ref().expect("spans collected");
    let trace = warm.trace.as_ref().expect("trace collected");
    let makespan_ns = warm.makespan.ns();
    let fresh = CriticalPath::extract(spans, trace, makespan_ns);
    let fresh_doc = chrome_trace_with_critpath(spans, Some(trace), makespan_ns, Some(&fresh));
    assert_eq!(warm_doc, fresh_doc.to_string());
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
