//! Blame reports: the user-facing layer over critical-path
//! attribution — component totals, the per-rank waterfall, Coz-style
//! what-if virtual speedups, JSON serialization for the run report,
//! and the text rendering behind `dws why`.
//!
//! The what-if model is first-order, after Coz (Curtsinger &
//! Berger, "Coz: finding code that counts with causal profiling"):
//! scaling a component by x% is predicted to shorten the makespan by
//! x% of the nanoseconds that component holds *on the critical path*.
//! It deliberately ignores second-order effects (a shorter steal RTT
//! can change which path is critical), so predictions are a lower
//! bound on accuracy but directly comparable across configurations —
//! exactly what ranking victim-selection policies needs.

use crate::critpath::{attribute, Component, CriticalPath, Segment};
use crate::export::JsonValue;
use crate::span::SpanTrace;
use crate::trace::ActivityTrace;

/// Schema version of the `blame` report section.
pub const BLAME_SCHEMA_VERSION: u64 = 1;

/// How many critical-path segments the report keeps verbatim.
const TOP_K_SEGMENTS: usize = 10;

/// What-if scaling factors, in percent reduction.
const WHATIF_SCALES: [u64; 3] = [20, 50, 100];

/// One what-if row: "shrink these components by `scale_pct`%".
#[derive(Debug, Clone)]
pub struct WhatIf {
    /// Scenario label, e.g. `"steal rtt"`.
    pub scenario: String,
    /// Percent reduction applied.
    pub scale_pct: u64,
    /// Critical-path nanoseconds the scenario touches.
    pub affected_ns: u64,
    /// Predicted makespan reduction (first-order).
    pub predicted_delta_ns: u64,
    /// Predicted makespan after the reduction.
    pub predicted_makespan_ns: u64,
}

/// The full causal explanation of one run.
#[derive(Debug, Clone)]
pub struct BlameReport {
    /// Measured makespan the attribution must sum to.
    pub makespan_ns: u64,
    /// Nanoseconds per component on the critical path, in
    /// [`Component::ALL`] order. Sums to `makespan_ns` exactly.
    pub components: Vec<(Component, u64)>,
    /// The extracted critical path, every segment of it.
    pub critical_path: CriticalPath,
    /// Per-rank decomposition (each row sums to `makespan_ns`).
    pub per_rank: Vec<(u32, [u64; 8])>,
    /// What-if virtual speedups.
    pub whatif: Vec<WhatIf>,
}

impl BlameReport {
    /// Build the report from a run's spans and activity trace.
    pub fn from_run(spans: &SpanTrace, activity: &ActivityTrace, makespan_ns: u64) -> BlameReport {
        let (cp, waterfall) = attribute(spans, activity, makespan_ns);
        let components = cp.totals();
        let whatif = whatif_table(&components, makespan_ns);
        let per_rank = waterfall
            .into_iter()
            .map(|w| (w.rank, w.by_component))
            .collect();
        BlameReport {
            makespan_ns,
            components,
            critical_path: cp,
            per_rank,
            whatif,
        }
    }

    /// The exactness invariant: components sum to the makespan.
    pub fn check(&self) -> Result<(), String> {
        let sum: u64 = self.components.iter().map(|&(_, v)| v).sum();
        if sum != self.makespan_ns {
            return Err(format!(
                "blame components sum to {sum} ≠ makespan {}",
                self.makespan_ns
            ));
        }
        for &(rank, by) in &self.per_rank {
            let total: u64 = by.iter().sum();
            if total != self.makespan_ns {
                return Err(format!(
                    "rank {rank} waterfall sums to {total} ≠ makespan {}",
                    self.makespan_ns
                ));
            }
        }
        Ok(())
    }

    /// The `blame` section of the JSON run report.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", BLAME_SCHEMA_VERSION.into()),
            ("makespan_ns", self.makespan_ns.into()),
            (
                "components",
                JsonValue::Obj(
                    self.components
                        .iter()
                        .map(|&(c, v)| (c.key().to_string(), v.into()))
                        .collect(),
                ),
            ),
            (
                "critical_path",
                JsonValue::obj(vec![
                    ("n_segments", self.critical_path.segments().len().into()),
                    (
                        "top_segments",
                        JsonValue::Arr(
                            self.critical_path
                                .top_segments(TOP_K_SEGMENTS)
                                .iter()
                                .map(segment_json)
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "per_rank",
                JsonValue::Arr(
                    self.per_rank
                        .iter()
                        .map(|&(rank, by)| {
                            let mut row: Vec<(String, JsonValue)> =
                                vec![("rank".to_string(), rank.into())];
                            for (c, v) in Component::ALL.iter().zip(by.iter()) {
                                row.push((c.key().to_string(), (*v).into()));
                            }
                            JsonValue::Obj(row)
                        })
                        .collect(),
                ),
            ),
            (
                "whatif",
                JsonValue::Arr(
                    self.whatif
                        .iter()
                        .map(|w| {
                            JsonValue::obj(vec![
                                ("scenario", w.scenario.as_str().into()),
                                ("scale_pct", w.scale_pct.into()),
                                ("affected_ns", w.affected_ns.into()),
                                ("predicted_delta_ns", w.predicted_delta_ns.into()),
                                ("predicted_makespan_ns", w.predicted_makespan_ns.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn segment_json(s: &Segment) -> JsonValue {
    JsonValue::obj(vec![
        ("from_ns", s.from_ns.into()),
        ("to_ns", s.to_ns.into()),
        ("dur_ns", s.dur_ns().into()),
        ("rank", (s.rank as usize).into()),
        ("component", s.component.key().into()),
    ])
}

/// Build the what-if table from component totals: each latency-side
/// scenario at each scale, skipping scenarios with nothing on the
/// path.
fn whatif_table(components: &[(Component, u64)], makespan_ns: u64) -> Vec<WhatIf> {
    let total = |c: Component| {
        components
            .iter()
            .find(|&&(x, _)| x == c)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let groups: [(&str, Vec<Component>); 6] = [
        (
            "steal rtt",
            vec![Component::RequestTravel, Component::ReplyTravel],
        ),
        ("victim service", vec![Component::QueueAtVictim]),
        ("timeout+retry", vec![Component::TimeoutRetry]),
        ("quarantine", vec![Component::QuarantineReselect]),
        ("compute", vec![Component::Compute]),
        ("termination", vec![Component::TerminationTail]),
    ];
    let mut rows = Vec::new();
    for (name, comps) in groups {
        let affected: u64 = comps.iter().map(|&c| total(c)).sum();
        if affected == 0 {
            continue;
        }
        for scale in WHATIF_SCALES {
            let delta = affected * scale / 100;
            rows.push(WhatIf {
                scenario: name.to_string(),
                scale_pct: scale,
                affected_ns: affected,
                predicted_delta_ns: delta,
                predicted_makespan_ns: makespan_ns - delta,
            });
        }
    }
    rows
}

/// Verify the attribution-sum invariant on a serialized run report
/// (CI gate): the `blame.components` must sum to `blame.makespan_ns`.
pub fn verify_report(doc: &JsonValue) -> Result<(), String> {
    let blame = doc
        .get("blame")
        .ok_or("report has no blame section (run with --trace or --json on a traced run)")?;
    let makespan = blame
        .get("makespan_ns")
        .and_then(|v| v.as_u64())
        .ok_or("blame section has no makespan_ns")?;
    let comps = blame
        .get("components")
        .ok_or("blame section has no components")?;
    let JsonValue::Obj(pairs) = comps else {
        return Err("blame.components is not an object".into());
    };
    let sum: u64 = pairs.iter().filter_map(|(_, v)| v.as_u64()).sum();
    if sum != makespan {
        return Err(format!(
            "blame components sum to {sum} ≠ makespan {makespan}"
        ));
    }
    Ok(())
}

/// Format nanoseconds as a human duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Render the `dws why` text view from a full run report document
/// (the same JSON `--json` writes). Returns an error when the report
/// carries no blame section.
pub fn render_report(doc: &JsonValue) -> Result<String, String> {
    let blame = doc
        .get("blame")
        .ok_or("report has no blame section (re-run with --trace/--json so spans are collected)")?;
    let label = doc.get("label").and_then(|v| v.as_str()).unwrap_or("run");
    let makespan = blame
        .get("makespan_ns")
        .and_then(|v| v.as_u64())
        .ok_or("blame section has no makespan_ns")?;
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    push(&mut out, format!("{label}: makespan {}", fmt_ns(makespan)));
    push(&mut out, String::new());
    push(&mut out, "MAKESPAN ATTRIBUTION (critical path)".to_string());
    let comps = blame
        .get("components")
        .ok_or("blame section has no components")?;
    let mut sum = 0u64;
    for c in Component::ALL {
        let v = comps.get(c.key()).and_then(|v| v.as_u64()).unwrap_or(0);
        sum += v;
        if v > 0 {
            let bar_len = (pct(v, makespan) / 2.0).round() as usize;
            push(
                &mut out,
                format!(
                    "  {:<20} {:>12}  {:>5.1}%  {}",
                    c.label(),
                    fmt_ns(v),
                    pct(v, makespan),
                    "#".repeat(bar_len)
                ),
            );
        }
    }
    let exact = sum == makespan;
    push(
        &mut out,
        format!(
            "  {:<20} {:>12}  {}",
            "sum",
            fmt_ns(sum),
            if exact {
                "(exact)".to_string()
            } else {
                format!("MISMATCH vs makespan {}", fmt_ns(makespan))
            }
        ),
    );

    if let Some(top) = blame
        .get("critical_path")
        .and_then(|cp| cp.get("top_segments"))
        .and_then(|t| t.as_arr())
    {
        push(&mut out, String::new());
        push(&mut out, "TOP CRITICAL-PATH SEGMENTS".to_string());
        for (i, seg) in top.iter().enumerate() {
            let dur = seg.get("dur_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            let rank = seg.get("rank").and_then(|v| v.as_u64()).unwrap_or(0);
            let comp = seg.get("component").and_then(|v| v.as_str()).unwrap_or("?");
            let from = seg.get("from_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            let to = seg.get("to_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            let label = Component::from_key(comp).map(|c| c.label()).unwrap_or(comp);
            push(
                &mut out,
                format!(
                    "  #{:<2} {:>12}  {:<20} rank {:<5} [{} – {}]",
                    i + 1,
                    fmt_ns(dur),
                    label,
                    rank,
                    fmt_ns(from),
                    fmt_ns(to)
                ),
            );
        }
    }

    if let Some(rows) = blame.get("per_rank").and_then(|v| v.as_arr()) {
        push(&mut out, String::new());
        push(
            &mut out,
            "PER-RANK WATERFALL (ranks with the most non-compute time)".to_string(),
        );
        push(
            &mut out,
            format!(
                "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "rank",
                "compute",
                "req-trav",
                "queue",
                "rep-trav",
                "retry",
                "quarant",
                "term",
                "other"
            ),
        );
        let idle_of = |row: &JsonValue| {
            let compute = row
                .get(Component::Compute.key())
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            makespan.saturating_sub(compute)
        };
        let mut sorted: Vec<&JsonValue> = rows.iter().collect();
        sorted.sort_by_key(|r| std::cmp::Reverse(idle_of(r)));
        for row in sorted.iter().take(8) {
            let rank = row.get("rank").and_then(|v| v.as_u64()).unwrap_or(0);
            let col = |c: Component| fmt_ns(row.get(c.key()).and_then(|v| v.as_u64()).unwrap_or(0));
            push(
                &mut out,
                format!(
                    "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    rank,
                    col(Component::Compute),
                    col(Component::RequestTravel),
                    col(Component::QueueAtVictim),
                    col(Component::ReplyTravel),
                    col(Component::TimeoutRetry),
                    col(Component::QuarantineReselect),
                    col(Component::TerminationTail),
                    col(Component::IdleOther),
                ),
            );
        }
        if rows.len() > 8 {
            push(&mut out, format!("  … {} more ranks", rows.len() - 8));
        }
    }

    if let Some(rows) = blame.get("whatif").and_then(|v| v.as_arr()) {
        push(&mut out, String::new());
        push(
            &mut out,
            "WHAT-IF VIRTUAL SPEEDUPS (first-order, critical-path scaling)".to_string(),
        );
        for row in rows {
            let scenario = row.get("scenario").and_then(|v| v.as_str()).unwrap_or("?");
            let scale = row.get("scale_pct").and_then(|v| v.as_u64()).unwrap_or(0);
            let delta = row
                .get("predicted_delta_ns")
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            let predicted = row
                .get("predicted_makespan_ns")
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            push(
                &mut out,
                format!(
                    "  {:<16} −{:<3}%  → {:>12}  (−{}, −{:.1}%)",
                    scenario,
                    scale,
                    fmt_ns(predicted),
                    fmt_ns(delta),
                    pct(delta, makespan)
                ),
            );
        }
    }

    // A profiled run's report says where *host* time went, alongside
    // where *simulated* time went.
    let shards = doc.get("profile").and_then(|p| p.get("shards"));
    if let Some(shards) = shards.and_then(|v| v.as_arr()).filter(|s| !s.is_empty()) {
        push(&mut out, String::new());
        push(
            &mut out,
            "SHARD BARRIER WAIT (host wall clock, profiled run)".to_string(),
        );
        for row in shards {
            let shard = row.get("shard").and_then(|v| v.as_u64()).unwrap_or(0);
            let busy = row.get("busy_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            let wait = row.get("wait_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            push(
                &mut out,
                format!(
                    "  shard {:<3} busy {:>12}  barrier-wait {:>12}  ({:.1}% waiting)",
                    shard,
                    fmt_ns(busy),
                    fmt_ns(wait),
                    pct(wait, busy + wait)
                ),
            );
        }
    }

    if !exact {
        return Err(format!(
            "attribution MISMATCH: components sum to {sum} ≠ makespan {makespan}\n{out}"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{trace_id, SpanKind, SpanRecord};

    fn tiny_run() -> (SpanTrace, ActivityTrace, u64) {
        let id = trace_id(1, 0);
        let r0 = vec![SpanRecord {
            at_ns: 300,
            rank: 0,
            trace: id,
            kind: SpanKind::StealServiced {
                thief: 1,
                nodes: 4,
                queue_ns: 100,
                depart_delay_ns: 50,
            },
        }];
        let r1 = vec![
            SpanRecord {
                at_ns: 0,
                rank: 1,
                trace: id,
                kind: SpanKind::StealRequestSent { victim: 0 },
            },
            SpanRecord {
                at_ns: 500,
                rank: 1,
                trace: id,
                kind: SpanKind::StealOk {
                    victim: 0,
                    rtt_ns: 500,
                    nodes: 8,
                },
            },
        ];
        let spans = SpanTrace::from_shard_logs(2, vec![r0, r1]);
        let mut act = ActivityTrace::new(2);
        act.record(0, 0, true);
        act.record(1, 500, true);
        act.record(0, 600, false);
        act.record(1, 800, false);
        (spans, act, 1000)
    }

    #[test]
    fn blame_is_exact_and_serializes() {
        let (spans, act, t) = tiny_run();
        let report = BlameReport::from_run(&spans, &act, t);
        report.check().unwrap();
        let json = report.to_json();
        let doc = JsonValue::obj(vec![("label", "test".into()), ("blame", json)]);
        verify_report(&doc).unwrap();
        let text = render_report(&doc).unwrap();
        assert!(text.contains("MAKESPAN ATTRIBUTION"));
        assert!(text.contains("WHAT-IF"));
        assert!(text.contains("(exact)"));
    }

    #[test]
    fn whatif_deltas_are_bounded_and_signed() {
        let (spans, act, t) = tiny_run();
        let report = BlameReport::from_run(&spans, &act, t);
        for w in &report.whatif {
            assert!(w.affected_ns <= t);
            assert!(w.predicted_delta_ns <= w.affected_ns);
            assert_eq!(w.predicted_makespan_ns, t - w.predicted_delta_ns);
            // A reduction never predicts a slowdown.
            assert!(w.predicted_makespan_ns <= t);
        }
        // The steal-rtt scenario exists (travel is on the path).
        assert!(report.whatif.iter().any(|w| w.scenario == "steal rtt"));
    }

    #[test]
    fn verify_report_rejects_doctored_sums() {
        let (spans, act, t) = tiny_run();
        let report = BlameReport::from_run(&spans, &act, t);
        let mut json = report.to_json();
        // Corrupt one component.
        if let JsonValue::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "components" {
                    if let JsonValue::Obj(comps) = v {
                        comps[0].1 = JsonValue::Num(1.0);
                    }
                }
            }
        }
        let doc = JsonValue::obj(vec![("blame", json)]);
        assert!(verify_report(&doc).is_err());
    }

    #[test]
    fn shard_rows_come_from_the_profile() {
        let (spans, act, t) = tiny_run();
        let blame = BlameReport::from_run(&spans, &act, t).to_json();
        assert!(blame.get("shards").is_none());
        let row = |shard: u64, busy_ns: u64, wait_ns: u64| {
            JsonValue::obj(vec![
                ("shard", shard.into()),
                ("busy_ns", busy_ns.into()),
                ("wait_ns", wait_ns.into()),
            ])
        };
        let profile = JsonValue::obj(vec![(
            "shards",
            JsonValue::Arr(vec![row(0, 100, 10), row(1, 90, 20)]),
        )]);
        let unprofiled = JsonValue::obj(vec![("blame", blame.clone())]);
        assert!(!render_report(&unprofiled)
            .unwrap()
            .contains("SHARD BARRIER WAIT"));
        let doc = JsonValue::obj(vec![("blame", blame), ("profile", profile)]);
        let text = render_report(&doc).unwrap();
        assert!(text.contains("SHARD BARRIER WAIT"));
        assert!(text
            .contains("  shard 1   busy        90 ns  barrier-wait        20 ns  (18.2% waiting)"));
    }
}
