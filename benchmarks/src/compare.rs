//! `dws-benchmark compare <a.json> <b.json>`: hold result `b` against
//! baseline `a`, one verdict per (end-to-end metric, workload), using
//! the bounds `BENCHMARK.json` fixes.

use crate::driver::{MetricSpec, Spec};
use crate::stats;
use dws::metrics::JsonValue;

/// Outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regression,
    /// The figures are not settled to within the bound (see
    /// `Fold::spread`), so they cannot tell; not reported as unchanged.
    Unresolved,
}

/// One row of the comparison.
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// What a metric may worsen by whatever its relative bound says: a 10%
/// bound on a 5 ms set-up or on 0.012 allocations per event is below
/// what the host can repeat.
fn absolute_floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.002,
        "allocs_per_event" => 0.002,
        _ => 0.0,
    }
}

fn samples(section: &JsonValue) -> Vec<f64> {
    section
        .get("samples")
        .and_then(JsonValue::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(JsonValue::as_num)
        .collect()
}

fn judge(
    m: &MetricSpec,
    a: &JsonValue,
    b: &JsonValue,
    same_seed: bool,
) -> Option<(f64, f64, Verdict)> {
    let field = |doc: &JsonValue, k: &str| doc.get(k).and_then(JsonValue::as_num);
    let (ma, mb) = (field(a, "value")?, field(b, "value")?);
    let worse_by = if m.lower_is_better { mb - ma } else { ma - mb };
    // Simulated time is a pure function of configuration and seed: with
    // the seed unchanged, any increase is a behaviour change.
    let exact = same_seed && m.name == "sim_makespan_ms";
    let bound = if exact { 0.0 } else { m.bound.unwrap_or(0.0) };
    let allowed = (bound * ma.abs()).max(absolute_floor(&m.name));
    if worse_by > allowed {
        return Some((ma, mb, Verdict::Regression));
    }
    let spread = field(a, "spread")?.max(field(b, "spread")?);
    if !exact && spread * ma.abs() > allowed {
        // Still resolved if every run of b reads better than every run of a.
        let (sa, sb) = (samples(a), samples(b));
        let clear = if m.lower_is_better {
            stats::max(&sb) < stats::min(&sa)
        } else {
            stats::min(&sb) > stats::max(&sa)
        };
        if !clear {
            return Some((ma, mb, Verdict::Unresolved));
        }
    }
    Some((ma, mb, Verdict::Ok))
}

/// Compare two `result.json` documents.
pub fn compare(spec: &Spec, a: &JsonValue, b: &JsonValue) -> Result<Vec<Row>, String> {
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let Some(JsonValue::Obj(workloads)) = a.get("workloads") else {
        return Err("baseline has no workloads section".into());
    };
    let mut rows = Vec::new();
    for (workload, wa) in workloads {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or(format!(
                "workload {workload} is missing from the second result"
            ))?;
        for m in &spec.end_to_end {
            let section = |w: &JsonValue| w.get("end_to_end").and_then(|e| e.get(&m.name)).cloned();
            let (sa, sb) = (section(wa), section(wb));
            let (a_med, b_med, verdict) = sa
                .zip(sb)
                .and_then(|(sa, sb)| judge(m, &sa, &sb, same_seed))
                .ok_or(format!("{} on {workload} is missing from a result", m.name))?;
            rows.push(Row {
                metric: m.name.clone(),
                workload: workload.clone(),
                a: a_med,
                b: b_med,
                verdict,
            });
        }
    }
    let failed = |doc: &JsonValue| doc.get("failed_runs").and_then(JsonValue::as_num);
    let (fa, fb) = (
        failed(a).ok_or("baseline has no failed_runs")?,
        failed(b).ok_or("second result has no failed_runs")?,
    );
    rows.push(Row {
        metric: "failed_runs".into(),
        workload: "all".into(),
        a: fa,
        b: fb,
        verdict: if fb > fa {
            Verdict::Regression
        } else {
            Verdict::Ok
        },
    });
    Ok(rows)
}

/// Print the rows; returns the process exit code: 2 on any regression.
pub fn report(rows: &[Row]) -> i32 {
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>8}  verdict",
        "metric", "workload", "a", "b", "change"
    );
    for r in rows {
        let change = if r.a == 0.0 {
            0.0
        } else {
            100.0 * (r.b - r.a) / r.a
        };
        println!(
            "{:<18} {:<16} {:>14.6} {:>14.6} {:>+7.1}%  {}",
            r.metric,
            r.workload,
            r.a,
            r.b,
            change,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} regressions, {} unresolved",
        rows.len(),
        count(Verdict::Regression),
        count(Verdict::Unresolved)
    );
    if count(Verdict::Regression) > 0 {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Fold;
    use dws::metrics::export::parse;

    fn spec() -> Spec {
        Spec::from_json(
            &parse(
                r#"{"run_seconds": 1,
                    "end_to_end": [
                      {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                      {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
                      {"name": "sim_makespan_ms", "unit": "ms", "better": "lower", "bound": 0.05}],
                    "per_layer": []}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    /// A result with one workload whose wall_s repeats are `wall`.
    fn result(seed: &str, wall: &[f64], setup: f64, makespan: f64, failed_runs: f64) -> JsonValue {
        let metric = |s: &[f64]| {
            JsonValue::obj(vec![
                ("value", Fold::Median.of(s).into()),
                ("spread", Fold::Median.spread(s).into()),
                (
                    "samples",
                    JsonValue::Arr(s.iter().map(|&v| v.into()).collect()),
                ),
            ])
        };
        let doc = JsonValue::obj(vec![
            ("seed", seed.into()),
            ("failed_runs", failed_runs.into()),
            (
                "workloads",
                JsonValue::obj(vec![(
                    "flagship",
                    JsonValue::obj(vec![(
                        "end_to_end",
                        JsonValue::obj(vec![
                            ("wall_s", metric(wall)),
                            ("setup_s", metric(&[setup])),
                            ("sim_makespan_ms", metric(&[makespan])),
                        ]),
                    )]),
                )]),
            ),
        ]);
        // Through text and back, as the files on disk go.
        parse(&doc.to_string()).unwrap()
    }

    fn verdicts(a: &JsonValue, b: &JsonValue) -> Vec<Verdict> {
        compare(&spec(), a, b)
            .unwrap()
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn a_result_agrees_with_itself_after_a_round_trip() {
        let a = result("7", &[10.0, 10.1, 10.2], 0.005, 237.4, 0.0);
        assert_eq!(verdicts(&a, &a), vec![Verdict::Ok; 4]);
        assert_eq!(report(&compare(&spec(), &a, &a).unwrap()), 0);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression_and_exits_2() {
        let a = result("7", &[10.0, 10.1, 10.2], 0.005, 237.4, 0.0);
        let b = result("7", &[11.3, 11.2, 11.4], 0.005, 237.4, 0.0);
        let rows = compare(&spec(), &a, &b).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert_eq!(report(&rows), 2);
        // Better by the same margin is fine.
        assert_eq!(verdicts(&b, &a)[0], Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let a = result("7", &[10.0, 11.5, 10.2], 0.005, 237.4, 0.0);
        let b = result("7", &[10.1, 10.3, 10.2], 0.005, 237.4, 0.0);
        assert_eq!(verdicts(&a, &b)[0], Verdict::Unresolved);
        let clearly_better = result("7", &[9.0, 9.1, 9.2], 0.005, 237.4, 0.0);
        assert_eq!(verdicts(&a, &clearly_better)[0], Verdict::Ok);
    }

    #[test]
    fn makespan_is_exact_for_one_seed_and_bounded_across_seeds() {
        let a = result("7", &[10.0], 0.005, 237.4, 0.0);
        let b = result("7", &[10.0], 0.005, 237.5, 0.0);
        assert_eq!(verdicts(&a, &b)[2], Verdict::Regression);
        let other_seed = result("8", &[10.0], 0.005, 237.5, 0.0);
        assert_eq!(verdicts(&a, &other_seed)[2], Verdict::Ok);
    }

    #[test]
    fn small_metrics_get_an_absolute_floor_and_failures_count() {
        let a = result("7", &[10.0], 0.005, 237.4, 0.0);
        // +1.5 ms on 5 ms is +30%, but under the 2 ms floor.
        let b = result("7", &[10.0], 0.0065, 237.4, 0.0);
        assert_eq!(verdicts(&a, &b)[1], Verdict::Ok);
        let c = result("7", &[10.0], 0.0075, 237.4, 0.25);
        assert_eq!(verdicts(&a, &c)[1], Verdict::Regression);
        assert_eq!(verdicts(&a, &c)[3], Verdict::Regression);
    }
}
