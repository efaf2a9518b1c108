//! Harness-side spans: one per call the benchmark makes into a layer.
//!
//! Spans live in a `Vec` until the process ends. `parent` is an index
//! into the same `Vec`, so a layer's self time is its span minus the
//! spans it directly contains.

use dws::metrics::JsonValue;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `Job::place`.
    pub name: String,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Counts and totals the callee reported about this call.
    pub attrs: Vec<(String, JsonValue)>,
}

/// Records spans for one process. Switched off (the timed, untraced
/// runs) it still times what it is asked to but keeps nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span that has been entered and not yet left.
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let now = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: now,
                end_ns: now,
                parent: self.open.last().copied(),
                attrs: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { id, start }
    }

    /// Close `open`, which must be the innermost open span; returns its
    /// duration in milliseconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(id) = open.id {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost-first"
            );
            self.spans[id].end_ns = self.spans[id].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64() * 1e3
    }

    /// Time `f` as one span; returns its value and duration in ms.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Attach a reported count or total to a span still open.
    pub fn attr(&mut self, open: &Open, key: &str, value: JsonValue) {
        if let Some(id) = open.id {
            self.spans[id].attrs.push((key.to_string(), value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the durations of the
/// spans whose `parent` it is. Children of one parent never overlap
/// (the tracer is single-threaded and closes innermost-first).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// The spans as JSON rows, `workload` and `process` stamped on each.
pub fn to_json(spans: &[Span], workload: &str, process: &str) -> Vec<JsonValue> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(own)
        .map(|(s, self_ns)| {
            let mut pairs = vec![
                ("name".to_string(), s.name.as_str().into()),
                ("start_ns".to_string(), s.start_ns.into()),
                ("end_ns".to_string(), s.end_ns.into()),
                (
                    "parent".to_string(),
                    s.parent.map_or(JsonValue::Null, JsonValue::from),
                ),
                ("self_ns".to_string(), self_ns.into()),
                ("workload".to_string(), workload.into()),
                ("process".to_string(), process.into()),
            ];
            pairs.extend(s.attrs.iter().cloned());
            JsonValue::Obj(pairs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("run", 0, 100, None),
            span("place", 10, 30, Some(0)),
            span("simulate", 30, 90, Some(0)),
            span("exchange", 40, 50, Some(2)),
        ];
        // run: 100 − 20 − 60; simulate: 60 − 10; grandchildren are not
        // subtracted twice.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let (v, ms) = t.time("inner", || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        t.attr(&outer, "calls", 3u64.into());
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let rows = to_json(s, "flagship", "traced_run");
        assert_eq!(rows[0].get("calls").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(rows[1].get("parent").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(
            rows[1].get("workload").and_then(|v| v.as_str()),
            Some("flagship")
        );
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let outer = t.enter("outer");
        t.attr(&outer, "calls", 1u64.into());
        let ((), ms) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(ms >= 2.0);
        assert!(t.exit(outer) >= ms);
        assert!(t.spans().is_empty());
    }
}
