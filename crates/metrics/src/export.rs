//! Machine-readable exporters: a dependency-free JSON tree, a Chrome
//! trace-event writer, and histogram/link-matrix serializers.
//!
//! The workspace carries no external crates, so JSON is hand-rolled: a
//! small [`JsonValue`] tree with an escaping writer and a
//! recursive-descent [`parse`] — the parser exists so tests (and
//! downstream tools) can validate what the writer produced without a
//! serde dependency.
//!
//! The Chrome exporter targets the [trace-event format] consumed by
//! `chrome://tracing` and Perfetto: one thread track per rank carrying
//! `B`/`E` "working" phases from the activity trace, async `b`/`e`
//! pairs per steal attempt keyed by trace ID, and `i` instants for
//! protocol recovery events (timeouts, retransmits, token
//! regenerations, quarantines). It writes one event at a time; no
//! document tree of the trace is ever built.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::critpath::CriticalPath;
use crate::histogram::{Histogram, LatencyHistograms};
use crate::span::{SpanKind, SpanRecord, SpanTrace};
use crate::trace::ActivityTrace;
use std::fmt;
use std::io::{self, Write};

/// A JSON document tree. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a member of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num().filter(|n| *n >= 0.0).map(|n| n as u64)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parse a JSON document. Returns the root value or a positioned error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("expected '{lit}' at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at offset {}", c as char, self.i)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.i += 1;
                            let cp = self.hex4()?;
                            // Decode a surrogate pair if one follows;
                            // otherwise accept the BMP code point.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.b[self.i..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("bad unicode escape near offset {}", self.i)
                            })?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape in
                    // one step. Both are ASCII and the input is a
                    // `&str`, so the run ends on a char boundary.
                    let rest = &self.b[self.i..];
                    let len = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                    self.i += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.b[self.i..self.i + 4]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape at offset {}", self.i))?;
        self.i += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

/// Serialize one histogram: summary statistics plus non-empty buckets.
pub fn histogram_json(h: &Histogram) -> JsonValue {
    JsonValue::obj(vec![
        ("count", h.count().into()),
        ("sum", JsonValue::Num(h.sum() as f64)),
        ("min", h.min().into()),
        ("max", h.max().into()),
        ("mean", h.mean().into()),
        ("p50", h.p50().into()),
        ("p90", h.p90().into()),
        ("p95", h.p95().into()),
        ("p99", h.p99().into()),
        (
            "buckets",
            JsonValue::Arr(
                h.buckets()
                    .into_iter()
                    .map(|(lo, hi, c)| JsonValue::Arr(vec![lo.into(), hi.into(), c.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// Serialize the full set of run histograms, keyed by metric name.
pub fn histograms_json(h: &LatencyHistograms) -> JsonValue {
    JsonValue::Obj(
        h.named()
            .iter()
            .map(|(name, hist)| (name.to_string(), histogram_json(hist)))
            .collect(),
    )
}

/// Serialize a per-link load matrix: `links` maps a printable link
/// label (e.g. `"(1,0,0,0,0,0)+x"`) to traffic units routed over it.
pub fn link_matrix_json(links: &[(String, u64)], hotspot_factor: f64) -> JsonValue {
    let total: u64 = links.iter().map(|(_, u)| u).sum();
    JsonValue::obj(vec![
        ("links_used", links.len().into()),
        ("total_link_units", total.into()),
        ("hotspot_factor", hotspot_factor.into()),
        (
            "links",
            JsonValue::Arr(
                links
                    .iter()
                    .map(|(label, units)| {
                        JsonValue::obj(vec![
                            ("link", label.as_str().into()),
                            ("units", (*units).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Span counts per kind — the machine-readable reconciliation surface —
/// from one pass over the records. A [`SpanKind::StealServiced`] also
/// counts as the request received and the reply sent it stands for, so
/// `steal_request_recv` and `steal_reply_sent` keep their meaning.
pub fn span_counts_json(spans: &SpanTrace) -> JsonValue {
    const KEYS: [&str; 15] = [
        "steal_request_sent",
        "steal_request_recv",
        "steal_reply_sent",
        "steal_serviced",
        "steal_ok",
        "steal_empty",
        "steal_timeout",
        "steal_abandoned",
        "transfer_acked",
        "retransmit",
        "token_hop",
        "token_regenerated",
        "quarantined",
        "session_end",
        "done",
    ];
    let mut counts = [0u64; KEYS.len()];
    for r in spans.records() {
        let key = match r.kind {
            SpanKind::StealRequestSent { .. } => 0,
            SpanKind::StealRequestRecv { .. } => 1,
            SpanKind::StealServiced { .. } => {
                counts[1] += 1;
                counts[2] += 1;
                3
            }
            SpanKind::StealOk { .. } => 4,
            SpanKind::StealEmpty { .. } => 5,
            SpanKind::StealTimeout { .. } => 6,
            SpanKind::StealAbandoned { .. } => 7,
            SpanKind::TransferAcked { .. } => 8,
            SpanKind::Retransmit { .. } => 9,
            SpanKind::TokenHop { .. } => 10,
            SpanKind::TokenRegenerated { .. } => 11,
            SpanKind::Quarantined { .. } => 12,
            SpanKind::SessionEnd { .. } => 13,
            SpanKind::Done => 14,
        };
        counts[key] += 1;
    }
    JsonValue::Obj(
        KEYS.iter()
            .zip(counts)
            .map(|(name, n)| (name.to_string(), n.into()))
            .collect(),
    )
}

/// Microseconds for a Chrome trace `ts` field.
fn us(ns: u64) -> JsonValue {
    JsonValue::Num(ns as f64 / 1000.0)
}

/// A Chrome trace event and the nanosecond it is drawn at, the key the
/// writer merges its sources on.
type Event = (u64, JsonValue);

fn event(
    name: &str,
    cat: &str,
    ph: &str,
    ts_ns: u64,
    rank: usize,
    extra: Vec<(&str, JsonValue)>,
) -> Event {
    let mut pairs = vec![
        ("name", JsonValue::from(name)),
        ("cat", JsonValue::from(cat)),
        ("ph", JsonValue::from(ph)),
        ("ts", us(ts_ns)),
        ("pid", JsonValue::from(0u64)),
        ("tid", JsonValue::from(rank)),
    ];
    pairs.extend(extra);
    (ts_ns, JsonValue::obj(pairs))
}

fn args(pairs: Vec<(&str, JsonValue)>) -> (&'static str, JsonValue) {
    ("args", JsonValue::obj(pairs))
}

fn async_extra(trace: u64) -> (&'static str, JsonValue) {
    // Chrome matches async b/e events on (cat, id); a hex string id
    // sidesteps f64 precision limits on wide trace IDs.
    ("id", JsonValue::Str(format!("{trace:x}")))
}

/// Track-naming metadata, so the viewer shows "rank N", not "tid N".
fn track_name(tid: usize, name: String) -> Event {
    event(
        "thread_name",
        "__metadata",
        "M",
        0,
        tid,
        vec![args(vec![("name", name.into())])],
    )
}

/// A flow event (`ph` ∈ {`s`, `t`, `f`}) on the steal chain keyed by
/// the attempt's trace ID, so Perfetto draws arrows request → service
/// → reply → outcome across rank tracks.
fn flow_event(ph: &str, ts_ns: u64, rank: usize, trace: u64) -> Event {
    let mut extra = vec![async_extra(trace)];
    if ph == "f" {
        // Bind the arrowhead to the enclosing slice rather than the
        // next one on the track.
        extra.push(("bp", "e".into()));
    }
    event("steal chain", "steal-flow", ph, ts_ns, rank, extra)
}

/// The end of a steal attempt, with its outcome in `args`.
fn attempt_end(ts_ns: u64, rank: usize, trace: u64, outcome: Vec<(&str, JsonValue)>) -> Event {
    event(
        "steal",
        "steal",
        "e",
        ts_ns,
        rank,
        vec![async_extra(trace), args(outcome)],
    )
}

/// `B`/`E` "working" phases from the activity trace, with any phase
/// still open at `makespan_ns` closed there.
fn activity_events(
    activity: Option<&ActivityTrace>,
    makespan_ns: u64,
) -> impl Iterator<Item = Event> + '_ {
    let mut transitions = activity.map_or(&[][..], |a| a.transitions()).iter();
    let mut open = vec![false; activity.map_or(0, |a| a.n_ranks() as usize)];
    let mut closing = 0..open.len();
    let working = |ph, ts_ns, rank| event("working", "activity", ph, ts_ns, rank, vec![]);
    std::iter::from_fn(move || {
        for t in transitions.by_ref() {
            let rank = t.rank as usize;
            if t.active != open[rank] {
                open[rank] = t.active;
                return Some(working(if t.active { "B" } else { "E" }, t.at_ns, rank));
            }
        }
        closing
            .find(|&rank| open[rank])
            .map(|rank| working("E", makespan_ns, rank))
    })
}

/// Steal attempts as async `b`/`e` pairs with flow arrows, protocol
/// recovery as `i` instants; attempts left open by a crash close at
/// `makespan_ns` with outcome `"unresolved"`.
fn span_events(spans: &SpanTrace, makespan_ns: u64) -> impl Iterator<Item = Event> + '_ {
    let mut records = spans.records().iter();
    let mut open: Vec<(usize, u64)> = Vec::new();
    let mut pending = Vec::new().into_iter();
    std::iter::from_fn(move || loop {
        if let Some(e) = pending.next() {
            return Some(e);
        }
        pending = match records.next() {
            Some(r) => record_events(r, &mut open),
            None if open.is_empty() => return None,
            None => open
                .drain(..)
                .map(|(rank, trace)| {
                    let outcome = vec![("outcome", "unresolved".into())];
                    attempt_end(makespan_ns, rank, trace, outcome)
                })
                .collect::<Vec<_>>(),
        }
        .into_iter();
    })
}

/// The events one span record draws, tracking the attempts still
/// `open` on each rank.
fn record_events(r: SpanRecord, open: &mut Vec<(usize, u64)>) -> Vec<Event> {
    let SpanRecord {
        at_ns,
        rank,
        trace,
        kind,
    } = r;
    let recovery = |name, mut extra: Vec<_>| {
        extra.insert(0, ("s", "t".into()));
        event(name, "recovery", "i", at_ns, rank, extra)
    };
    // What an attempt's end says, and the recovery instant it adds.
    let (outcome, instant) = match kind {
        SpanKind::StealRequestSent { victim } => {
            open.push((rank, trace));
            let extra = vec![async_extra(trace), args(vec![("victim", victim.into())])];
            return vec![
                event("steal", "steal", "b", at_ns, rank, extra),
                flow_event("s", at_ns, rank, trace),
            ];
        }
        SpanKind::StealRequestRecv { .. } => return service_step(at_ns, rank, trace).to_vec(),
        SpanKind::StealServiced {
            queue_ns,
            depart_delay_ns,
            ..
        } => {
            // One `service` step for the request's arrival and one for
            // the reply's departure, as their own records drew them, so
            // the trace is the one the three victim records made.
            let mut events = service_step(at_ns, rank, trace).to_vec();
            events.extend(service_step(at_ns, rank, trace));
            let service = args(vec![
                ("queue_ns", queue_ns.into()),
                ("depart_delay_ns", depart_delay_ns.into()),
            ]);
            let extra = vec![async_extra(trace), service];
            events.push(event("serviced", "steal", "n", at_ns, rank, extra));
            return events;
        }
        SpanKind::Quarantined { victim } => {
            let victim = args(vec![("victim", victim.into())]);
            return vec![recovery("quarantined", vec![victim])];
        }
        SpanKind::Retransmit { .. } => return vec![recovery("retransmit", vec![])],
        SpanKind::TokenRegenerated { .. } => {
            return vec![recovery("token regenerated", vec![])];
        }
        SpanKind::TransferAcked { .. }
        | SpanKind::TokenHop { .. }
        | SpanKind::SessionEnd { .. }
        | SpanKind::Done => return Vec::new(),
        SpanKind::StealOk { nodes, .. } => (
            vec![("outcome", "ok".into()), ("nodes", nodes.into())],
            None,
        ),
        SpanKind::StealEmpty { .. } => (vec![("outcome", "empty".into())], None),
        SpanKind::StealTimeout { .. } => {
            (vec![("outcome", "timeout".into())], Some("steal timeout"))
        }
        SpanKind::StealAbandoned { .. } => (vec![("outcome", "abandoned".into())], None),
    };
    open.retain(|&attempt| attempt != (rank, trace));
    let mut events = vec![
        attempt_end(at_ns, rank, trace, outcome),
        flow_event("f", at_ns, rank, trace),
    ];
    events.extend(instant.map(|name| recovery(name, vec![])));
    events
}

/// A victim-side step of attempt `trace`: a `service` instant on the
/// attempt's async track and the flow arrow through it.
fn service_step(at_ns: u64, rank: usize, trace: u64) -> [Event; 2] {
    let extra = vec![async_extra(trace)];
    [
        event("service", "steal", "n", at_ns, rank, extra),
        flow_event("t", at_ns, rank, trace),
    ]
}

/// The critical path as its own track `tid`: one `X` slice per
/// attributed segment, plus flow arrows hopping between rank tracks
/// wherever the path changes rank.
fn critpath_events(
    critpath: Option<&CriticalPath>,
    tid: usize,
) -> impl Iterator<Item = Event> + '_ {
    let segs = critpath.map_or(&[][..], |cp| cp.segments());
    let name = critpath.map(|_| track_name(tid, "critical path".into()));
    name.into_iter()
        .chain(segs.iter().enumerate().flat_map(move |(i, seg)| {
            let extra = vec![
                ("dur", us(seg.dur_ns())),
                args(vec![("rank", (seg.rank as usize).into())]),
            ];
            let label = seg.component.label();
            let mut events = vec![event(label, "critpath", "X", seg.from_ns, tid, extra)];
            if let Some(next) = segs.get(i + 1).filter(|next| next.rank != seg.rank) {
                let id = ("id", JsonValue::Str(format!("cp{i}")));
                let hop = |ph, ts_ns, rank: u32, extra| {
                    let rank = rank as usize;
                    event("critical path", "critpath-flow", ph, ts_ns, rank, extra)
                };
                events.push(hop("s", seg.to_ns, seg.rank, vec![id.clone()]));
                events.push(hop(
                    "f",
                    next.from_ns,
                    next.rank,
                    vec![id, ("bp", "e".into())],
                ));
            }
            events
        }))
}

/// Write a run as Chrome trace-event JSON, loadable in
/// `chrome://tracing` or Perfetto.
///
/// One thread track per rank: `B`/`E` "working" phases from the
/// `activity` trace, with any phase still open at `makespan_ns` closed
/// there; steal attempts appear as async `b`/`e` pairs matched on the
/// attempt's trace ID (attempts left open by a crash close at
/// `makespan_ns` with outcome `"unresolved"`); protocol recovery shows
/// up as `i` instants. With `critpath`, a dedicated "critical path"
/// track of `X` slices (one per attributed segment) plus flow arrows
/// hopping rank tracks wherever the path changes rank, so the chain
/// that bounds the makespan is visually traceable.
///
/// The events come from four sources, each already in time order: the
/// track names, the activity trace, the span log and the critical path.
/// They are merged on `(ts, source)` and written one at a time, so the
/// document is never held: the events are in the order a stable sort of
/// the sources' concatenation by `ts` gives.
///
/// # Panics
/// Panics if a source goes back in time, e.g. a record past
/// `makespan_ns`.
pub fn write_chrome_trace(
    out: &mut impl Write,
    spans: &SpanTrace,
    activity: Option<&ActivityTrace>,
    makespan_ns: u64,
    critpath: Option<&CriticalPath>,
) -> io::Result<()> {
    let n_ranks = activity
        .map(|a| a.n_ranks() as usize)
        .unwrap_or(0)
        .max(spans.n_ranks());
    let sources: [Box<dyn Iterator<Item = Event> + '_>; 4] = [
        Box::new((0..n_ranks).map(|rank| track_name(rank, format!("rank {rank}")))),
        Box::new(activity_events(activity, makespan_ns)),
        Box::new(span_events(spans, makespan_ns)),
        Box::new(critpath_events(critpath, n_ranks)),
    ];
    let mut sources = sources.map(Iterator::peekable);
    let mut last = [0u64; 4];
    let mut sep = "";
    out.write_all(b"{\"traceEvents\":[")?;
    while let Some((_, s)) = (0..sources.len())
        .filter_map(|s| Some((sources[s].peek()?.0, s)))
        .min()
    {
        let (ts_ns, e) = sources[s].next().expect("peeked");
        assert!(
            ts_ns >= last[s],
            "Chrome trace source {s} went back in time: {ts_ns} ns after {} ns",
            last[s]
        );
        last[s] = ts_ns;
        write!(out, "{sep}{e}")?;
        sep = ",";
    }
    out.write_all(b"],\"displayTimeUnit\":\"ns\"}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::trace_id;

    fn chrome_text(
        spans: &SpanTrace,
        activity: Option<&ActivityTrace>,
        makespan_ns: u64,
    ) -> String {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, spans, activity, makespan_ns, None).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn json_roundtrip() {
        let doc = JsonValue::obj(vec![
            ("name", "he said \"hi\"\n".into()),
            ("n", JsonValue::Num(42.5)),
            ("neg", JsonValue::Num(-3.0)),
            ("flag", true.into()),
            ("nothing", JsonValue::Null),
            (
                "arr",
                JsonValue::Arr(vec![1u64.into(), "two".into(), JsonValue::Arr(vec![])]),
            ),
            ("empty_obj", JsonValue::Obj(vec![])),
        ]);
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("n").unwrap().as_num(), Some(42.5));
        assert_eq!(back.get("name").unwrap().as_str(), Some("he said \"hi\"\n"));
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\t\" ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_num(), Some(25.0));
        assert_eq!(arr[2].as_str(), Some("A\t"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // A surrogate on its own is not a scalar value.
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\ud83d rest\"").is_err());
        assert!(parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn parse_keeps_multibyte_runs_whole() {
        // 2-, 3- and 4-byte scalars, next to quotes, escapes and each
        // other, in values and in keys.
        let v = parse("{\"clé\": \"é→😀\\n→\\\"é\\\"😀\", \"→\": \"\", \"😀\": \"a😀\"}").unwrap();
        assert_eq!(v.get("clé").unwrap().as_str(), Some("é→😀\n→\"é\"😀"));
        assert_eq!(v.get("→").unwrap().as_str(), Some(""));
        assert_eq!(v.get("😀").unwrap().as_str(), Some("a😀"));
        let doc = JsonValue::obj(vec![("k", "naïve — ∑ 😀 \\ \" \u{7f}".into())]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn parse_decodes_every_escape() {
        let v = parse(r#""q\" b\\ s\/ \b \f \n \r \t \u00e9 \u2192 end""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ \u{8} \u{c} \n \r \t é → end"));
        for bad in [r#""\x""#, r#""\u12""#, r#""\u12g4""#, r#""\"#, r#""abc\"#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_reports_unterminated_strings() {
        for open in ["\"", "\"abc", "\"abc é→😀", "{\"k\": \"v", "[\"a\", \"b"] {
            assert_eq!(parse(open).unwrap_err(), "unterminated string", "{open}");
        }
    }

    #[test]
    fn parse_is_linear_in_string_bytes() {
        // 2 MB of mostly string bytes. A parser that revalidates the
        // rest of the input for every character of every string needs
        // minutes here; one pass takes about 0.1 s in a debug build.
        let word = "steal→reply é😀 0123456789 abcdefghijklmnopqrstuvwxyz";
        let rows: Vec<JsonValue> = (0..32_000u64)
            .map(|i| JsonValue::obj(vec![("name", word.into()), ("ts", i.into())]))
            .collect();
        let text = JsonValue::obj(vec![("traceEvents", JsonValue::Arr(rows))]).to_string();
        assert!(text.len() > 2_000_000, "{} bytes", text.len());
        let t0 = std::time::Instant::now();
        let doc = parse(&text).unwrap();
        let took = t0.elapsed();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 32_000);
        assert_eq!(events[31_999].get("name").unwrap().as_str(), Some(word));
        assert!(took.as_secs() < 10, "2 MB took {took:?}");
    }

    #[test]
    fn histogram_json_totals_match() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let j = histogram_json(&h);
        assert_eq!(j.get("count").unwrap().as_u64(), Some(4));
        let buckets = j.get("buckets").unwrap().as_arr().unwrap();
        let total: u64 = buckets
            .iter()
            .map(|b| b.as_arr().unwrap()[2].as_u64().unwrap())
            .sum();
        assert_eq!(total, 4);
        // And it survives a writer→parser round trip.
        parse(&j.to_string()).unwrap();
    }

    fn sample_spans() -> SpanTrace {
        let id = trace_id(0, 0);
        SpanTrace::from_shard_logs(
            2,
            vec![
                vec![
                    SpanRecord {
                        at_ns: 100,
                        rank: 0,
                        trace: id,
                        kind: SpanKind::StealRequestSent { victim: 1 },
                    },
                    SpanRecord {
                        at_ns: 900,
                        rank: 0,
                        trace: id,
                        kind: SpanKind::StealOk {
                            victim: 1,
                            rtt_ns: 800,
                            nodes: 4,
                        },
                    },
                ],
                vec![SpanRecord {
                    at_ns: 500,
                    rank: 1,
                    trace: id,
                    kind: SpanKind::StealRequestRecv { thief: 0 },
                }],
            ],
        )
    }

    #[test]
    fn chrome_trace_pairs_async_events() {
        let mut activity = ActivityTrace::new(2);
        activity.record(0, 0, true);
        activity.record(1, 200, true);
        activity.record(0, 1000, false);
        // rank 1 still active at makespan: must be closed by exporter.
        let text = chrome_text(&sample_spans(), Some(&activity), 1500);
        let parsed = parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let count_ph = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .count()
        };
        assert_eq!(count_ph("B"), 2);
        assert_eq!(count_ph("E"), 2);
        assert_eq!(count_ph("b"), 1);
        assert_eq!(count_ph("e"), 1);
        assert_eq!(count_ph("n"), 1);
        assert_eq!(count_ph("M"), 2);
    }

    #[test]
    fn chrome_trace_closes_attempts_left_open() {
        let spans = SpanTrace::from_shard_logs(
            1,
            vec![vec![SpanRecord {
                at_ns: 100,
                rank: 0,
                trace: trace_id(0, 0),
                kind: SpanKind::StealRequestSent { victim: 1 },
            }]],
        );
        let text = chrome_text(&spans, None, 1000);
        // Recorded before the exporter became a streaming writer.
        assert_eq!(
            text,
            r#"{"traceEvents":[{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"rank 0"}},{"name":"steal","cat":"steal","ph":"b","ts":0.1,"pid":0,"tid":0,"id":"0","args":{"victim":1}},{"name":"steal chain","cat":"steal-flow","ph":"s","ts":0.1,"pid":0,"tid":0,"id":"0"},{"name":"steal","cat":"steal","ph":"e","ts":1,"pid":0,"tid":0,"id":"0","args":{"outcome":"unresolved"}}],"displayTimeUnit":"ns"}"#
        );
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let closes: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("e"))
            .collect();
        assert_eq!(closes.len(), 1);
        assert_eq!(
            closes[0]
                .get("args")
                .and_then(|a| a.get("outcome"))
                .and_then(|o| o.as_str()),
            Some("unresolved")
        );
    }

    #[test]
    fn link_matrix_reports_totals() {
        let links = vec![
            ("(0,0,0,0,0,0)+x".to_string(), 7u64),
            ("(1,0,0,0,0,0)+y".to_string(), 3),
        ];
        let j = link_matrix_json(&links, 2.1);
        assert_eq!(j.get("links_used").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("total_link_units").unwrap().as_u64(), Some(10));
        parse(&j.to_string()).unwrap();
    }

    /// The victim's one service record draws what its three records
    /// (request received, reply sent, serviced) drew, and counts as all
    /// three. Both literals were recorded from the three-record log.
    #[test]
    fn a_service_record_draws_and_counts_as_the_three_it_replaced() {
        let id = trace_id(0, 3);
        let span = |at_ns, rank, kind| SpanRecord {
            at_ns,
            rank,
            trace: id,
            kind,
        };
        let spans = SpanTrace::from_shard_logs(
            2,
            vec![vec![
                span(100, 0, SpanKind::StealRequestSent { victim: 1 }),
                span(
                    500,
                    1,
                    SpanKind::StealServiced {
                        thief: 0,
                        nodes: 4,
                        queue_ns: 30,
                        depart_delay_ns: 20,
                    },
                ),
                span(
                    900,
                    0,
                    SpanKind::StealOk {
                        victim: 1,
                        rtt_ns: 800,
                        nodes: 4,
                    },
                ),
            ]],
        );
        assert_eq!(
            chrome_text(&spans, None, 1000),
            r#"{"traceEvents":[{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"rank 0"}},{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"rank 1"}},{"name":"steal","cat":"steal","ph":"b","ts":0.1,"pid":0,"tid":0,"id":"3","args":{"victim":1}},{"name":"steal chain","cat":"steal-flow","ph":"s","ts":0.1,"pid":0,"tid":0,"id":"3"},{"name":"service","cat":"steal","ph":"n","ts":0.5,"pid":0,"tid":1,"id":"3"},{"name":"steal chain","cat":"steal-flow","ph":"t","ts":0.5,"pid":0,"tid":1,"id":"3"},{"name":"service","cat":"steal","ph":"n","ts":0.5,"pid":0,"tid":1,"id":"3"},{"name":"steal chain","cat":"steal-flow","ph":"t","ts":0.5,"pid":0,"tid":1,"id":"3"},{"name":"serviced","cat":"steal","ph":"n","ts":0.5,"pid":0,"tid":1,"id":"3","args":{"queue_ns":30,"depart_delay_ns":20}},{"name":"steal","cat":"steal","ph":"e","ts":0.9,"pid":0,"tid":0,"id":"3","args":{"outcome":"ok","nodes":4}},{"name":"steal chain","cat":"steal-flow","ph":"f","ts":0.9,"pid":0,"tid":0,"id":"3","bp":"e"}],"displayTimeUnit":"ns"}"#
        );
        assert_eq!(
            span_counts_json(&spans).to_string(),
            r#"{"steal_request_sent":1,"steal_request_recv":1,"steal_reply_sent":1,"steal_serviced":1,"steal_ok":1,"steal_empty":0,"steal_timeout":0,"steal_abandoned":0,"transfer_acked":0,"retransmit":0,"token_hop":0,"token_regenerated":0,"quarantined":0,"session_end":0,"done":0}"#
        );
    }

    #[test]
    fn span_counts_cover_every_kind_recorded() {
        let j = span_counts_json(&sample_spans());
        assert_eq!(j.get("steal_request_sent").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("steal_ok").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("steal_request_recv").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("steal_empty").unwrap().as_u64(), Some(0));
    }
}
