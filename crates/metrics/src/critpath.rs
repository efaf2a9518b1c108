//! Causal critical-path extraction: *why* is the makespan that number?
//!
//! The paper's figures rank victim-selection policies by makespan;
//! Gast, Khatiri and Trystram's latency analysis (arXiv:1805.00857)
//! explains the ranking by decomposing idle time into request travel,
//! response travel and failed-attempt overhead. This module performs
//! that decomposition *exactly* on a recorded run: it reconstructs the
//! happens-before chain that bounds the makespan from the
//! [`SpanTrace`] and the [`ActivityTrace`] (both on the global clock),
//! and tiles the interval `[0, makespan]` with contiguous segments, each
//! attributed to one [`Component`].
//!
//! ## The walk
//!
//! The extraction walks *backward* from the termination anchor (the
//! last busy→idle transition of any rank). At every step it asks what
//! the current rank was doing and what caused it:
//!
//! - busy? The segment is [`Component::Compute`]; the cause of the
//!   busy interval's start is either the root of the tree (rank 0 at
//!   t = 0) or a steal reply.
//! - busy because of a steal? Follow the attempt's trace ID backward
//!   through reply travel, the victim's service window (queue wait +
//!   reply-departure delay, from the [`SpanKind::StealServiced`]
//!   record), and — when the victim was idle and answered immediately
//!   — the request's own travel back to the thief. When the victim was
//!   *busy* at the request's arrival, the binding constraint is the
//!   victim's compute batch, so the walk hops to the victim's
//!   timeline and keeps going there.
//! - idle? The window is tiled by the rank's own failed steal
//!   attempts: in-flight waits and backoff gaps are
//!   [`Component::TimeoutRetry`], re-selection gaps right after an
//!   adaptive quarantine are [`Component::QuarantineReselect`], and
//!   anything the spans cannot explain (e.g. waiting for a lifeline
//!   push) is [`Component::IdleOther`] — an honest residue, zero on
//!   clean runs.
//!
//! Because every step emits segments that share boundaries with their
//! neighbors, the components sum to the measured makespan *by
//! construction* — a `u64` identity, not an approximation — which
//! [`CriticalPath::check`] verifies and a property test enforces
//! across seeds, fault plans and thread counts.
//!
//! The analyzer is read-only: it consumes traces a run already
//! produced and never feeds anything back into the simulation.

use crate::span::{SpanKind, SpanLog, SpanRecord, SpanTrace};
use crate::trace::ActivityTrace;

/// What a stretch of the critical path (or of one rank's timeline) was
/// spent on. Every nanosecond of the makespan lands in exactly one of
/// these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// A rank was expanding tree nodes (includes victim-side message
    /// servicing billed to its compute batches).
    Compute,
    /// A steal request was in flight thief → victim.
    RequestTravel,
    /// A request sat in the victim's pending queue and was serviced
    /// (queue wait until the victim's poll point, plus the victim-side
    /// CPU debt delaying the reply's departure).
    QueueAtVictim,
    /// The work-carrying reply was in flight victim → thief.
    ReplyTravel,
    /// Failed-attempt overhead: in-flight waits of attempts that came
    /// back empty or timed out, plus retry/backoff gaps between
    /// attempts.
    TimeoutRetry,
    /// Re-selection gap immediately after adaptive victim selection
    /// quarantined the chosen victim.
    QuarantineReselect,
    /// After the last rank ran out of work: termination-token
    /// circulation and the Done broadcast.
    TerminationTail,
    /// Idle time the spans cannot causally explain (lifeline dormancy,
    /// crash shadows). Zero on clean runs — kept as an honest residue
    /// rather than silently misattributed.
    IdleOther,
}

impl Component {
    /// Every component, in report order.
    pub const ALL: [Component; 8] = [
        Component::Compute,
        Component::RequestTravel,
        Component::QueueAtVictim,
        Component::ReplyTravel,
        Component::TimeoutRetry,
        Component::QuarantineReselect,
        Component::TerminationTail,
        Component::IdleOther,
    ];

    /// Position in [`ALL`](Self::ALL), the order the variants are
    /// declared in.
    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Component::Compute => "compute",
            Component::RequestTravel => "request travel",
            Component::QueueAtVictim => "queue at victim",
            Component::ReplyTravel => "reply travel",
            Component::TimeoutRetry => "timeout+retry",
            Component::QuarantineReselect => "quarantine reselect",
            Component::TerminationTail => "termination tail",
            Component::IdleOther => "idle (other)",
        }
    }

    /// Stable machine-readable key (JSON field name).
    pub fn key(self) -> &'static str {
        match self {
            Component::Compute => "compute_ns",
            Component::RequestTravel => "request_travel_ns",
            Component::QueueAtVictim => "queue_at_victim_ns",
            Component::ReplyTravel => "reply_travel_ns",
            Component::TimeoutRetry => "timeout_retry_ns",
            Component::QuarantineReselect => "quarantine_reselect_ns",
            Component::TerminationTail => "termination_tail_ns",
            Component::IdleOther => "idle_other_ns",
        }
    }

    /// Parse a [`key`](Self::key) back into the component.
    pub fn from_key(key: &str) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.key() == key)
    }
}

/// One attributed stretch of the critical path: `[from_ns, to_ns)` on
/// `rank`'s timeline (travel segments are billed to the rank that
/// waits on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Segment start (global nanoseconds).
    pub from_ns: u64,
    /// Segment end (global nanoseconds).
    pub to_ns: u64,
    /// Rank whose timeline the segment sits on.
    pub rank: u32,
    /// What the time was spent on.
    pub component: Component,
}

impl Segment {
    /// Segment length in nanoseconds.
    #[inline]
    pub fn dur_ns(&self) -> u64 {
        self.to_ns - self.from_ns
    }
}

/// The extracted critical path: contiguous segments tiling
/// `[0, makespan]` exactly.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    segments: Vec<Segment>,
    makespan_ns: u64,
}

impl CriticalPath {
    /// Extract the critical path of a run from its spans and
    /// activity trace.
    pub fn extract(spans: &SpanTrace, activity: &ActivityTrace, makespan_ns: u64) -> CriticalPath {
        CriticalPath {
            segments: Analyzer::new(spans, activity, makespan_ns).critical_path(),
            makespan_ns,
        }
    }

    /// The segments, in forward time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The makespan the path was extracted against.
    pub fn makespan_ns(&self) -> u64 {
        self.makespan_ns
    }

    /// Total path length — equal to the makespan when the tiling is
    /// exact (see [`check`](Self::check)).
    pub fn len_ns(&self) -> u64 {
        self.segments.iter().map(Segment::dur_ns).sum()
    }

    /// Total nanoseconds attributed to each component, in
    /// [`Component::ALL`] order. The values sum to the makespan.
    pub fn totals(&self) -> Vec<(Component, u64)> {
        let mut by = [0u64; 8];
        for s in &self.segments {
            by[s.component.index()] += s.dur_ns();
        }
        Component::ALL.into_iter().zip(by).collect()
    }

    /// Verify the exactness invariant: segments are contiguous,
    /// non-empty, start at 0, end at the makespan, and therefore sum
    /// to it to the nanosecond.
    pub fn check(&self) -> Result<(), String> {
        if self.makespan_ns == 0 {
            return Ok(());
        }
        let Some(first) = self.segments.first() else {
            return Err("empty critical path for a nonzero makespan".into());
        };
        if first.from_ns != 0 {
            return Err(format!("critical path starts at {} ≠ 0", first.from_ns));
        }
        let last = self.segments.last().expect("nonempty");
        if last.to_ns != self.makespan_ns {
            return Err(format!(
                "critical path ends at {} ≠ makespan {}",
                last.to_ns, self.makespan_ns
            ));
        }
        for w in self.segments.windows(2) {
            if w[0].to_ns != w[1].from_ns {
                return Err(format!(
                    "gap on the critical path: segment ends at {} but next starts at {}",
                    w[0].to_ns, w[1].from_ns
                ));
            }
        }
        for s in &self.segments {
            if s.from_ns >= s.to_ns {
                return Err(format!(
                    "empty or negative segment [{}, {}]",
                    s.from_ns, s.to_ns
                ));
            }
        }
        let len = self.len_ns();
        if len != self.makespan_ns {
            return Err(format!(
                "critical path length {len} ≠ makespan {}",
                self.makespan_ns
            ));
        }
        Ok(())
    }

    /// The `k` longest segments, by duration descending (ties broken
    /// by earlier start).
    pub fn top_segments(&self, k: usize) -> Vec<Segment> {
        let mut segs = self.segments.clone();
        segs.sort_by_key(|s| (std::cmp::Reverse(s.dur_ns()), s.from_ns));
        segs.truncate(k);
        segs
    }
}

/// Per-rank makespan decomposition (the `dws why` waterfall): each
/// rank's `[0, makespan]` tiled by the same component taxonomy as the
/// critical path. Per rank, the fields sum to the makespan.
#[derive(Debug, Clone)]
pub struct RankWaterfall {
    /// The rank.
    pub rank: u32,
    /// Nanoseconds per component, in [`Component::ALL`] order.
    pub by_component: [u64; 8],
}

impl RankWaterfall {
    /// Nanoseconds this rank spent on `c`.
    pub fn get(&self, c: Component) -> u64 {
        self.by_component[c.index()]
    }

    /// Sum across components (equals the makespan).
    pub fn total(&self) -> u64 {
        self.by_component.iter().sum()
    }
}

/// Decompose every rank's timeline with the same attribution rules the
/// critical path uses. Returns one row per rank; each row's components
/// sum to `makespan_ns` exactly.
pub fn rank_waterfall(
    spans: &SpanTrace,
    activity: &ActivityTrace,
    makespan_ns: u64,
) -> Vec<RankWaterfall> {
    Analyzer::new(spans, activity, makespan_ns).waterfall()
}

/// The critical path and the per-rank waterfall of one run from one
/// pass over its traces — what a blame report needs.
pub(crate) fn attribute(
    spans: &SpanTrace,
    activity: &ActivityTrace,
    makespan_ns: u64,
) -> (CriticalPath, Vec<RankWaterfall>) {
    let analyzer = Analyzer::new(spans, activity, makespan_ns);
    let path = CriticalPath {
        segments: analyzer.critical_path(),
        makespan_ns,
    };
    (path, analyzer.waterfall())
}

/// Shared preprocessing for path extraction and the per-rank
/// waterfall: built once per report, read by both.
struct Analyzer<'a> {
    makespan_ns: u64,
    n_ranks: usize,
    /// Per-rank busy intervals, ascending, zero-length dropped; open
    /// intervals closed at the makespan.
    busy: Vec<Vec<(u64, u64)>>,
    /// The run's span records, `(at_ns, rank)` ascending.
    records: &'a SpanLog,
    /// The byte offsets into `records` of the spans relevant to idle
    /// classification and chain lookup, rank by rank, each rank's
    /// ascending in time; each is decoded when it is read.
    rank_spans: Vec<u32>,
    /// Where each rank's offsets start in `rank_spans`, and where the
    /// last one ends: `n_ranks + 1` entries.
    rank_bounds: Vec<u32>,
    /// `(trace ID, byte offset)` of every steal request sent and every
    /// victim-side service of the attempts that ended in `StealOk`, the
    /// only traces a chain is looked up for; sorted, so a trace's
    /// entries are in log order, which is time order. Its first request
    /// is its first send (a retransmitted seq reuses the ID, and the
    /// thief started waiting at the first); it usually has one service,
    /// and duplicated deliveries can yield more. Each is decoded where
    /// it is read.
    chains: Vec<(u64, u32)>,
}

/// Whether `kind` enters a rank's span index: the thief-side records
/// that tile idle windows and find the steal that ended one.
fn rank_indexed(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::StealRequestSent { .. }
            | SpanKind::StealOk { .. }
            | SpanKind::StealEmpty { .. }
            | SpanKind::StealTimeout { .. }
            | SpanKind::StealAbandoned { .. }
            | SpanKind::Quarantined { .. }
    )
}

impl<'a> Analyzer<'a> {
    fn new(spans: &'a SpanTrace, activity: &ActivityTrace, makespan_ns: u64) -> Analyzer<'a> {
        let n_ranks = (activity.n_ranks() as usize).max(spans.n_ranks()).max(1);

        // Busy intervals from the activity trace.
        let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_ranks];
        let mut since: Vec<Option<u64>> = vec![None; n_ranks];
        for t in activity.transitions() {
            let r = t.rank as usize;
            match (t.active, since[r]) {
                (true, None) => since[r] = Some(t.at_ns),
                (false, Some(s)) => {
                    if t.at_ns > s {
                        busy[r].push((s, t.at_ns.min(makespan_ns)));
                    }
                    since[r] = None;
                }
                // Tolerate duplicates the same way busy accounting does.
                _ => {}
            }
        }
        for (r, s) in since.iter().enumerate() {
            if let Some(s) = s {
                if makespan_ns > *s {
                    busy[r].push((*s, makespan_ns));
                }
            }
        }

        // Per-rank spans and cross-rank chains, in two passes: the
        // first counts each rank's indexed spans and collects the
        // traces that delivered work, the second fills both indexes.
        let records = spans.records();
        assert!(
            u32::try_from(records.encoded_bytes()).is_ok(),
            "span offsets are 32-bit"
        );
        let mut rank_bounds = vec![0u32; n_ranks + 1];
        let mut ok_traces: Vec<u64> = Vec::new();
        for rec in records {
            if rec.rank < n_ranks && rank_indexed(rec.kind) {
                rank_bounds[rec.rank + 1] += 1;
            }
            if matches!(rec.kind, SpanKind::StealOk { .. }) {
                ok_traces.push(rec.trace);
            }
        }
        for r in 0..n_ranks {
            rank_bounds[r + 1] += rank_bounds[r];
        }
        ok_traces.sort_unstable();
        ok_traces.dedup();
        let mut rank_spans = vec![0u32; rank_bounds[n_ranks] as usize];
        let mut next = rank_bounds[..n_ranks].to_vec();
        let mut chains: Vec<(u64, u32)> = Vec::with_capacity(2 * ok_traces.len());
        for (offset, rec) in records.with_offsets() {
            if matches!(
                rec.kind,
                SpanKind::StealRequestSent { .. } | SpanKind::StealServiced { .. }
            ) && ok_traces.binary_search(&rec.trace).is_ok()
            {
                chains.push((rec.trace, offset as u32));
            }
            if rec.rank < n_ranks && rank_indexed(rec.kind) {
                rank_spans[next[rec.rank] as usize] = offset as u32;
                next[rec.rank] += 1;
            }
        }
        chains.sort_unstable();

        Analyzer {
            makespan_ns,
            n_ranks,
            busy,
            records,
            rank_spans,
            rank_bounds,
            chains,
        }
    }

    /// The request and service records of `trace`, in log order; none
    /// unless `trace` ended in `StealOk`.
    fn chain(&self, trace: u64) -> impl Iterator<Item = SpanRecord> + '_ {
        let start = self.chains.partition_point(|&(t, _)| t < trace);
        self.chains[start..]
            .iter()
            .take_while(move |&&(t, _)| t == trace)
            .map(|&(_, offset)| self.rec(offset))
    }

    /// The byte offsets of `rank`'s indexed spans, ascending in time.
    #[inline]
    fn rank_spans(&self, rank: usize) -> &[u32] {
        &self.rank_spans[self.rank_bounds[rank] as usize..self.rank_bounds[rank + 1] as usize]
    }

    /// The record behind an entry of `rank_spans`.
    #[inline]
    fn rec(&self, offset: u32) -> SpanRecord {
        self.records.at(offset as usize)
    }

    /// The `at_ns` of the record behind an entry of `rank_spans`.
    #[inline]
    fn at_ns(&self, offset: u32) -> u64 {
        self.records.at_ns(offset as usize)
    }

    /// How many of `rank`'s relevant spans lie at or before `t`.
    fn spans_until(&self, rank: usize, t: u64) -> usize {
        self.rank_spans(rank)
            .partition_point(|&i| self.at_ns(i) <= t)
    }

    /// The busy interval of `rank` with `start < t <= end`, if any.
    fn busy_interval_at(&self, rank: usize, t: u64) -> Option<(u64, u64)> {
        let iv = &self.busy[rank];
        // First interval with end >= t.
        let i = iv.partition_point(|&(_, e)| e < t);
        iv.get(i).copied().filter(|&(s, _)| s < t)
    }

    /// End of the last busy interval of `rank` ending at or before `t`
    /// (0 when the rank was never busy before `t`).
    fn prev_busy_end(&self, rank: usize, t: u64) -> u64 {
        let iv = &self.busy[rank];
        let i = iv.partition_point(|&(_, e)| e <= t);
        if i == 0 {
            0
        } else {
            iv[i - 1].1
        }
    }

    /// The latest `StealOk` on `rank` in `(lo, hi]`, if any.
    fn last_ok_in(&self, rank: usize, lo: u64, hi: u64) -> Option<SpanRecord> {
        self.rank_spans(rank)[..self.spans_until(rank, hi)]
            .iter()
            .rev()
            .map(|&i| self.rec(i))
            .take_while(|r| r.at_ns > lo)
            .find(|r| matches!(r.kind, SpanKind::StealOk { .. }))
    }

    /// Tile the idle window `[lo, hi]` of `rank` by its own steal
    /// attempts, appending forward-ordered segments to `out`.
    fn classify_idle(&self, rank: usize, lo: u64, hi: u64, out: &mut Vec<Segment>) {
        if hi <= lo {
            return;
        }
        let mut prev = lo;
        let mut last_kind: Option<SpanKind> = None;
        for rec in self.rank_spans(rank)[self.spans_until(rank, lo)..]
            .iter()
            .map(|&i| self.rec(i))
        {
            if rec.at_ns > hi {
                break;
            }
            let m = rec.at_ns;
            if m > prev {
                let component = match rec.kind {
                    // An attempt resolved at m: the interval was an
                    // in-flight wait. Failed attempts are the
                    // timeout+retry overhead of Gast et al.; a StealOk
                    // inside an idle window (no matching activity
                    // transition — e.g. a reply whose work went
                    // straight into a lifeline push) is still steal
                    // wait, kept under the same heading.
                    SpanKind::StealOk { .. }
                    | SpanKind::StealEmpty { .. }
                    | SpanKind::StealTimeout { .. }
                    | SpanKind::StealAbandoned { .. } => Component::TimeoutRetry,
                    // Gap before (re)sending a request: the
                    // re-selection + retry delay. Right after an
                    // adaptive quarantine it is the quarantine's
                    // re-selection cost.
                    SpanKind::StealRequestSent { .. } => {
                        if matches!(last_kind, Some(SpanKind::Quarantined { .. })) {
                            Component::QuarantineReselect
                        } else {
                            Component::TimeoutRetry
                        }
                    }
                    SpanKind::Quarantined { .. } => Component::TimeoutRetry,
                    _ => Component::IdleOther,
                };
                out.push(Segment {
                    from_ns: prev,
                    to_ns: m,
                    rank: rank as u32,
                    component,
                });
                prev = m;
            }
            last_kind = Some(rec.kind);
        }
        if hi > prev {
            // Trailing stretch up to the window's end (a busy start,
            // the departure of the winning request, or the makespan).
            let component = match last_kind {
                Some(SpanKind::Quarantined { .. }) => Component::QuarantineReselect,
                Some(
                    SpanKind::StealRequestSent { .. }
                    | SpanKind::StealOk { .. }
                    | SpanKind::StealEmpty { .. }
                    | SpanKind::StealTimeout { .. }
                    | SpanKind::StealAbandoned { .. },
                ) => Component::TimeoutRetry,
                _ => Component::IdleOther,
            };
            out.push(Segment {
                from_ns: prev,
                to_ns: hi,
                rank: rank as u32,
                component,
            });
        }
    }

    /// Resolve the steal chain explaining a busy start of `rank` at
    /// `s` (work arrived), given the idle window floor `lo`. Returns
    /// the backward-ordered chain segments and where the walk
    /// continues, or `None` when the chain cannot be stitched.
    ///
    /// Chain (forward): … → request departs thief at `req` →
    /// arrives at victim (`arrival = serviced_at - queue_ns`) → waits
    /// for the victim's poll + service (`depart = serviced_at +
    /// depart_delay_ns`) → reply travels back, arriving at `s`.
    /// `hop_to_victim` enables the cross-rank continuation the
    /// critical path wants; the per-rank waterfall disables it and
    /// keeps the whole decomposition on the thief's timeline.
    fn resolve_chain(
        &self,
        rank: usize,
        lo: u64,
        s: u64,
        hop_to_victim: bool,
        out: &mut Vec<Segment>,
    ) -> Option<(usize, u64)> {
        let ok = self.last_ok_in(rank, lo, s)?;
        let req = self
            .chain(ok.trace)
            .find(|r| matches!(r.kind, SpanKind::StealRequestSent { .. }))?
            .at_ns;
        // With duplicated deliveries the victim can service one
        // request twice; the reply that won is the latest one at or
        // before the thief's wake-up, else the first.
        let (mut first, mut won) = (None, None);
        for r in self.chain(ok.trace) {
            if let SpanKind::StealServiced {
                queue_ns,
                depart_delay_ns,
                ..
            } = r.kind
            {
                let svc = (r.at_ns, r.rank, queue_ns, depart_delay_ns);
                first = first.or(Some(svc));
                if r.at_ns <= s {
                    won = Some(svc);
                }
            }
        }
        let (svc_at, victim, queue_ns, depart_delay_ns) = won.or(first)?;
        if victim >= self.n_ranks {
            return None;
        }
        // Clamp the chain into [lo, s] in order (req ≤ arrival ≤
        // depart): every rank reads one clock, so only a duplicated
        // delivery can stitch records out of order into a negative
        // segment.
        let req = req.clamp(lo, s);
        let arrival = svc_at.saturating_sub(queue_ns).clamp(req, s);
        let depart = (svc_at.saturating_add(depart_delay_ns)).clamp(arrival, s);
        if depart < s {
            out.push(Segment {
                from_ns: depart,
                to_ns: s,
                rank: rank as u32,
                component: Component::ReplyTravel,
            });
        }
        if arrival < depart {
            out.push(Segment {
                from_ns: arrival,
                to_ns: depart,
                rank: victim as u32,
                component: Component::QueueAtVictim,
            });
        }
        // If the request queued because the victim was busy, the
        // binding constraint at `arrival` is the victim's compute
        // batch: hop to the victim's timeline. Otherwise the request's
        // own travel is what ends at `arrival`.
        if hop_to_victim && queue_ns > 0 && arrival > 0 && arrival < s {
            if let Some((vs, _)) = self.busy_interval_at(victim, arrival) {
                if vs < arrival {
                    return Some((victim, arrival));
                }
            }
        }
        if req < arrival {
            out.push(Segment {
                from_ns: req,
                to_ns: arrival,
                rank: rank as u32,
                component: Component::RequestTravel,
            });
        }
        // Preceding failed attempts (if any) tile [lo, req].
        self.classify_idle_rev(rank, lo, req, out);
        Some((rank, lo))
    }

    /// [`classify_idle`], but appending in backward order (the walk
    /// builds the path back-to-front).
    fn classify_idle_rev(&self, rank: usize, lo: u64, hi: u64, out: &mut Vec<Segment>) {
        let start = out.len();
        self.classify_idle(rank, lo, hi, out);
        out[start..].reverse();
    }

    /// Extract the critical path: backward walk from the termination
    /// anchor, returning forward-ordered segments tiling
    /// `[0, makespan]`.
    fn critical_path(&self) -> Vec<Segment> {
        let t_end = self.makespan_ns;
        let mut rev: Vec<Segment> = Vec::new();
        if t_end == 0 {
            return rev;
        }

        // Termination anchor: the last busy→idle transition anywhere.
        let (w_rank, w) = (0..self.n_ranks)
            .filter_map(|r| self.busy[r].last().map(|&(_, e)| (r, e)))
            .max_by_key(|&(r, e)| (e, r))
            .unwrap_or((0, 0));
        if w < t_end {
            rev.push(Segment {
                from_ns: w,
                to_ns: t_end,
                rank: w_rank as u32,
                component: Component::TerminationTail,
            });
        }

        let mut cur_rank = w_rank;
        let mut cur_t = w;
        // Strict-progress backstop: the walk must shrink `cur_t` every
        // iteration; any stall (malformed traces) downgrades the rest
        // of the timeline to IdleOther instead of spinning.
        let budget =
            4 * (self.rank_spans.len() + self.busy.iter().map(Vec::len).sum::<usize>()) + 64;
        let mut steps = 0usize;
        while cur_t > 0 {
            steps += 1;
            let stalled = steps > budget;
            let next = if stalled {
                None
            } else if let Some((s, _)) = self.busy_interval_at(cur_rank, cur_t) {
                // Busy up to cur_t: compute, then explain the busy
                // start.
                rev.push(Segment {
                    from_ns: s,
                    to_ns: cur_t,
                    rank: cur_rank as u32,
                    component: Component::Compute,
                });
                if s == 0 {
                    break;
                }
                let lo = self.prev_busy_end(cur_rank, s);
                debug_assert!(lo <= s);
                let lo = lo.min(s);
                match self.resolve_chain(cur_rank, lo, s, true, &mut rev) {
                    Some((r, t)) if t < s => Some((r, t)),
                    Some(_) | None => {
                        // No resolvable chain (root work, lifeline
                        // push, crash shadow): classify the idle
                        // window from the rank's own attempts.
                        // resolve_chain pushes nothing before
                        // returning a non-progressing continuation,
                        // so the window is still whole here.
                        self.classify_idle_rev(cur_rank, lo, s, &mut rev);
                        Some((cur_rank, lo))
                    }
                }
            } else {
                // Idle at cur_t: tile down to the previous busy end.
                let lo = self.prev_busy_end(cur_rank, cur_t);
                self.classify_idle_rev(cur_rank, lo, cur_t, &mut rev);
                Some((cur_rank, lo))
            };
            match next {
                Some((r, t)) if t < cur_t => {
                    cur_rank = r;
                    cur_t = t;
                }
                Some((_, 0)) => break,
                _ => {
                    // Stalled: attribute the unexplained remainder
                    // honestly and stop.
                    if cur_t > 0 {
                        rev.push(Segment {
                            from_ns: 0,
                            to_ns: cur_t,
                            rank: cur_rank as u32,
                            component: Component::IdleOther,
                        });
                    }
                    break;
                }
            }
        }

        rev.reverse();
        rev
    }

    /// Per-rank waterfall: tile every rank's `[0, makespan]`.
    fn waterfall(&self) -> Vec<RankWaterfall> {
        let t_end = self.makespan_ns;
        // One rank's segments at a time; only their sums are kept, so
        // the backward order `resolve_chain` appends in is left as is.
        let mut segs: Vec<Segment> = Vec::new();
        (0..self.n_ranks)
            .map(|r| {
                segs.clear();
                let mut cursor = 0u64;
                for &(s, e) in &self.busy[r] {
                    // Idle window [cursor, s] ending at a busy start:
                    // attribute via the steal chain when it resolves
                    // (it appends nothing when it does not), else via
                    // the rank's own attempts.
                    if s > cursor && self.resolve_chain(r, cursor, s, false, &mut segs).is_none() {
                        self.classify_idle(r, cursor, s, &mut segs);
                    }
                    segs.push(Segment {
                        from_ns: s,
                        to_ns: e,
                        rank: r as u32,
                        component: Component::Compute,
                    });
                    cursor = e;
                }
                if t_end > cursor {
                    // Trailing idle: after this rank's last work, the
                    // run was winding down (or the rank kept hunting).
                    let has_attempts = self
                        .rank_spans(r)
                        .last()
                        .is_some_and(|&i| self.at_ns(i) > cursor);
                    if has_attempts {
                        self.classify_idle(r, cursor, t_end, &mut segs);
                    } else {
                        segs.push(Segment {
                            from_ns: cursor,
                            to_ns: t_end,
                            rank: r as u32,
                            component: Component::TerminationTail,
                        });
                    }
                }
                let mut by_component = [0u64; 8];
                for seg in &segs {
                    by_component[seg.component.index()] += seg.dur_ns();
                }
                RankWaterfall {
                    rank: r as u32,
                    by_component,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::trace_id;

    /// Hand-built two-rank run: rank 0 computes [0, 1000]; rank 1
    /// fails one steal, then succeeds and computes [900, 1400]; both
    /// idle until termination at 1500.
    fn two_rank_run() -> (SpanTrace, ActivityTrace, u64) {
        let id0 = trace_id(1, 0);
        let id1 = trace_id(1, 1);
        let r1 = vec![
            SpanRecord {
                at_ns: 0,
                rank: 1,
                trace: id0,
                kind: SpanKind::StealRequestSent { victim: 0 },
            },
            SpanRecord {
                at_ns: 200,
                rank: 1,
                trace: id0,
                kind: SpanKind::StealEmpty {
                    victim: 0,
                    rtt_ns: 200,
                },
            },
            SpanRecord {
                at_ns: 300,
                rank: 1,
                trace: id1,
                kind: SpanKind::StealRequestSent { victim: 0 },
            },
            SpanRecord {
                at_ns: 900,
                rank: 1,
                trace: id1,
                kind: SpanKind::StealOk {
                    victim: 0,
                    rtt_ns: 600,
                    nodes: 40,
                },
            },
        ];
        let r0 = vec![SpanRecord {
            at_ns: 700,
            rank: 0,
            trace: id1,
            // Request arrived at 400, waited 300 for the poll point,
            // reply departed 100 later at 800.
            kind: SpanKind::StealServiced {
                thief: 1,
                nodes: 4,
                queue_ns: 300,
                depart_delay_ns: 100,
            },
        }];
        let spans = SpanTrace::from_shard_logs(2, vec![r0, r1]);
        let mut act = ActivityTrace::new(2);
        act.record(0, 0, true);
        act.record(1, 900, true);
        act.record(0, 1000, false);
        act.record(1, 1400, false);
        (spans, act, 1500)
    }

    #[test]
    fn path_tiles_makespan_exactly() {
        let (spans, act, t) = two_rank_run();
        let cp = CriticalPath::extract(&spans, &act, t);
        cp.check().unwrap();
        assert_eq!(cp.len_ns(), t);
        let total: u64 = cp.totals().iter().map(|&(_, v)| v).sum();
        assert_eq!(total, t);
    }

    #[test]
    fn path_walks_through_the_victim() {
        let (spans, act, t) = two_rank_run();
        let cp = CriticalPath::extract(&spans, &act, t);
        // Expected tiling (forward): compute on rank 0 [0, 400],
        // queue at victim [400, 800], reply travel [800, 900],
        // compute on rank 1 [900, 1400], termination tail [1400, 1500].
        let comps: Vec<(Component, u64)> = cp
            .segments()
            .iter()
            .map(|s| (s.component, s.dur_ns()))
            .collect();
        assert_eq!(
            comps,
            vec![
                (Component::Compute, 400),
                (Component::QueueAtVictim, 400),
                (Component::ReplyTravel, 100),
                (Component::Compute, 500),
                (Component::TerminationTail, 100),
            ]
        );
        // The queue segment sits on the victim's timeline.
        assert_eq!(cp.segments()[1].rank, 0);
    }

    #[test]
    fn idle_victim_chain_uses_request_travel() {
        // Same shape, but the victim answered from idle: queue_ns = 0
        // and the victim is idle at arrival, so the chain runs back
        // through the request's travel and the thief's earlier failed
        // attempt.
        let id = trace_id(1, 0);
        let r0 = vec![SpanRecord {
            at_ns: 400,
            rank: 0,
            trace: id,
            kind: SpanKind::StealServiced {
                thief: 1,
                nodes: 4,
                queue_ns: 0,
                depart_delay_ns: 100,
            },
        }];
        let r1 = vec![
            SpanRecord {
                at_ns: 100,
                rank: 1,
                trace: id,
                kind: SpanKind::StealRequestSent { victim: 0 },
            },
            SpanRecord {
                at_ns: 700,
                rank: 1,
                trace: id,
                kind: SpanKind::StealOk {
                    victim: 0,
                    rtt_ns: 600,
                    nodes: 4,
                },
            },
        ];
        let spans = SpanTrace::from_shard_logs(2, vec![r0, r1]);
        let mut act = ActivityTrace::new(2);
        // Rank 0 idle throughout (it had stashed work to give away but
        // the trace says idle — fine for the test); rank 1 computes
        // from the reply to the end.
        act.record(1, 700, true);
        act.record(1, 1000, false);
        let cp = CriticalPath::extract(&spans, &act, 1000);
        cp.check().unwrap();
        let comps: Vec<(Component, u64)> = cp
            .segments()
            .iter()
            .map(|s| (s.component, s.dur_ns()))
            .collect();
        assert_eq!(
            comps,
            vec![
                (Component::TimeoutRetry, 100),  // [0,100] pre-send
                (Component::RequestTravel, 300), // [100,400]
                (Component::QueueAtVictim, 100), // [400,500] service
                (Component::ReplyTravel, 200),   // [500,700]
                (Component::Compute, 300),       // [700,1000]
            ]
        );
    }

    #[test]
    fn quarantine_gap_is_attributed() {
        let id0 = trace_id(0, 0);
        let r0 = vec![
            SpanRecord {
                at_ns: 100,
                rank: 0,
                trace: id0,
                kind: SpanKind::StealRequestSent { victim: 1 },
            },
            SpanRecord {
                at_ns: 400,
                rank: 0,
                trace: id0,
                kind: SpanKind::StealTimeout {
                    victim: 1,
                    backoff_doublings: 1,
                },
            },
            SpanRecord {
                at_ns: 400,
                rank: 0,
                trace: id0,
                kind: SpanKind::Quarantined { victim: 1 },
            },
            SpanRecord {
                at_ns: 600,
                rank: 0,
                trace: trace_id(0, 1),
                kind: SpanKind::StealRequestSent { victim: 2 },
            },
        ];
        let spans = SpanTrace::from_shard_logs(1, vec![r0]);
        let mut segs = Vec::new();
        let analyzer = Analyzer::new(&spans, &ActivityTrace::new(1), 800);
        analyzer.classify_idle(0, 0, 800, &mut segs);
        let comps: Vec<(Component, u64)> = segs
            .iter()
            .map(|s| (s.component, s.to_ns - s.from_ns))
            .collect();
        assert_eq!(
            comps,
            vec![
                (Component::TimeoutRetry, 100),       // [0,100] pre-send
                (Component::TimeoutRetry, 300),       // [100,400] in flight
                (Component::QuarantineReselect, 200), // [400,600] re-select
                (Component::TimeoutRetry, 200),       // [600,800] in flight
            ]
        );
        let total: u64 = comps.iter().map(|&(_, d)| d).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn idle_windows_are_open_at_lo_and_closed_at_hi() {
        // Rank 0: a failed attempt resolving exactly at 200, a second
        // request at 300 answered with work exactly at 500.
        let (id0, id1) = (trace_id(0, 0), trace_id(0, 1));
        let span = |at_ns, trace, kind| SpanRecord {
            at_ns,
            rank: 0,
            trace,
            kind,
        };
        let ok = SpanKind::StealOk {
            victim: 1,
            rtt_ns: 200,
            nodes: 1,
        };
        let log = vec![
            span(100, id0, SpanKind::StealRequestSent { victim: 1 }),
            span(
                200,
                id0,
                SpanKind::StealEmpty {
                    victim: 1,
                    rtt_ns: 100,
                },
            ),
            span(300, id1, SpanKind::StealRequestSent { victim: 1 }),
            span(500, id1, ok),
        ];
        let spans = SpanTrace::from_shard_logs(1, vec![log]);
        let analyzer = Analyzer::new(&spans, &ActivityTrace::new(1), 1000);

        // A StealOk exactly at `hi` is inside, exactly at `lo` outside.
        assert_eq!(analyzer.last_ok_in(0, 0, 500).map(|r| r.at_ns), Some(500));
        assert_eq!(analyzer.last_ok_in(0, 499, 500).map(|r| r.at_ns), Some(500));
        assert_eq!(analyzer.last_ok_in(0, 0, 499).map(|r| r.at_ns), None);
        assert_eq!(analyzer.last_ok_in(0, 500, 1000).map(|r| r.at_ns), None);

        let tiles = |lo, hi| {
            let mut segs = Vec::new();
            analyzer.classify_idle(0, lo, hi, &mut segs);
            segs.iter()
                .map(|s| (s.from_ns, s.to_ns, s.component))
                .collect::<Vec<_>>()
        };
        // The record at `lo` = 200 neither cuts the window nor sets
        // the kind the trailing stretch inherits; the one at `hi` =
        // 300 closes the last segment.
        assert_eq!(tiles(200, 300), vec![(200, 300, Component::TimeoutRetry)]);
        // Without a record inside, the window is unexplained — also
        // when records sit exactly on its lower edge.
        assert_eq!(tiles(200, 299), vec![(200, 299, Component::IdleOther)]);
        assert_eq!(tiles(500, 1000), vec![(500, 1000, Component::IdleOther)]);
        // A record at `hi` counts: [100, 200] is the in-flight wait.
        assert_eq!(
            tiles(50, 200),
            vec![
                (50, 100, Component::TimeoutRetry),
                (100, 200, Component::TimeoutRetry)
            ]
        );
    }

    #[test]
    fn a_chain_serviced_twice_takes_the_latest_service_before_the_wakeup() {
        // A duplicated request is serviced at 300 and again at 450; the
        // thief wakes at 600, so the reply that counts left after the
        // second service. A third service at 700 is after the wake-up
        // and cannot have caused it.
        let id = trace_id(1, 0);
        let service = |at_ns, depart_delay_ns| SpanRecord {
            at_ns,
            rank: 0,
            trace: id,
            kind: SpanKind::StealServiced {
                thief: 1,
                nodes: 4,
                queue_ns: 0,
                depart_delay_ns,
            },
        };
        let r0 = vec![service(300, 10), service(450, 50), service(700, 10)];
        let r1 = vec![
            SpanRecord {
                at_ns: 100,
                rank: 1,
                trace: id,
                kind: SpanKind::StealRequestSent { victim: 0 },
            },
            SpanRecord {
                at_ns: 600,
                rank: 1,
                trace: id,
                kind: SpanKind::StealOk {
                    victim: 0,
                    rtt_ns: 500,
                    nodes: 2,
                },
            },
        ];
        let spans = SpanTrace::from_shard_logs(2, vec![r0, r1]);
        let mut act = ActivityTrace::new(2);
        act.record(1, 600, true);
        act.record(1, 900, false);
        let cp = CriticalPath::extract(&spans, &act, 900);
        cp.check().unwrap();
        let tiles: Vec<(u64, u64, Component)> = cp
            .segments()
            .iter()
            .map(|s| (s.from_ns, s.to_ns, s.component))
            .collect();
        assert_eq!(
            tiles,
            vec![
                (0, 100, Component::TimeoutRetry),
                (100, 450, Component::RequestTravel),
                (450, 500, Component::QueueAtVictim),
                (500, 600, Component::ReplyTravel),
                (600, 900, Component::Compute),
            ]
        );
    }

    #[test]
    fn the_chain_index_holds_only_the_attempts_that_delivered_work() {
        // Rank 1 asks rank 0 four times: attempt 0 is refused, attempt
        // 1 times out unserviced, attempt 2 is served once, and attempt
        // 3's request, duplicated, is served twice. Rank 0 is done by
        // then and repeats `Done` to a fifth request.
        let id = |seq| trace_id(1, seq);
        let span = |at_ns, rank, seq, kind| SpanRecord {
            at_ns,
            rank,
            trace: id(seq),
            kind,
        };
        let sent = SpanKind::StealRequestSent { victim: 0 };
        let served = |nodes| SpanKind::StealServiced {
            thief: 1,
            nodes,
            queue_ns: 0,
            depart_delay_ns: 5,
        };
        let ok = SpanKind::StealOk {
            victim: 0,
            rtt_ns: 100,
            nodes: 4,
        };
        let log = vec![
            span(0, 1, 0, sent),
            span(50, 0, 0, served(0)),
            span(
                100,
                1,
                0,
                SpanKind::StealEmpty {
                    victim: 0,
                    rtt_ns: 100,
                },
            ),
            span(200, 1, 1, sent),
            span(
                600,
                1,
                1,
                SpanKind::StealTimeout {
                    victim: 0,
                    backoff_doublings: 1,
                },
            ),
            span(700, 1, 2, sent),
            span(750, 0, 2, served(4)),
            span(800, 1, 2, ok),
            span(900, 1, 3, sent),
            span(950, 0, 3, served(4)),
            span(960, 0, 3, served(2)),
            span(1000, 1, 3, ok),
            span(1100, 1, 4, sent),
            span(1150, 0, 4, SpanKind::StealRequestRecv { thief: 1 }),
        ];
        let spans = SpanTrace::from_shard_logs(2, vec![log.clone()]);
        let analyzer = Analyzer::new(&spans, &ActivityTrace::new(2), 2000);
        let indexed = |offsets: &[u32]| -> Vec<SpanRecord> {
            offsets.iter().map(|&o| analyzer.rec(o)).collect()
        };
        let chains: Vec<u32> = analyzer
            .chains
            .iter()
            .map(|&(trace, offset)| {
                assert_eq!(analyzer.rec(offset).trace, trace);
                offset
            })
            .collect();
        assert_eq!(indexed(&chains), [log[5], log[6], log[8], log[9], log[10]]);
        assert_eq!(analyzer.chain(id(3)).count(), 3);
        assert_eq!(analyzer.chain(id(0)).count(), 0);
        // Each rank's index holds its thief-side records, exactly.
        assert!(analyzer.rank_spans(0).is_empty());
        let thief: Vec<SpanRecord> = log.iter().filter(|r| r.rank == 1).copied().collect();
        assert_eq!(indexed(analyzer.rank_spans(1)), thief);
        assert_eq!(analyzer.rank_spans.len(), thief.len());
    }

    #[test]
    fn waterfall_rows_sum_to_makespan() {
        let (spans, act, t) = two_rank_run();
        let rows = rank_waterfall(&spans, &act, t);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(
                row.total(),
                t,
                "rank {} waterfall must tile [0, T]",
                row.rank
            );
        }
        // Rank 0 computed 1000 of the 1500.
        assert_eq!(rows[0].get(Component::Compute), 1000);
        assert_eq!(rows[1].get(Component::Compute), 500);
    }

    #[test]
    fn empty_run_yields_empty_path() {
        let cp = CriticalPath::extract(&SpanTrace::default(), &ActivityTrace::new(1), 0);
        cp.check().unwrap();
        assert!(cp.segments().is_empty());
    }

    #[test]
    fn component_keys_roundtrip() {
        for (i, c) in Component::ALL.into_iter().enumerate() {
            assert_eq!(Component::from_key(c.key()), Some(c));
            assert_eq!(c.index(), i);
        }
        assert_eq!(Component::from_key("nope"), None);
    }
}
