//! Streaming (online) run accounting: the post-hoc sorted-log metrics,
//! maintained incrementally while the run executes.
//!
//! The post-hoc pipeline — harvest every activity transition, sort
//! once, derive busy time and the occupancy curve — retains the whole
//! event history, which cannot survive the 82k/1M-rank scale push
//! (ROADMAP item 1). The Khatiri/Trystram work-stealing simulator
//! (arXiv:1910.02803) ships an online per-processor state timeline as a
//! first-class output, and Gast et al. (arXiv:1805.00857) frame their
//! latency analysis in time-decomposed processor states; both argue the
//! right primitive is an incrementally maintained occupancy stream.
//!
//! [`OnlineAccounting`] is that primitive. The engine feeds it raw
//! transitions as they are recorded and *folds* at every conservative
//! window barrier. Folding is legal exactly because the windowed engine
//! partitions simulated time: every transition recorded after a window
//! barrier carries a timestamp no earlier than any transition recorded
//! before it, so each fold consumes a complete, final segment of the
//! global timeline. Within the fold, the pending buffer is stable-sorted
//! by `(time, rank)` — the same key, with the same tie-breaking, as the
//! post-hoc [`ActivityTrace::sorted`] pass — and then walked with
//! literally the same two loops as [`SortedTrace::busy_ns_per_rank`]
//! and [`OccupancyCurve::from_sorted`]. The retained state between
//! folds is O(ranks): per-rank open intervals and busy totals, the
//! current/peak worker count, the occupancy integral, and first-reach /
//! last-drop marks per occupancy level. No event log survives a fold.
//!
//! The post-hoc path is deliberately kept alive as a *differential
//! oracle*: tests run both and assert element-identical results.
//!
//! Delivery-latency histograms and the per-pair traffic matrix are
//! already maintained incrementally at send time by the network layer's
//! `NetTrace` (commutative merge across shards); this module does not
//! duplicate them.
//!
//! [`ActivityTrace::sorted`]: crate::ActivityTrace::sorted
//! [`SortedTrace::busy_ns_per_rank`]: crate::SortedTrace::busy_ns_per_rank
//! [`OccupancyCurve::from_sorted`]: crate::OccupancyCurve::from_sorted

use crate::export::JsonValue;
use crate::trace::Transition;

/// Schema version stamped on every snapshot JSONL line (the bench
/// record schema and the snapshot stream move together).
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 3;

/// Incrementally maintained occupancy and busy-time accounting.
///
/// Feed transitions with [`record`](Self::record), fold at every point
/// where the producer can guarantee no earlier-timestamped transition
/// will ever arrive ([`fold`](Self::fold)), and close the run with
/// [`finish`](Self::finish). Between folds the memory footprint is
/// O(ranks) plus the unfolded pending buffer of the open window.
#[derive(Debug, Clone)]
pub struct OnlineAccounting {
    n_ranks: u32,
    /// Transitions recorded since the last fold, in arrival order.
    pending: Vec<Transition>,
    /// Largest timestamp ever folded; folds assert monotonicity.
    watermark_ns: u64,
    // --- busy walk state (mirrors SortedTrace::busy_ns_per_rank) ---
    since: Vec<Option<u64>>,
    busy: Vec<u64>,
    // --- curve walk state (mirrors OccupancyCurve::from_sorted) ---
    current: u32,
    w_max: u32,
    /// ∫ workers(t) dt over the folded prefix, up to `last_step_ns`.
    busy_integral: u128,
    last_step_ns: u64,
    /// `first_reach[k]`: first time the worker count reached `k`.
    /// Index 0 is `Some(0)` by construction (the curve starts at 0).
    first_reach: Vec<Option<u64>>,
    /// `last_drop[k]`: last time the worker count stepped from `>= k`
    /// down to `< k`.
    last_drop: Vec<Option<u64>>,
    /// When set, the full `(time, workers)` step list is retained —
    /// only for differential tests; production callers keep this off
    /// to preserve the O(ranks) bound.
    steps: Option<Vec<(u64, u32)>>,
    folded: u64,
}

impl OnlineAccounting {
    /// Empty accounting for `n_ranks` processes.
    pub fn new(n_ranks: u32) -> Self {
        let levels = n_ranks as usize + 1;
        let mut first_reach = vec![None; levels];
        first_reach[0] = Some(0);
        Self {
            n_ranks,
            pending: Vec::new(),
            watermark_ns: 0,
            since: vec![None; n_ranks as usize],
            busy: vec![0; n_ranks as usize],
            current: 0,
            w_max: 0,
            busy_integral: 0,
            last_step_ns: 0,
            first_reach,
            last_drop: vec![None; levels],
            steps: None,
            folded: 0,
        }
    }

    /// Also retain the full step list (test/differential mode; defeats
    /// the O(ranks) bound on purpose).
    pub fn with_retained_steps(mut self) -> Self {
        self.steps = Some(vec![(0, 0)]);
        self
    }

    /// Number of ranks covered.
    #[inline]
    pub fn n_ranks(&self) -> u32 {
        self.n_ranks
    }

    /// Transitions folded so far (pending ones excluded).
    #[inline]
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Transitions recorded but not yet folded.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Current (settled-as-of-last-fold) worker count.
    #[inline]
    pub fn current_workers(&self) -> u32 {
        self.current
    }

    /// Peak worker count over the folded prefix.
    #[inline]
    pub fn w_max(&self) -> u32 {
        self.w_max
    }

    /// Record one transition. O(1); buffered until the next fold.
    #[inline]
    pub fn record(&mut self, rank: u32, at_ns: u64, active: bool) {
        debug_assert!(rank < self.n_ranks);
        self.pending.push(Transition {
            rank,
            at_ns,
            active,
        });
    }

    /// Record a batch of transitions (a shard's per-window buffer).
    pub fn record_all(&mut self, batch: &[Transition]) {
        self.pending.extend_from_slice(batch);
    }

    /// Fold the pending buffer into the O(ranks) aggregates.
    ///
    /// The caller guarantees that every transition recorded *after*
    /// this call carries a timestamp `>=` every transition folded by
    /// it — the conservative engine's window barrier provides exactly
    /// this (all events of window `k+1` are timestamped at or after
    /// the end of window `k`). Violations are caught in debug builds.
    pub fn fold(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // Same key, same stability as ActivityTrace::sorted: ties in
        // (time, rank) keep their recording order, which for a single
        // rank is its own chronological order — exactly the order the
        // post-hoc harvest produces.
        self.pending.sort_by_key(|t| (t.at_ns, t.rank));
        debug_assert!(
            self.pending.first().map(|t| t.at_ns).unwrap_or(u64::MAX) >= self.watermark_ns
                || self.folded == 0,
            "fold saw a timestamp below the previous fold's watermark"
        );
        let pending = std::mem::take(&mut self.pending);
        let mut i = 0;
        while i < pending.len() {
            let t = pending[i].at_ns;
            // One pass serves both walks: per-transition busy intervals
            // (SortedTrace::busy_ns_per_rank), then the netted
            // same-instant occupancy step (OccupancyCurve::from_sorted).
            let mut delta: i64 = 0;
            while i < pending.len() && pending[i].at_ns == t {
                let tr = pending[i];
                let r = tr.rank as usize;
                match (tr.active, self.since[r]) {
                    (true, None) => self.since[r] = Some(tr.at_ns),
                    (false, Some(s)) => {
                        self.busy[r] += tr.at_ns.saturating_sub(s);
                        self.since[r] = None;
                    }
                    // Duplicate state changes are tolerated exactly as
                    // in the oracle: keep first activation, ignore
                    // repeats.
                    _ => {}
                }
                delta += if tr.active { 1 } else { -1 };
                i += 1;
            }
            self.step(t, delta);
        }
        self.folded += pending.len() as u64;
        self.watermark_ns = self.watermark_ns.max(self.last_step_ns);
    }

    /// Apply one netted occupancy step at time `t`.
    fn step(&mut self, t: u64, delta: i64) {
        let prev = self.current;
        // Accumulate the integral for the interval [last_step_ns, t) at
        // the outgoing worker count; a same-instant revision (only the
        // initial (0,0) step can collide, since folds consume all equal
        // timestamps at once) contributes zero width.
        self.busy_integral += (t - self.last_step_ns) as u128 * prev as u128;
        let cur = (prev as i64 + delta).max(0) as u32;
        debug_assert!(prev as i64 + delta >= 0, "negative worker count at {t}");
        self.current = cur;
        self.last_step_ns = t;
        if cur > prev {
            self.w_max = self.w_max.max(cur);
            for k in prev + 1..=cur {
                let slot = &mut self.first_reach[k as usize];
                if slot.is_none() {
                    *slot = Some(t);
                }
            }
        } else if cur < prev {
            for k in cur + 1..=prev {
                self.last_drop[k as usize] = Some(t);
            }
        }
        if let Some(steps) = &mut self.steps {
            // Verbatim OccupancyCurve::from_sorted step emission.
            match steps.last_mut() {
                Some(last) if last.0 == t => last.1 = cur,
                _ => steps.push((t, cur)),
            }
        }
    }

    /// Close the run at `end_ns`: fold any pending transitions and
    /// return the finished query object. Open busy intervals are billed
    /// to `end_ns`, exactly like the oracle's
    /// [`busy_ns_per_rank`](crate::SortedTrace::busy_ns_per_rank).
    pub fn finish(mut self, end_ns: u64) -> OnlineOccupancy {
        self.fold();
        let mut busy = self.busy;
        for (r, s) in self.since.iter().enumerate() {
            if let Some(s) = s {
                busy[r] += end_ns.saturating_sub(*s);
            }
        }
        // Tail of the integral: the final worker count holds from the
        // last step to the end of the run.
        let busy_integral = self.busy_integral
            + end_ns.saturating_sub(self.last_step_ns) as u128 * self.current as u128;
        OnlineOccupancy {
            n_ranks: self.n_ranks,
            total_ns: end_ns,
            busy_ns_per_rank: busy,
            w_max: self.w_max,
            final_workers: self.current,
            busy_integral,
            first_reach: self.first_reach,
            last_drop: self.last_drop,
            steps: self.steps,
        }
    }
}

/// The finished streaming accounting of one run: every quantity the
/// post-hoc [`OccupancyCurve`](crate::OccupancyCurve) answers for the
/// run report, held in O(ranks) memory.
#[derive(Debug, Clone)]
pub struct OnlineOccupancy {
    n_ranks: u32,
    total_ns: u64,
    busy_ns_per_rank: Vec<u64>,
    w_max: u32,
    final_workers: u32,
    busy_integral: u128,
    first_reach: Vec<Option<u64>>,
    last_drop: Vec<Option<u64>>,
    steps: Option<Vec<(u64, u32)>>,
}

impl OnlineOccupancy {
    /// Number of processes in the run.
    #[inline]
    pub fn n_ranks(&self) -> u32 {
        self.n_ranks
    }

    /// Run length in nanoseconds.
    #[inline]
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Total busy time per rank.
    pub fn busy_ns_per_rank(&self) -> &[u64] {
        &self.busy_ns_per_rank
    }

    /// Maximum simultaneous workers (paper: `Wmax`).
    #[inline]
    pub fn w_max(&self) -> u32 {
        self.w_max
    }

    /// ∫ workers(t) dt over the run, in worker-nanoseconds.
    #[inline]
    pub fn busy_integral_ns(&self) -> u128 {
        self.busy_integral
    }

    /// Average occupancy over the run, in `[0, 1]`.
    pub fn average_occupancy(&self) -> f64 {
        if self.total_ns == 0 || self.n_ranks == 0 {
            return 0.0;
        }
        self.busy_integral as f64 / (self.total_ns as f64 * self.n_ranks as f64)
    }

    /// First time occupancy reaches at least `x` (fraction of ranks);
    /// `None` if it never does.
    pub fn first_reach_ns(&self, x: f64) -> Option<u64> {
        let need = self.required_workers(x);
        self.first_reach[need as usize]
    }

    /// Last time occupancy is at least `x`; `None` if never reached.
    ///
    /// Matches the curve semantics: the last moment the count is `>= x`
    /// is the step where it drops below — or `total_ns` when the run
    /// ends with the count still there.
    pub fn last_reach_ns(&self, x: f64) -> Option<u64> {
        let need = self.required_workers(x);
        if self.final_workers >= need {
            return Some(self.total_ns);
        }
        // The count ends below `need`, so the last qualifying interval
        // (if any) closed at the final downward crossing of `need`.
        self.last_drop[need as usize]
    }

    /// Starting latency `SL(x)` as a fraction of the run.
    pub fn starting_latency(&self, x: f64) -> Option<f64> {
        self.first_reach_ns(x)
            .map(|t| t as f64 / self.total_ns.max(1) as f64)
    }

    /// Ending latency `EL(x)` as a fraction of the run.
    pub fn ending_latency(&self, x: f64) -> Option<f64> {
        self.last_reach_ns(x)
            .map(|t| (self.total_ns.saturating_sub(t)) as f64 / self.total_ns.max(1) as f64)
    }

    /// The retained step list, when built
    /// [`with_retained_steps`](OnlineAccounting::with_retained_steps).
    pub fn steps(&self) -> Option<&[(u64, u32)]> {
        self.steps.as_deref()
    }

    fn required_workers(&self, x: f64) -> u32 {
        assert!(
            (0.0..=1.0).contains(&x),
            "occupancy fraction {x} outside [0,1]"
        );
        (x * self.n_ranks as f64).ceil().max(1.0) as u32
    }
}

/// Per-shard slice of one [`Snapshot`]: window progress and the
/// busy/barrier-wait split of that shard's driver thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnap {
    /// Shard index.
    pub shard: u32,
    /// Local simulated time the shard has reached, in nanoseconds.
    pub now_ns: u64,
    /// Lookahead windows executed so far.
    pub windows: u64,
    /// Events processed so far.
    pub events: u64,
    /// Events waiting in the shard's event queue.
    pub queue_depth: u64,
    /// Wall-clock nanoseconds spent executing windows.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds spent waiting at the two window barriers.
    pub wait_ns: u64,
}

impl ShardSnap {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("shard", self.shard.into()),
            ("now_ns", self.now_ns.into()),
            ("windows", self.windows.into()),
            ("events", self.events.into()),
            ("queue_depth", self.queue_depth.into()),
            ("busy_ns", self.busy_ns.into()),
            ("wait_ns", self.wait_ns.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("shard snapshot missing {k}"))
        };
        Ok(Self {
            shard: field("shard")? as u32,
            now_ns: field("now_ns")?,
            windows: field("windows")?,
            events: field("events")?,
            queue_depth: field("queue_depth")?,
            busy_ns: field("busy_ns")?,
            wait_ns: field("wait_ns")?,
        })
    }
}

/// One line of the snapshot JSONL stream: the run's vital signs at a
/// window barrier. Consumed live by `dws run --live` and replayed by
/// `dws top <snapshots.jsonl>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot schema version ([`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Sequence number within the run, starting at 0.
    pub seq: u64,
    /// Ranks in the simulation (the occupancy denominator).
    pub n_ranks: u32,
    /// Wall-clock milliseconds since the run started.
    pub wall_ms: u64,
    /// Simulated time reached, in nanoseconds.
    pub sim_ns: u64,
    /// Events processed so far, summed over shards.
    pub events: u64,
    /// Event throughput since the previous snapshot, events/second of
    /// wall time (0 when no wall time elapsed).
    pub events_per_sec: f64,
    /// Events waiting across all shard queues.
    pub queue_depth: u64,
    /// Ready work units (chunks) across all ranks.
    pub ready_chunks: u64,
    /// Successful steals so far, summed over ranks.
    pub steals_ok: u64,
    /// Empty-handed steal replies so far, summed over ranks.
    pub steals_empty: u64,
    /// Quarantine entries recorded by the adaptive overlay so far,
    /// summed over ranks.
    pub quarantined: u64,
    /// Active workers at the last fold.
    pub active_workers: u32,
    /// Peak simultaneous workers so far.
    pub w_max: u32,
    /// Per-shard progress rows.
    pub shards: Vec<ShardSnap>,
}

impl Snapshot {
    /// Steal success rate so far, in `[0, 1]` (0 when no replies yet).
    pub fn steal_success_rate(&self) -> f64 {
        let total = self.steals_ok + self.steals_empty;
        if total == 0 {
            0.0
        } else {
            self.steals_ok as f64 / total as f64
        }
    }

    /// Window lag: the spread between the fastest and slowest shard's
    /// simulated time, in nanoseconds (0 for a single shard).
    pub fn shard_lag_ns(&self) -> u64 {
        let max = self.shards.iter().map(|s| s.now_ns).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.now_ns).min().unwrap_or(0);
        max - min
    }

    /// The JSON tree of this snapshot (one JSONL line when printed).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", self.schema.into()),
            ("seq", self.seq.into()),
            ("n_ranks", self.n_ranks.into()),
            ("wall_ms", self.wall_ms.into()),
            ("sim_ns", self.sim_ns.into()),
            ("events", self.events.into()),
            ("events_per_sec", self.events_per_sec.into()),
            ("queue_depth", self.queue_depth.into()),
            ("ready_chunks", self.ready_chunks.into()),
            ("steals_ok", self.steals_ok.into()),
            ("steals_empty", self.steals_empty.into()),
            ("steal_success_rate", self.steal_success_rate().into()),
            ("quarantined", self.quarantined.into()),
            ("active_workers", self.active_workers.into()),
            ("w_max", self.w_max.into()),
            (
                "shards",
                JsonValue::Arr(self.shards.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }

    /// Parse one snapshot back from its JSON tree (the `dws top`
    /// replay and the CI stream validator).
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("snapshot missing {k}"))
        };
        let schema = field("schema")?;
        if schema > SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema {schema} is newer than supported {SNAPSHOT_SCHEMA_VERSION}"
            ));
        }
        let shards = v
            .get("shards")
            .and_then(|s| s.as_arr())
            .ok_or("snapshot missing shards")?
            .iter()
            .map(ShardSnap::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema,
            seq: field("seq")?,
            n_ranks: field("n_ranks")? as u32,
            wall_ms: field("wall_ms")?,
            sim_ns: field("sim_ns")?,
            events: field("events")?,
            events_per_sec: v
                .get("events_per_sec")
                .and_then(|x| x.as_num())
                .ok_or("snapshot missing events_per_sec")?,
            queue_depth: field("queue_depth")?,
            ready_chunks: field("ready_chunks")?,
            steals_ok: field("steals_ok")?,
            steals_empty: field("steals_empty")?,
            quarantined: field("quarantined")?,
            active_workers: field("active_workers")? as u32,
            w_max: field("w_max")? as u32,
            shards,
        })
    }

    /// One-line terminal rendering for the `--live` progress view.
    pub fn progress_line(&self) -> String {
        format!(
            "sim {:.3} ms | ev {} ({:.2} M/s) | q {} | occ {}/{} (peak {}) | steals {} ok / {} empty ({:.0}%) | quarantined {}",
            self.sim_ns as f64 / 1e6,
            self.events,
            self.events_per_sec / 1e6,
            self.queue_depth,
            self.active_workers,
            self.n_ranks.max(1),
            self.w_max,
            self.steals_ok,
            self.steals_empty,
            self.steal_success_rate() * 100.0,
            self.quarantined,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::OccupancyCurve;
    use crate::trace::ActivityTrace;

    /// Drive both pipelines from the same transition stream, folding
    /// the online side at `fold_at` boundaries, and assert
    /// element-identical outputs.
    fn assert_identical(
        transitions: &[(u32, u64, bool)],
        n_ranks: u32,
        end_ns: u64,
        folds: &[u64],
    ) {
        let mut trace = ActivityTrace::new(n_ranks);
        let mut online = OnlineAccounting::new(n_ranks).with_retained_steps();
        let mut fold_iter = folds.iter().copied().peekable();
        for &(rank, at, active) in transitions {
            while let Some(&f) = fold_iter.peek() {
                if at >= f {
                    online.fold();
                    fold_iter.next();
                } else {
                    break;
                }
            }
            trace.record(rank, at, active);
            online.record(rank, at, active);
        }
        let finished = online.finish(end_ns);
        let sorted = trace.sorted();
        let curve = OccupancyCurve::from_sorted(&sorted, end_ns);
        assert_eq!(
            finished.busy_ns_per_rank(),
            &sorted.busy_ns_per_rank(end_ns)[..]
        );
        assert_eq!(finished.w_max(), curve.w_max());
        assert_eq!(finished.busy_integral_ns(), curve.busy_integral_ns());
        assert_eq!(finished.average_occupancy(), curve.average_occupancy());
        for p in 1..=100u32 {
            let x = p as f64 / 100.0;
            assert_eq!(
                finished.first_reach_ns(x),
                curve.first_reach_ns(x),
                "SL at {p}%"
            );
            assert_eq!(
                finished.last_reach_ns(x),
                curve.last_reach_ns(x),
                "EL at {p}%"
            );
            assert_eq!(finished.starting_latency(x), curve.starting_latency(x));
            assert_eq!(finished.ending_latency(x), curve.ending_latency(x));
        }
        // Element-identical step list, not just identical summaries.
        assert_eq!(finished.steps().expect("retained"), curve.steps());
    }

    #[test]
    fn staircase_matches_oracle_under_any_fold_schedule() {
        let transitions = [
            (0u32, 0u64, true),
            (1, 10, true),
            (2, 20, true),
            (3, 30, true),
            (3, 70, false),
            (2, 80, false),
            (1, 90, false),
            (0, 100, false),
        ];
        assert_identical(&transitions, 4, 100, &[]);
        assert_identical(&transitions, 4, 100, &[15, 75]);
        assert_identical(&transitions, 4, 100, &[10, 20, 30, 70, 80, 90, 100]);
    }

    #[test]
    fn tied_timestamps_and_reactivation_match_oracle() {
        let transitions = [
            (0u32, 0u64, true),
            (1, 0, true),
            (1, 0, false), // same-instant swap nets to +1 at t=0
            (2, 5, true),
            (0, 5, false), // net 0 at t=5
            (2, 9, false),
            (1, 9, true),
            (1, 12, false),
            (0, 12, true), // rank 0 comes back
        ];
        assert_identical(&transitions, 3, 20, &[]);
        assert_identical(&transitions, 3, 20, &[5, 9, 12]);
    }

    #[test]
    fn open_intervals_bill_to_end() {
        // Rank 1 never goes idle; both paths bill it to end_ns.
        let transitions = [(0u32, 3u64, true), (1, 7, true), (0, 11, false)];
        assert_identical(&transitions, 2, 50, &[10]);
    }

    #[test]
    fn pseudorandom_oscillation_matches_oracle() {
        // A deterministic LCG drives many ranks through active/idle
        // cycles with frequent timestamp collisions, folded mid-stream.
        let n_ranks = 16u32;
        let mut state: Vec<bool> = vec![false; n_ranks as usize];
        let mut transitions = Vec::new();
        let mut x: u64 = 0x2545F491;
        let mut t = 0u64;
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t += (x >> 33) % 4; // collisions on purpose
            let r = ((x >> 13) % n_ranks as u64) as u32;
            let s = &mut state[r as usize];
            *s = !*s;
            transitions.push((r, t, *s));
        }
        let end = t + 10;
        assert_identical(&transitions, n_ranks, end, &[]);
        assert_identical(&transitions, n_ranks, end, &[end / 4, end / 2, 3 * end / 4]);
    }

    #[test]
    fn aggregates_without_retained_steps_match() {
        let mut online = OnlineAccounting::new(2);
        online.record(0, 0, true);
        online.record(1, 10, true);
        online.fold();
        online.record(1, 30, false);
        let fin = online.finish(40);
        assert_eq!(fin.busy_ns_per_rank(), &[40, 20]);
        assert_eq!(fin.w_max(), 2);
        assert_eq!(fin.busy_integral_ns(), 60);
        assert!(fin.steps().is_none());
        assert_eq!(fin.first_reach_ns(1.0), Some(10));
        assert_eq!(fin.last_reach_ns(1.0), Some(30));
        assert_eq!(fin.last_reach_ns(0.5), Some(40));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            seq: 3,
            n_ranks: 32,
            wall_ms: 1500,
            sim_ns: 2_000_000,
            events: 123_456,
            events_per_sec: 2.5e6,
            queue_depth: 42,
            ready_chunks: 17,
            steals_ok: 900,
            steals_empty: 100,
            quarantined: 2,
            active_workers: 30,
            w_max: 32,
            shards: vec![
                ShardSnap {
                    shard: 0,
                    now_ns: 2_000_000,
                    windows: 50,
                    events: 70_000,
                    queue_depth: 20,
                    busy_ns: 5_000,
                    wait_ns: 100,
                },
                ShardSnap {
                    shard: 1,
                    now_ns: 1_900_000,
                    windows: 50,
                    events: 53_456,
                    queue_depth: 22,
                    busy_ns: 4_000,
                    wait_ns: 1_100,
                },
            ],
        };
        let line = snap.to_json().to_string();
        let back = Snapshot::from_json(&crate::export::parse(&line).expect("parses"))
            .expect("valid snapshot");
        assert_eq!(back, snap);
        assert!((snap.steal_success_rate() - 0.9).abs() < 1e-12);
        assert_eq!(snap.shard_lag_ns(), 100_000);
        assert!(snap.progress_line().contains("steals 900 ok"));
    }

    #[test]
    fn snapshot_parse_rejects_malformed_lines() {
        let v = crate::export::parse("{\"schema\":3,\"seq\":0}").expect("valid json");
        assert!(Snapshot::from_json(&v).is_err());
        let v = crate::export::parse("{\"schema\":99}").expect("valid json");
        assert!(Snapshot::from_json(&v)
            .unwrap_err()
            .contains("newer than supported"));
    }
}
