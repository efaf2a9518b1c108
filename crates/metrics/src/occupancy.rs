//! Occupancy and the paper's starting/ending latency metric, from one
//! fold over the activity transitions.
//!
//! The transitions define the step function `workers(t)` — the number
//! of active processes at time `t` — and from it (paper §III):
//!
//! - `Wmax`: the maximum number of simultaneously active workers;
//! - the occupancy ratio `O(t) = workers(t) / N`;
//! - the **starting latency** `SL(x) = min{t : O(t) ≥ x} / T`: how far
//!   into the run the scheduler first drives occupancy up to `x`;
//! - the **ending latency** `EL(x) = (T − max{t : O(t) ≥ x}) / T`: how
//!   far before the end occupancy last was at least `x`.
//!
//! The paper's example: "an execution where the first time 10% of the
//! processes have work happens 5% of the execution time after beginning
//! has SL(10%) = 5%".
//!
//! [`OnlineAccounting`] is the only walk that computes any of this. The
//! engine feeds it live while a run executes (streaming telemetry), and
//! [`OccupancyCurve::from_trace`] runs it once over a retained
//! [`ActivityTrace`]; either way it finishes into an [`OccupancyCurve`]
//! that answers every query. The Khatiri/Trystram work-stealing
//! simulator (arXiv:1910.02803) ships the same incrementally maintained
//! per-processor state timeline as its output.

use crate::trace::{ActivityTrace, Transition};

/// The occupancy fold: busy time per rank and the `workers(t)` curve,
/// maintained incrementally.
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
    /// Per rank, the start of its open busy interval.
    since: Vec<Option<u64>>,
    busy: Vec<u64>,
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
    /// kept for a trace-fed curve; the live fold leaves it off to
    /// preserve the O(ranks) bound.
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

    /// Also retain the full step list (what [`OccupancyCurve::steps`],
    /// [`workers_at`](OccupancyCurve::workers_at) and
    /// [`recovery_time_ns`](OccupancyCurve::recovery_time_ns) read;
    /// defeats the O(ranks) bound on purpose).
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
        // The trace's own key and stability: ties in (time, rank) keep
        // their recording order, which for a single rank is its own
        // chronological order.
        self.pending.sort_by_key(|t| (t.at_ns, t.rank));
        let pending = std::mem::take(&mut self.pending);
        self.fold_sorted(&pending);
        self.pending = pending;
        self.pending.clear();
    }

    /// The walk: fold a batch already in `(at_ns, rank)` order.
    fn fold_sorted(&mut self, batch: &[Transition]) {
        debug_assert!(
            batch.first().map_or(u64::MAX, |t| t.at_ns) >= self.watermark_ns || self.folded == 0,
            "fold saw a timestamp below the previous fold's watermark"
        );
        let mut i = 0;
        while i < batch.len() {
            let t = batch[i].at_ns;
            // One pass serves both walks: per-transition busy intervals,
            // then the netted same-instant occupancy step, so an
            // idle→active swap at one nanosecond never shows a dip.
            let mut delta: i64 = 0;
            while i < batch.len() && batch[i].at_ns == t {
                let tr = batch[i];
                let r = tr.rank as usize;
                match (tr.active, self.since[r]) {
                    (true, None) => self.since[r] = Some(tr.at_ns),
                    (false, Some(s)) => {
                        self.busy[r] += tr.at_ns.saturating_sub(s);
                        self.since[r] = None;
                    }
                    // Duplicate state changes are tolerated
                    // (`ActivityTrace::check` reports them): keep the
                    // first activation, ignore repeats.
                    _ => {}
                }
                delta += if tr.active { 1 } else { -1 };
                i += 1;
            }
            self.step(t, delta);
        }
        self.folded += batch.len() as u64;
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
            // Only the settled count at each instant is kept.
            match steps.last_mut() {
                Some(last) if last.0 == t => last.1 = cur,
                _ => steps.push((t, cur)),
            }
        }
    }

    /// Close the run at `end_ns`: fold any pending transitions and
    /// return the finished curve. Open busy intervals are billed to
    /// `end_ns`.
    pub fn finish(mut self, end_ns: u64) -> OccupancyCurve {
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
        OccupancyCurve {
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

/// The finished occupancy of one run: every quantity of §III, held in
/// O(ranks) memory, plus the `(time, workers)` step list when it was
/// folded from a retained trace.
#[derive(Debug, Clone)]
pub struct OccupancyCurve {
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

impl OccupancyCurve {
    /// Fold a retained trace once, keeping the step list, and close it
    /// at the run's total duration.
    ///
    /// # Panics
    /// Panics if the trace fails validation ([`ActivityTrace::check`]).
    pub fn from_trace(trace: &ActivityTrace, total_ns: u64) -> Self {
        trace
            .check()
            .unwrap_or_else(|e| panic!("invalid activity trace: {e}"));
        let mut fold = OnlineAccounting::new(trace.n_ranks()).with_retained_steps();
        fold.fold_sorted(trace.transitions());
        fold.finish(total_ns)
    }

    /// Number of processes in the run (the denominator of `O(t)`).
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

    /// The `(time_ns, workers)` step list, time-sorted, starting at
    /// `(0, 0)`; `None` for a live fold, which keeps no history.
    pub fn steps(&self) -> Option<&[(u64, u32)]> {
        self.steps.as_deref()
    }

    /// `workers(t)`: active processes at time `t_ns`.
    ///
    /// # Panics
    /// Panics on a live fold, which keeps no step list.
    pub fn workers_at(&self, t_ns: u64) -> u32 {
        let steps = self.retained_steps();
        match steps.binary_search_by_key(&t_ns, |&(t, _)| t) {
            Ok(i) => steps[i].1,
            Err(0) => 0,
            Err(i) => steps[i - 1].1,
        }
    }

    /// Maximum simultaneous workers over the whole run (paper: `Wmax`).
    #[inline]
    pub fn w_max(&self) -> u32 {
        self.w_max
    }

    /// Occupancy recovery time after a disturbance at `from_ns`: how
    /// long until occupancy is next at least `x` (fraction of ranks).
    /// `Some(0)` if it is already there; `None` if it never recovers.
    /// This is the fault-sweep metric: how quickly the scheduler
    /// refills workers after a crash or brownout knocks them idle.
    ///
    /// # Panics
    /// Panics on a live fold, which keeps no step list.
    pub fn recovery_time_ns(&self, from_ns: u64, x: f64) -> Option<u64> {
        let need = self.required_workers(x);
        if self.workers_at(from_ns) >= need {
            return Some(0);
        }
        self.retained_steps()
            .iter()
            .find(|&&(t, w)| t > from_ns && w >= need)
            .map(|&(t, _)| t - from_ns)
    }

    /// First time occupancy reaches at least `x` (fraction of ranks),
    /// in nanoseconds; `None` if it never does.
    pub fn first_reach_ns(&self, x: f64) -> Option<u64> {
        self.first_reach[self.required_workers(x) as usize]
    }

    /// Last time occupancy is at least `x`, in nanoseconds; `None` if
    /// it never reaches `x`. The count holds until its next step, so
    /// this is the step where it last drops below `x` — or `total_ns`
    /// when the run ends with the count still there.
    pub fn last_reach_ns(&self, x: f64) -> Option<u64> {
        let need = self.required_workers(x);
        if self.final_workers >= need {
            return Some(self.total_ns);
        }
        self.last_drop[need as usize]
    }

    /// Starting latency `SL(x)` as a fraction of the run, the paper's
    /// headline metric. `None` if occupancy never reaches `x`.
    pub fn starting_latency(&self, x: f64) -> Option<f64> {
        self.first_reach_ns(x)
            .map(|t| t as f64 / self.total_ns.max(1) as f64)
    }

    /// Ending latency `EL(x)` as a fraction of the run.
    pub fn ending_latency(&self, x: f64) -> Option<f64> {
        self.last_reach_ns(x)
            .map(|t| (self.total_ns.saturating_sub(t)) as f64 / self.total_ns.max(1) as f64)
    }

    /// Sample `SL` and `EL` at every integer occupancy percentage in
    /// `[1, upto_percent]`, yielding `(percent, SL, EL)` rows — the data
    /// series of Figures 4, 5, 12 and 13.
    pub fn latency_series(&self, upto_percent: u32) -> Vec<(u32, Option<f64>, Option<f64>)> {
        (1..=upto_percent)
            .map(|p| {
                let x = p as f64 / 100.0;
                (p, self.starting_latency(x), self.ending_latency(x))
            })
            .collect()
    }

    /// ∫ workers(t) dt over the run, in worker-nanoseconds: the total
    /// busy time, a cross-check against per-rank accounting.
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

    fn retained_steps(&self) -> &[(u64, u32)] {
        self.steps
            .as_deref()
            .expect("only a curve folded from a retained trace keeps its step list")
    }

    fn required_workers(&self, x: f64) -> u32 {
        assert!(
            (0.0..=1.0).contains(&x),
            "occupancy fraction {x} outside [0,1]"
        );
        (x * self.n_ranks as f64).ceil().max(1.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 ranks: 0 starts at t=0, 1 at 10, 2 at 20, 3 at 30; all stop in
    /// reverse order at 70, 80, 90, 100. Total = 100.
    fn staircase() -> OccupancyCurve {
        let mut tr = ActivityTrace::new(4);
        for (r, t) in [(0u32, 0u64), (1, 10), (2, 20), (3, 30)] {
            tr.record(r, t, true);
        }
        for (r, t) in [(3u32, 70u64), (2, 80), (1, 90), (0, 100)] {
            tr.record(r, t, false);
        }
        OccupancyCurve::from_trace(&tr, 100)
    }

    #[test]
    fn workers_step_function() {
        let c = staircase();
        assert_eq!(c.workers_at(0), 1);
        assert_eq!(c.workers_at(5), 1);
        assert_eq!(c.workers_at(10), 2);
        assert_eq!(c.workers_at(35), 4);
        assert_eq!(c.workers_at(75), 3);
        assert_eq!(c.workers_at(100), 0);
        assert_eq!(c.w_max(), 4);
    }

    #[test]
    fn starting_latency_matches_paper_definition() {
        let c = staircase();
        // 25% of 4 ranks = 1 worker, first at t=0 -> SL = 0.
        assert_eq!(c.starting_latency(0.25), Some(0.0));
        // 50% = 2 workers at t=10 -> SL = 10%.
        assert_eq!(c.starting_latency(0.5), Some(0.10));
        // 100% = 4 workers at t=30 -> SL = 30%.
        assert_eq!(c.starting_latency(1.0), Some(0.30));
    }

    #[test]
    fn ending_latency_matches_paper_definition() {
        let c = staircase();
        // 4 workers last at t=70 -> EL = (100-70)/100.
        assert_eq!(c.ending_latency(1.0), Some(0.30));
        // 2 workers until t=90 -> EL = 10%.
        assert_eq!(c.ending_latency(0.5), Some(0.10));
        // >=1 worker until the very end -> EL = 0.
        assert_eq!(c.ending_latency(0.25), Some(0.0));
    }

    #[test]
    fn unreachable_occupancy_returns_none() {
        let mut tr = ActivityTrace::new(4);
        tr.record(0, 0, true);
        tr.record(0, 50, false);
        let c = OccupancyCurve::from_trace(&tr, 100);
        assert_eq!(c.starting_latency(0.5), None);
        assert_eq!(c.ending_latency(0.5), None);
        assert_eq!(c.w_max(), 1);
    }

    #[test]
    fn busy_integral_equals_trace_busy_time() {
        let c = staircase();
        // Busy: rank0 100, rank1 80, rank2 60, rank3 40 = 280.
        assert_eq!(c.busy_ns_per_rank(), &[100, 80, 60, 40]);
        assert_eq!(c.busy_integral_ns(), 280);
        assert!((c.average_occupancy() - 0.70).abs() < 1e-12);
    }

    #[test]
    fn latency_series_is_monotone() {
        let c = staircase();
        let series = c.latency_series(100);
        let mut prev_sl = 0.0;
        for (_, sl, _) in &series {
            let sl = sl.expect("staircase reaches all occupancies");
            assert!(sl >= prev_sl, "SL must be non-decreasing in x");
            prev_sl = sl;
        }
    }

    #[test]
    fn simultaneous_transitions_collapse_into_one_step() {
        let mut tr = ActivityTrace::new(2);
        tr.record(0, 10, true);
        tr.record(1, 10, true);
        tr.record(0, 20, false);
        tr.record(1, 20, false);
        let c = OccupancyCurve::from_trace(&tr, 30);
        assert_eq!(c.workers_at(10), 2);
        assert_eq!(c.workers_at(20), 0);
        assert_eq!(c.steps(), Some(&[(0, 0), (10, 2), (20, 0)][..]));
    }

    #[test]
    fn recovery_time_counts_from_the_disturbance() {
        let c = staircase();
        // Two workers from t=10: already there at 15, reached 5 ns
        // after a disturbance at 5, never again after 90.
        assert_eq!(c.recovery_time_ns(15, 0.5), Some(0));
        assert_eq!(c.recovery_time_ns(5, 0.5), Some(5));
        assert_eq!(c.recovery_time_ns(95, 0.5), None);
    }

    #[test]
    #[should_panic(expected = "invalid activity trace")]
    fn from_trace_rejects_broken_traces() {
        let mut tr = ActivityTrace::new(1);
        // Every rank starts idle, so an initial idle record is invalid.
        tr.record(0, 0, false);
        OccupancyCurve::from_trace(&tr, 10);
    }

    #[test]
    #[should_panic(expected = "step list")]
    fn a_live_fold_has_no_step_list_to_read() {
        let mut online = OnlineAccounting::new(1);
        online.record(0, 0, true);
        online.finish(10).workers_at(5);
    }

    /// The §III definitions evaluated by brute force over a transition
    /// list given in each rank's own order, sharing no code with the
    /// fold: at every distinct timestamp, count the ranks whose last
    /// transition at or before it is to active.
    struct Oracle {
        n_ranks: u32,
        end_ns: u64,
        /// `(time, workers)` at every distinct timestamp, ascending.
        counts: Vec<(u64, u32)>,
        busy: Vec<u64>,
    }

    impl Oracle {
        fn new(transitions: &[(u32, u64, bool)], n_ranks: u32, end_ns: u64) -> Self {
            let mut times: Vec<u64> = transitions.iter().map(|&(_, t, _)| t).collect();
            times.sort_unstable();
            times.dedup();
            let counts = times
                .iter()
                .map(|&at| {
                    let mut active = vec![false; n_ranks as usize];
                    for &(r, t, a) in transitions {
                        if t <= at {
                            active[r as usize] = a;
                        }
                    }
                    (at, active.iter().filter(|&&a| a).count() as u32)
                })
                .collect();
            let busy = (0..n_ranks)
                .map(|rank| {
                    let (mut total, mut since) = (0, None);
                    for &(_, t, a) in transitions.iter().filter(|tr| tr.0 == rank) {
                        match (a, since) {
                            (true, None) => since = Some(t),
                            (false, Some(s)) => {
                                total += t - s;
                                since = None;
                            }
                            _ => {}
                        }
                    }
                    total + since.map_or(0, |s| end_ns - s)
                })
                .collect();
            Self {
                n_ranks,
                end_ns,
                counts,
                busy,
            }
        }

        fn need(&self, x: f64) -> u32 {
            (x * self.n_ranks as f64).ceil().max(1.0) as u32
        }

        fn w_max(&self) -> u32 {
            self.counts.iter().map(|&(_, w)| w).max().unwrap_or(0)
        }

        fn integral(&self) -> u128 {
            let mut total = 0u128;
            for (i, &(t, w)) in self.counts.iter().enumerate() {
                let next = self.counts.get(i + 1).map_or(self.end_ns, |c| c.0);
                total += (next - t) as u128 * w as u128;
            }
            total
        }

        fn first_reach(&self, x: f64) -> Option<u64> {
            let need = self.need(x);
            self.counts.iter().find(|c| c.1 >= need).map(|c| c.0)
        }

        fn last_reach(&self, x: f64) -> Option<u64> {
            let need = self.need(x);
            let i = self.counts.iter().rposition(|c| c.1 >= need)?;
            Some(self.counts.get(i + 1).map_or(self.end_ns, |c| c.0))
        }

        /// The step list: `(0, 0)`, then the count at every distinct
        /// timestamp (one at zero replaces the initial step).
        fn steps(&self) -> Vec<(u64, u32)> {
            let mut steps = vec![(0, 0)];
            for &(t, w) in &self.counts {
                if t == 0 {
                    steps[0].1 = w;
                } else {
                    steps.push((t, w));
                }
            }
            steps
        }
    }

    /// Fold the transition stream live, folding at `folds` boundaries,
    /// and once over the equivalent retained trace; assert both match
    /// the brute-force oracle.
    fn assert_matches_oracle(
        transitions: &[(u32, u64, bool)],
        n_ranks: u32,
        end_ns: u64,
        folds: &[u64],
    ) {
        let oracle = Oracle::new(transitions, n_ranks, end_ns);
        let mut online = OnlineAccounting::new(n_ranks).with_retained_steps();
        let mut fold_iter = folds.iter().copied().peekable();
        for &(rank, at, active) in transitions {
            while fold_iter.next_if(|&f| at >= f).is_some() {
                online.fold();
            }
            online.record(rank, at, active);
        }
        let log = transitions
            .iter()
            .map(|&(rank, at_ns, active)| Transition {
                rank,
                at_ns,
                active,
            })
            .collect();
        let trace = ActivityTrace::from_shard_logs(n_ranks, vec![log]);
        for curve in [
            online.finish(end_ns),
            OccupancyCurve::from_trace(&trace, end_ns),
        ] {
            assert_eq!(curve.busy_ns_per_rank(), &oracle.busy[..]);
            assert_eq!(curve.w_max(), oracle.w_max());
            assert_eq!(curve.busy_integral_ns(), oracle.integral());
            let average = oracle.integral() as f64 / (end_ns as f64 * n_ranks as f64);
            assert_eq!(curve.average_occupancy(), average);
            for p in 1..=100u32 {
                let x = p as f64 / 100.0;
                let (first, last) = (oracle.first_reach(x), oracle.last_reach(x));
                assert_eq!(curve.first_reach_ns(x), first, "SL at {p}%");
                assert_eq!(curve.last_reach_ns(x), last, "EL at {p}%");
                assert_eq!(
                    curve.starting_latency(x),
                    first.map(|t| t as f64 / end_ns as f64)
                );
                assert_eq!(
                    curve.ending_latency(x),
                    last.map(|t| (end_ns - t) as f64 / end_ns as f64)
                );
            }
            assert_eq!(curve.steps().expect("retained"), &oracle.steps()[..]);
        }
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
        assert_matches_oracle(&transitions, 4, 100, &[]);
        assert_matches_oracle(&transitions, 4, 100, &[15, 75]);
        assert_matches_oracle(&transitions, 4, 100, &[10, 20, 30, 70, 80, 90, 100]);
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
        assert_matches_oracle(&transitions, 3, 20, &[]);
        assert_matches_oracle(&transitions, 3, 20, &[5, 9, 12]);
    }

    #[test]
    fn open_intervals_bill_to_end() {
        // Rank 1 never goes idle; both folds bill it to end_ns.
        let transitions = [(0u32, 3u64, true), (1, 7, true), (0, 11, false)];
        assert_matches_oracle(&transitions, 2, 50, &[10]);
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
        assert_matches_oracle(&transitions, n_ranks, end, &[]);
        assert_matches_oracle(&transitions, n_ranks, end, &[end / 4, end / 2, 3 * end / 4]);
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
}
