//! Activity traces: the raw material of the paper's scheduling-latency
//! metric.
//!
//! Section III: "If one was to trace the active and idle phases of each
//! process participating in the computation, it should be possible
//! post-mortem to determine the number of active processes at any time
//! during execution." A process is *active* while its stack contains
//! work — including time spent answering steal requests — and *idle*
//! otherwise.
//!
//! The paper's ranks stamped transitions with their own clocks and
//! corrected the trace for clock skew afterwards. A simulator has the
//! true clock: the engine records every transition on the global
//! simulated clock (`Ctx::record_activity`), one log per shard, and
//! [`ActivityTrace::from_shard_logs`] merges the logs once, so there is
//! no skew to correct and the trace is sorted by construction.

/// One recorded phase transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Rank that transitioned.
    pub rank: u32,
    /// Global simulated time in nanoseconds.
    pub at_ns: u64,
    /// New state: `true` = became active (has work), `false` = idle.
    pub active: bool,
}

/// A full activity trace of a run, in `(time, rank)` order.
///
/// The trace is "lightweight" (paper: "as the trace only contains a
/// time and the new state at each phase transition"): two words per
/// transition.
#[derive(Debug, Clone, Default)]
pub struct ActivityTrace {
    transitions: Vec<Transition>,
    n_ranks: u32,
}

impl ActivityTrace {
    /// Create an empty trace for `n_ranks` processes.
    pub fn new(n_ranks: u32) -> Self {
        Self {
            transitions: Vec::new(),
            n_ranks,
        }
    }

    /// Build from the engine's per-shard logs over `n_ranks` ranks.
    /// Each rank's transitions must sit in one log, in the order the
    /// rank recorded them; the merge keeps that order among transitions
    /// with equal `(at_ns, rank)`.
    pub fn from_shard_logs(n_ranks: u32, logs: Vec<Vec<Transition>>) -> Self {
        Self {
            transitions: merge_shard_logs(logs, |t| (t.at_ns, t.rank)),
            n_ranks,
        }
    }

    /// Number of ranks this trace covers.
    #[inline]
    pub fn n_ranks(&self) -> u32 {
        self.n_ranks
    }

    /// Append a transition. States must alternate per rank; violations
    /// are caught by [`check`](Self::check), not here.
    ///
    /// # Panics
    /// Panics if the transition sorts before the last one by
    /// `(at_ns, rank)`: the trace stays in that order.
    pub fn record(&mut self, rank: u32, at_ns: u64, active: bool) {
        assert!(rank < self.n_ranks, "rank {rank} outside the trace");
        if let Some(last) = self.transitions.last() {
            assert!(
                (last.at_ns, last.rank) <= (at_ns, rank),
                "transition of rank {rank} at {at_ns} recorded out of (time, rank) order"
            );
        }
        self.transitions.push(Transition {
            rank,
            at_ns,
            active,
        });
    }

    /// All transitions, in `(at_ns, rank)` order; one rank's transitions
    /// at one instant keep the order it recorded them in.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Validate the trace: every rank starts idle and its states
    /// alternate. Returns the number of transitions.
    pub fn check(&self) -> Result<usize, String> {
        let mut active = vec![false; self.n_ranks as usize];
        for t in &self.transitions {
            let state = &mut active[t.rank as usize];
            if *state == t.active {
                return Err(format!(
                    "rank {}: repeated {} transition at {} (ranks start idle)",
                    t.rank,
                    if t.active { "active" } else { "idle" },
                    t.at_ns
                ));
            }
            *state = t.active;
        }
        Ok(self.transitions.len())
    }
}

/// Concatenate per-shard logs and stable-sort them by `key`, so records
/// with equal keys — one rank's, hence one log's — keep their order. A
/// log in dispatch order is one sorted run apart from the `on_start`
/// batch, so the sort is close to a linear pass, and a lone log is
/// never copied.
pub(crate) fn merge_shard_logs<T, K: Ord>(logs: Vec<Vec<T>>, key: impl FnMut(&T) -> K) -> Vec<T> {
    let mut logs = logs.into_iter();
    let mut merged = logs.next().unwrap_or_default();
    for log in logs {
        merged.extend(log);
    }
    merged.sort_by_key(key);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(rank: u32, at_ns: u64, active: bool) -> Transition {
        Transition {
            rank,
            at_ns,
            active,
        }
    }

    #[test]
    fn check_accepts_alternating_trace() {
        let mut t = ActivityTrace::new(2);
        t.record(0, 0, true);
        t.record(1, 50, true);
        t.record(0, 100, false);
        t.record(1, 150, false);
        assert_eq!(t.check(), Ok(4));
    }

    #[test]
    fn check_rejects_repeated_state() {
        let mut t = ActivityTrace::new(1);
        t.record(0, 0, true);
        t.record(0, 10, true);
        assert!(t.check().is_err());
        let mut idle_first = ActivityTrace::new(1);
        idle_first.record(0, 0, false);
        assert!(idle_first.check().is_err());
    }

    #[test]
    #[should_panic(expected = "out of (time, rank) order")]
    fn record_rejects_time_travel() {
        let mut t = ActivityTrace::new(1);
        t.record(0, 10, true);
        t.record(0, 5, false);
    }

    #[test]
    fn shard_logs_merge_into_time_rank_order() {
        // Rank 2 lives in the second log; each log in dispatch order.
        let t = ActivityTrace::from_shard_logs(
            3,
            vec![
                vec![tr(1, 50, true), tr(0, 0, true), tr(0, 100, false)],
                vec![tr(2, 50, true), tr(2, 50, false)],
            ],
        );
        let order: Vec<(u32, u64, bool)> = t
            .transitions()
            .iter()
            .map(|t| (t.rank, t.at_ns, t.active))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, 0, true),
                (1, 50, true),
                // One rank's same-instant pair keeps its order.
                (2, 50, true),
                (2, 50, false),
                (0, 100, false),
            ]
        );
        assert_eq!(t.check(), Ok(5));
    }
}
