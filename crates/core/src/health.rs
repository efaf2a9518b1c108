//! Online victim-health tracking for adaptive victim selection.
//!
//! The paper's policies are static: they keep hammering crashed,
//! browned-out, or partitioned victims exactly as if they were healthy.
//! This module is the learning half of the overlay
//! [`ExperimentConfig::adaptive`](crate::ExperimentConfig::adaptive)
//! switches on over any policy: a per-victim health record
//! fed from the exact sites where the scheduler already bumps its
//! [`StealStats`](dws_metrics::StealStats) counters, driving
//!
//! - a **score EWMA** over steal outcomes (success = 1, answered-empty
//!   = 0.5, timeout = 0) that re-weights the base policy's draws via
//!   bounded rejection (see `Worker::send_steal_request`), and
//! - a **quarantine state machine**: after `QUARANTINE_AFTER`
//!   consecutive timeouts a victim is quarantined for an exponentially
//!   growing probation window; the first draw landing on an expired
//!   window is the *probe steal* — if it times out the victim is
//!   re-quarantined with a deeper backoff, and any reply (even a stale
//!   or duplicated one) re-admits it immediately. The window's base is
//!   derived from the job's latency model
//!   (`PROBATION_BASE_BLADE_LATENCIES`), so a run whose every duration
//!   is k times longer quarantines k times longer.
//!
//! Everything here is deterministic: updates are pure functions of the
//! steal outcomes and simulated clock, and the overlay draws from the
//! rank's own RNG stream, so runs stay bit-identical across `--threads`.
//! With the adaptive layer off the tracker is never constructed and the
//! scheduler makes zero extra RNG draws — the event schedule is
//! byte-identical to a build without this module.

use dws_simnet::Rank;
use dws_topology::LatencyParams;
use std::collections::BTreeMap;

/// EWMA smoothing factor for the outcome score and the RTT estimate
/// (weight of the newest sample).
const EWMA_BETA: f64 = 0.25;

/// Consecutive steal timeouts before a victim is quarantined.
const QUARANTINE_AFTER: u32 = 2;

/// The first probation window, in same-blade link latencies: 1 ms at
/// the default latency parameters. Linear in the latency model, so
/// the window scales with every other time in the run, and non-zero on
/// a flat network (whose per-hop cost is 0).
const PROBATION_BASE_BLADE_LATENCIES: u64 = 1_000;

/// Cap on probation-window doublings (the window saturates at the base
/// shifted left by this).
const PROBATION_MAX_DOUBLINGS: u32 = 8;

/// Floor on the overlay acceptance probability of a non-quarantined
/// victim: even a victim with score 0 keeps this share of its base
/// draw weight, so the learned distribution never starves a rank.
const MIN_ACCEPT: f64 = 0.15;

/// Bounded-rejection budget per steal: draws from the base selector
/// before falling back to a deterministic scan. Keeps the overlay O(1)
/// on top of the base policy's O(1) draw.
pub(crate) const MAX_OVERLAY_ROUNDS: u32 = 8;

/// What the overlay should do with a drawn victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Not quarantined: accept with probability `accept_weight`.
    Allow,
    /// Quarantined with the probation window still open: redraw.
    Reject,
    /// Probation window expired; this draw is the probe steal — send
    /// it unconditionally (bypasses the acceptance weight).
    Probe,
}

/// One victim's learned health record.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimHealth {
    /// Outcome EWMA in `[0, 1]`; starts at 1 (innocent until proven
    /// unreachable).
    pub score: f64,
    /// EWMA of observed steal round trips, in nanoseconds (0 until the
    /// first reply).
    pub rtt_ewma_ns: f64,
    /// Replies carrying work.
    pub successes: u64,
    /// Replies answered empty (the victim is alive but poor).
    pub empties: u64,
    /// Steal requests to this victim that timed out.
    pub timeouts: u64,
    /// Consecutive timeouts since the last reply (quarantine trigger).
    pub consecutive_timeouts: u32,
    /// End of the current probation window (0 = not quarantined).
    pub quarantined_until_ns: u64,
    /// Probation-window doublings applied so far (reset on any reply).
    pub backoff_doublings: u32,
    /// A probe steal is in flight: the next timeout re-quarantines
    /// immediately instead of counting toward `QUARANTINE_AFTER`.
    pub on_probation: bool,
    /// Times this victim entered quarantine.
    pub quarantines: u64,
    /// Probe steals issued to this victim.
    pub probes: u64,
}

impl Default for VictimHealth {
    fn default() -> Self {
        Self {
            score: 1.0,
            rtt_ewma_ns: 0.0,
            successes: 0,
            empties: 0,
            timeouts: 0,
            consecutive_timeouts: 0,
            quarantined_until_ns: 0,
            backoff_doublings: 0,
            on_probation: false,
            quarantines: 0,
            probes: 0,
        }
    }
}

/// Per-rank health ledger over this rank's victims.
///
/// Entries are allocated lazily on the first recorded outcome (the
/// overlay's [`gate`](Self::gate) never inserts), so memory is bounded
/// by the set of victims actually contacted. A `BTreeMap` keeps
/// iteration order deterministic for the JSON report.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    /// First probation window length, in simulated nanoseconds.
    probation_base_ns: u64,
    map: BTreeMap<Rank, VictimHealth>,
}

impl HealthTracker {
    /// Fresh tracker for a job under the `latency` model, which sets
    /// the probation window.
    pub fn new(latency: &LatencyParams) -> Self {
        Self {
            probation_base_ns: PROBATION_BASE_BLADE_LATENCIES * latency.same_blade_ns,
            map: BTreeMap::new(),
        }
    }

    fn readmit(e: &mut VictimHealth) {
        e.consecutive_timeouts = 0;
        e.quarantined_until_ns = 0;
        e.backoff_doublings = 0;
        e.on_probation = false;
    }

    /// A steal to `victim` was answered after `rtt_ns`: with work (full
    /// credit), or empty — the victim is reachable but had no work
    /// (half credit).
    pub fn on_reply(&mut self, victim: Rank, rtt_ns: u64, with_work: bool) {
        let beta = EWMA_BETA;
        let e = self.map.entry(victim).or_default();
        let credit = if with_work {
            e.successes += 1;
            1.0
        } else {
            e.empties += 1;
            0.5
        };
        e.score = (1.0 - beta) * e.score + beta * credit;
        e.rtt_ewma_ns = if e.rtt_ewma_ns == 0.0 {
            rtt_ns as f64
        } else {
            (1.0 - beta) * e.rtt_ewma_ns + beta * rtt_ns as f64
        };
        Self::readmit(e);
    }

    /// Any other sign of life from `victim` (late work, duplicated or
    /// stale replies): re-admit without touching the score — the reply
    /// proves reachability but its timing proves nothing.
    pub fn on_alive(&mut self, victim: Rank) {
        if let Some(e) = self.map.get_mut(&victim) {
            Self::readmit(e);
        }
    }

    /// A steal to `victim` timed out at simulated time `now_ns`.
    /// Returns `true` if this pushed the victim into quarantine.
    pub fn on_timeout(&mut self, victim: Rank, now_ns: u64) -> bool {
        let e = self.map.entry(victim).or_default();
        e.timeouts += 1;
        e.score *= 1.0 - EWMA_BETA;
        let quarantine = if e.on_probation {
            // The probe itself timed out: straight back in, deeper.
            e.on_probation = false;
            true
        } else {
            e.consecutive_timeouts += 1;
            e.consecutive_timeouts >= QUARANTINE_AFTER
        };
        if quarantine {
            let window = self.probation_base_ns << e.backoff_doublings.min(PROBATION_MAX_DOUBLINGS);
            e.quarantined_until_ns = now_ns.saturating_add(window);
            e.backoff_doublings += 1;
            e.consecutive_timeouts = 0;
            e.quarantines += 1;
        }
        quarantine
    }

    /// Admission decision for a drawn victim at simulated time
    /// `now_ns`. Never inserts: an unseen victim is simply allowed.
    pub fn gate(&mut self, victim: Rank, now_ns: u64) -> Gate {
        let Some(e) = self.map.get_mut(&victim) else {
            return Gate::Allow;
        };
        if e.quarantined_until_ns == 0 {
            return Gate::Allow;
        }
        if now_ns < e.quarantined_until_ns {
            return Gate::Reject;
        }
        // Window expired: this draw is the probe.
        e.quarantined_until_ns = 0;
        e.on_probation = true;
        e.probes += 1;
        Gate::Probe
    }

    /// Overlay acceptance probability for a non-quarantined victim:
    /// the score clamped to `[MIN_ACCEPT, 1]`; unseen victims are 1.
    pub fn accept_weight(&self, victim: Rank) -> f64 {
        match self.map.get(&victim) {
            Some(e) => e.score.clamp(MIN_ACCEPT, 1.0),
            None => 1.0,
        }
    }

    /// True if `victim` sits inside an open probation window.
    pub fn is_quarantined(&self, victim: Rank, now_ns: u64) -> bool {
        self.map
            .get(&victim)
            .is_some_and(|e| e.quarantined_until_ns != 0 && now_ns < e.quarantined_until_ns)
    }

    /// All tracked victims in rank order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &VictimHealth)> {
        self.map.iter().map(|(r, e)| (*r, e))
    }

    /// Number of tracked victims.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no outcome has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_simnet::DetRng;

    /// The probation base at the default latency parameters.
    const BASE: u64 = 1_000_000;

    fn tracker() -> HealthTracker {
        HealthTracker::new(&LatencyParams::default())
    }

    #[test]
    fn probation_base_is_linear_in_the_latency_model() {
        let base = |p: &LatencyParams| HealthTracker::new(p).probation_base_ns;
        assert_eq!(base(&LatencyParams::default()), BASE);
        let d = LatencyParams::default();
        let scaled = LatencyParams {
            same_node_ns: 3 * d.same_node_ns,
            same_blade_ns: 3 * d.same_blade_ns,
            same_cube_ns: 3 * d.same_cube_ns,
            same_rack_ns: 3 * d.same_rack_ns,
            inter_rack_ns: 3 * d.inter_rack_ns,
            per_hop_ns: 3 * d.per_hop_ns,
            bytes_per_ns: d.bytes_per_ns / 3.0,
            software_overhead_ns: 3 * d.software_overhead_ns,
        };
        assert_eq!(base(&scaled), 3 * BASE);
        // A flat network has no per-hop cost; quarantine stays on.
        assert_eq!(base(&LatencyParams::flat(2_000)), 2 * BASE);
    }

    #[test]
    fn unseen_victims_pass_at_full_weight() {
        let mut t = tracker();
        assert_eq!(t.gate(5, 1_000), Gate::Allow);
        assert_eq!(t.accept_weight(5), 1.0);
        assert!(t.is_empty(), "gate must never allocate an entry");
    }

    #[test]
    fn consecutive_timeouts_quarantine_and_backoff_doubles() {
        let mut t = tracker();
        assert!(!t.on_timeout(3, 100));
        assert!(t.on_timeout(3, 200), "second timeout quarantines");
        let until1 = 200 + BASE;
        assert!(t.is_quarantined(3, until1 - 1));
        assert!(!t.is_quarantined(3, until1));
        // Expired window: the next gate is the probe.
        assert_eq!(t.gate(3, until1), Gate::Probe);
        // Probe times out: immediate re-quarantine, doubled window.
        assert!(t.on_timeout(3, until1 + 10));
        assert!(t.is_quarantined(3, until1 + 10 + 2 * BASE - 1));
    }

    #[test]
    fn any_reply_readmits_and_resets_backoff() {
        let mut t = tracker();
        t.on_timeout(7, 100);
        t.on_timeout(7, 200);
        assert!(t.is_quarantined(7, 300));
        t.on_alive(7);
        assert!(!t.is_quarantined(7, 300));
        assert_eq!(t.gate(7, 300), Gate::Allow);
        // Backoff reset: the next quarantine starts at the base window.
        t.on_timeout(7, 400);
        t.on_timeout(7, 500);
        assert!(t.is_quarantined(7, 500 + BASE - 1));
        assert!(!t.is_quarantined(7, 500 + BASE));
    }

    #[test]
    fn scores_track_outcomes() {
        let mut t = tracker();
        t.on_reply(1, 1_000, false);
        let after_empty = t.accept_weight(1);
        assert!(after_empty < 1.0 && after_empty > 0.5);
        t.on_timeout(1, 10);
        assert!(t.accept_weight(1) < after_empty);
        for _ in 0..50 {
            t.on_timeout(1, 10);
        }
        assert_eq!(
            t.accept_weight(1),
            MIN_ACCEPT,
            "score is floored at min_accept"
        );
        for _ in 0..50 {
            t.on_reply(1, 1_000, true);
        }
        assert!(t.accept_weight(1) > 0.99);
    }

    #[test]
    fn rtt_ewma_follows_samples() {
        let mut t = tracker();
        t.on_reply(2, 1_000, true);
        let (_, h) = t.iter().next().expect("entry exists");
        assert_eq!(h.rtt_ewma_ns, 1_000.0);
        t.on_reply(2, 2_000, true);
        let (_, h) = t.iter().next().expect("entry exists");
        assert!(h.rtt_ewma_ns > 1_000.0 && h.rtt_ewma_ns < 2_000.0);
    }

    /// Property: for arbitrary outcome sequences, a quarantined victim
    /// is rejected by every gate call strictly inside its probation
    /// window, the first gate at or after expiry is the probe, and the
    /// probation window never exceeds the configured cap.
    #[test]
    fn quarantine_gate_property() {
        let max_window = BASE << PROBATION_MAX_DOUBLINGS;
        for seed in 0..20u64 {
            let mut rng = DetRng::new(seed);
            let mut t = tracker();
            let mut now = 0u64;
            let mut quarantined_at: Option<u64> = None;
            for _ in 0..400 {
                now += 1 + rng.next_below(500_000);
                let victim = 1 + rng.next_below(4) as Rank;
                match rng.next_below(5) {
                    0 => {
                        t.on_reply(victim, 1_000, true);
                        if victim == 1 {
                            quarantined_at = None;
                        }
                    }
                    1 => {
                        t.on_alive(victim);
                        if victim == 1 {
                            quarantined_at = None;
                        }
                    }
                    _ => {
                        let q = t.on_timeout(victim, now);
                        if victim == 1 && q {
                            quarantined_at = Some(now);
                        }
                    }
                }
                // Probe the gate of victim 1 at a random later instant.
                let at = now + rng.next_below(2 * max_window);
                let was_quarantined = t.is_quarantined(1, at);
                let g = t.gate(1, at);
                match g {
                    Gate::Reject => {
                        assert!(was_quarantined, "reject implies an open window");
                        let q_at = quarantined_at.expect("a quarantine was entered");
                        assert!(
                            at < q_at + max_window,
                            "window extends past the configured cap"
                        );
                    }
                    Gate::Probe => {
                        assert!(!was_quarantined, "probe only fires once the window expired");
                        // Probe consumes the window: gate is open now.
                        assert_eq!(t.gate(1, at), Gate::Allow);
                        quarantined_at = None;
                    }
                    Gate::Allow => {
                        assert!(!was_quarantined);
                    }
                }
            }
        }
    }
}
