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
//! - a **quarantine state machine**: after `quarantine_after`
//!   consecutive timeouts a victim is quarantined for an exponentially
//!   growing probation window; the first draw landing on an expired
//!   window is the *probe steal* — if it times out the victim is
//!   re-quarantined with a deeper backoff, and any reply (even a stale
//!   or duplicated one) re-admits it immediately.
//!
//! Everything here is deterministic: updates are pure functions of the
//! steal outcomes and simulated clock, and the overlay draws from the
//! rank's own RNG stream, so runs stay bit-identical across `--threads`.
//! With the adaptive layer off the tracker is never constructed and the
//! scheduler makes zero extra RNG draws — the event schedule is
//! byte-identical to a build without this module.

use dws_simnet::Rank;
use std::collections::BTreeMap;

/// Tuning knobs of the adaptive layer. The defaults are deliberately
/// conservative: reachable victims keep at least `min_accept` of their
/// base probability, so the learned distribution never starves a rank.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCfg {
    /// EWMA smoothing factor for the outcome score and the RTT
    /// estimate (weight of the newest sample).
    pub ewma_beta: f64,
    /// Consecutive steal timeouts before a victim is quarantined.
    pub quarantine_after: u32,
    /// First probation window length, in simulated nanoseconds.
    pub probation_base_ns: u64,
    /// Cap on probation-window doublings (window length saturates at
    /// `probation_base_ns << cap`).
    pub probation_max_doublings: u32,
    /// Floor on the overlay acceptance probability of a non-quarantined
    /// victim: even a victim with score 0 keeps this share of its base
    /// draw weight.
    pub min_accept: f64,
    /// Bounded-rejection budget per steal: draws from the base selector
    /// before falling back to a deterministic scan. Keeps the overlay
    /// O(1) on top of the base policy's O(1) draw.
    pub max_overlay_rounds: u32,
}

impl Default for AdaptiveCfg {
    fn default() -> Self {
        Self {
            ewma_beta: 0.25,
            quarantine_after: 2,
            probation_base_ns: 1_000_000,
            probation_max_doublings: 8,
            min_accept: 0.15,
            max_overlay_rounds: 8,
        }
    }
}

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
    /// immediately instead of counting toward `quarantine_after`.
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
    cfg: AdaptiveCfg,
    map: BTreeMap<Rank, VictimHealth>,
}

impl HealthTracker {
    /// Fresh tracker with the given knobs.
    pub fn new(cfg: AdaptiveCfg) -> Self {
        Self {
            cfg,
            map: BTreeMap::new(),
        }
    }

    /// The configured knobs.
    pub fn cfg(&self) -> &AdaptiveCfg {
        &self.cfg
    }

    fn readmit(e: &mut VictimHealth) {
        e.consecutive_timeouts = 0;
        e.quarantined_until_ns = 0;
        e.backoff_doublings = 0;
        e.on_probation = false;
    }

    /// A steal to `victim` was answered with work after `rtt_ns`.
    pub fn on_success(&mut self, victim: Rank, rtt_ns: u64) {
        let beta = self.cfg.ewma_beta;
        let e = self.map.entry(victim).or_default();
        e.successes += 1;
        e.score = (1.0 - beta) * e.score + beta;
        e.rtt_ewma_ns = if e.rtt_ewma_ns == 0.0 {
            rtt_ns as f64
        } else {
            (1.0 - beta) * e.rtt_ewma_ns + beta * rtt_ns as f64
        };
        Self::readmit(e);
    }

    /// A steal to `victim` was answered empty after `rtt_ns`: the
    /// victim is reachable but had no work — half credit.
    pub fn on_empty(&mut self, victim: Rank, rtt_ns: u64) {
        let beta = self.cfg.ewma_beta;
        let e = self.map.entry(victim).or_default();
        e.empties += 1;
        e.score = (1.0 - beta) * e.score + beta * 0.5;
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
        let cfg = self.cfg.clone();
        let e = self.map.entry(victim).or_default();
        e.timeouts += 1;
        e.score *= 1.0 - cfg.ewma_beta;
        let quarantine = if e.on_probation {
            // The probe itself timed out: straight back in, deeper.
            e.on_probation = false;
            true
        } else {
            e.consecutive_timeouts += 1;
            e.consecutive_timeouts >= cfg.quarantine_after
        };
        if quarantine {
            let window =
                cfg.probation_base_ns << e.backoff_doublings.min(cfg.probation_max_doublings);
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
    /// the score clamped to `[min_accept, 1]`; unseen victims are 1.
    pub fn accept_weight(&self, victim: Rank) -> f64 {
        match self.map.get(&victim) {
            Some(e) => e.score.clamp(self.cfg.min_accept, 1.0),
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

    fn tracker() -> HealthTracker {
        HealthTracker::new(AdaptiveCfg::default())
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
        let cfg = AdaptiveCfg::default();
        let mut t = tracker();
        assert!(!t.on_timeout(3, 100));
        assert!(t.on_timeout(3, 200), "second timeout quarantines");
        let until1 = 200 + cfg.probation_base_ns;
        assert!(t.is_quarantined(3, until1 - 1));
        assert!(!t.is_quarantined(3, until1));
        // Expired window: the next gate is the probe.
        assert_eq!(t.gate(3, until1), Gate::Probe);
        // Probe times out: immediate re-quarantine, doubled window.
        assert!(t.on_timeout(3, until1 + 10));
        assert!(t.is_quarantined(3, until1 + 10 + 2 * cfg.probation_base_ns - 1));
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
        let base = AdaptiveCfg::default().probation_base_ns;
        assert!(t.is_quarantined(7, 500 + base - 1));
        assert!(!t.is_quarantined(7, 500 + base));
    }

    #[test]
    fn scores_track_outcomes() {
        let mut t = tracker();
        t.on_empty(1, 1_000);
        let after_empty = t.accept_weight(1);
        assert!(after_empty < 1.0 && after_empty > 0.5);
        t.on_timeout(1, 10);
        assert!(t.accept_weight(1) < after_empty);
        for _ in 0..50 {
            t.on_timeout(1, 10);
        }
        assert_eq!(
            t.accept_weight(1),
            AdaptiveCfg::default().min_accept,
            "score is floored at min_accept"
        );
        for _ in 0..50 {
            t.on_success(1, 1_000);
        }
        assert!(t.accept_weight(1) > 0.99);
    }

    #[test]
    fn rtt_ewma_follows_samples() {
        let mut t = tracker();
        t.on_success(2, 1_000);
        let (_, h) = t.iter().next().expect("entry exists");
        assert_eq!(h.rtt_ewma_ns, 1_000.0);
        t.on_success(2, 2_000);
        let (_, h) = t.iter().next().expect("entry exists");
        assert!(h.rtt_ewma_ns > 1_000.0 && h.rtt_ewma_ns < 2_000.0);
    }

    /// Property: for arbitrary outcome sequences, a quarantined victim
    /// is rejected by every gate call strictly inside its probation
    /// window, the first gate at or after expiry is the probe, and the
    /// probation window never exceeds the configured cap.
    #[test]
    fn quarantine_gate_property() {
        let cfg = AdaptiveCfg::default();
        let max_window = cfg.probation_base_ns << cfg.probation_max_doublings;
        for seed in 0..20u64 {
            let mut rng = DetRng::new(seed);
            let mut t = HealthTracker::new(cfg.clone());
            let mut now = 0u64;
            let mut quarantined_at: Option<u64> = None;
            for _ in 0..400 {
                now += 1 + rng.next_below(500_000);
                let victim = 1 + rng.next_below(4) as Rank;
                match rng.next_below(5) {
                    0 => {
                        t.on_success(victim, 1_000);
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
