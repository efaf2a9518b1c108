//! Deterministic fault injection for the simulation engine.
//!
//! A [`FaultPlan`] describes everything that can go wrong on the
//! simulated interconnect and compute nodes: per-message drop and
//! duplication probabilities, heavy-tailed latency spikes, NIC
//! brownout windows (all traffic touching a rank is lost), permanent
//! rank crashes at scheduled times,
//! network partitions (a rank-range cut severs all traffic across it
//! for a window), and node-level crash domains (a whole node's ranks
//! die together, matching the paper's 8-ranks-per-node allocations).
//!
//! Faults draw from a dedicated RNG stream
//! (`DetRng::for_rank(seed, u32::MAX - 1)`) that is **only touched
//! when the plan is active**: with `FaultPlan::default()` the engine
//! makes zero fault draws and the event schedule is byte-identical to
//! a build without this module. Under a fixed seed the full fault
//! schedule — which messages drop, which spike, when — is a pure
//! function of the configuration, so faulty runs are exactly
//! reproducible.

use crate::engine::Rank;

/// A half-open time window `[from_ns, until_ns)` during which a rank's
/// NIC is browned out: every message departing from or addressed to it
/// is silently lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brownout {
    /// Rank whose NIC browns out.
    pub rank: Rank,
    /// Window start (inclusive), in simulated nanoseconds.
    pub from_ns: u64,
    /// Window end (exclusive).
    pub until_ns: u64,
}

/// A permanent rank crash: from `at_ns` on, the rank processes no
/// further deliveries or timers and sends nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// Rank that dies.
    pub rank: Rank,
    /// Time of death, in simulated nanoseconds.
    pub at_ns: u64,
}

/// A half-open time window `[from_ns, until_ns)` during which the
/// network is split in two: ranks below `boundary` cannot exchange
/// messages with ranks at or above it, in either direction. Deliveries
/// crossing the cut are silently lost. Like brownouts, partitions are
/// window-based and consume no RNG draws, so adding one to a plan never
/// perturbs the drop/spike/dup schedule of the surviving traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First rank of the upper side: the cut separates ranks
    /// `0..boundary` from ranks `boundary..n_ranks`.
    pub boundary: Rank,
    /// Window start (inclusive), in simulated nanoseconds.
    pub from_ns: u64,
    /// Window end (exclusive).
    pub until_ns: u64,
}

/// A node-level crash domain: every listed rank dies together at
/// `at_ns`, modelling the loss of a whole compute node (the paper's 8G
/// allocation packs 8 ranks per node, so one node failure takes out a
/// contiguous block of eight).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashDomain {
    /// Ranks that die together.
    pub ranks: Vec<Rank>,
    /// Time of death, in simulated nanoseconds.
    pub at_ns: u64,
}

/// The complete, seed-deterministic fault schedule for one run.
///
/// The default plan injects nothing and adds zero overhead.
///
/// # Example
///
/// ```
/// use dws_simnet::FaultPlan;
///
/// // 1% drops, no duplicates, 0.5% latency spikes — and one rank
/// // dying a millisecond in.
/// let mut plan = FaultPlan::message_faults(0.01, 0.0, 0.005);
/// plan.crashes.push(dws_simnet::Crash { rank: 3, at_ns: 1_000_000 });
/// plan.validate(8).expect("plan must fit an 8-rank job");
/// assert!(plan.is_active());
/// assert_eq!(plan.crash_time(3), Some(1_000_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that any given message is silently dropped.
    pub drop_prob: f64,
    /// Probability that any given message is delivered twice (the
    /// duplicate is exempt from FIFO ordering — it is a fault).
    pub dup_prob: f64,
    /// Probability that a message's latency takes a heavy-tailed spike.
    pub spike_prob: f64,
    /// Pareto scale of a spike: the minimum extra delay, in ns.
    pub spike_min_ns: u64,
    /// Pareto shape of a spike; smaller means heavier tail.
    pub spike_alpha: f64,
    /// Hard cap on a single spike's extra delay, in ns.
    pub spike_cap_ns: u64,
    /// Per-rank NIC brownout windows.
    pub brownouts: Vec<Brownout>,
    /// Scheduled permanent crashes.
    pub crashes: Vec<Crash>,
    /// Network partition windows (rank-range cuts).
    pub partitions: Vec<Partition>,
    /// Node-level crash domains (groups of ranks dying together).
    pub crash_domains: Vec<CrashDomain>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            drop_prob: 0.0,
            dup_prob: 0.0,
            spike_prob: 0.0,
            spike_min_ns: 50_000,
            spike_alpha: 1.5,
            spike_cap_ns: 5_000_000,
            brownouts: Vec::new(),
            crashes: Vec::new(),
            partitions: Vec::new(),
            crash_domains: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// True if this plan can inject anything at all. When false the
    /// engine takes the exact fault-free fast path (no RNG draws).
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.spike_prob > 0.0
            || !self.brownouts.is_empty()
            || !self.crashes.is_empty()
            || !self.partitions.is_empty()
            || !self.crash_domains.is_empty()
    }

    /// A convenience plan with uniform message-level fault rates and no
    /// scheduled windows or crashes.
    pub fn message_faults(drop_prob: f64, dup_prob: f64, spike_prob: f64) -> Self {
        Self {
            drop_prob,
            dup_prob,
            spike_prob,
            ..Self::default()
        }
    }

    /// Validate the plan against a rank count. Rejects probabilities
    /// outside `[0, 1)`, windows and crashes naming unknown ranks,
    /// degenerate windows, and a crash
    /// of rank 0 (rank 0 owns the root of the search and the
    /// termination probe; its death is outside the recovery model).
    pub fn validate(&self, n_ranks: u32) -> Result<(), String> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
            ("spike_prob", self.spike_prob),
        ] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1), got {p}"));
            }
        }
        if self.spike_prob > 0.0 {
            if self.spike_alpha <= 0.0 {
                return Err(format!(
                    "spike_alpha must be positive, got {}",
                    self.spike_alpha
                ));
            }
            if self.spike_min_ns == 0 {
                return Err("spike_min_ns must be nonzero when spikes are enabled".into());
            }
        }
        for b in &self.brownouts {
            if b.rank >= n_ranks {
                return Err(format!("brownout names unknown rank {}", b.rank));
            }
            if b.until_ns <= b.from_ns {
                return Err(format!("brownout window on rank {} is empty", b.rank));
            }
        }
        for c in &self.crashes {
            if c.rank >= n_ranks {
                return Err(format!("crash names unknown rank {}", c.rank));
            }
            if c.rank == 0 {
                return Err("rank 0 cannot crash: it owns the root and the probe".into());
            }
        }
        for p in &self.partitions {
            if p.boundary == 0 || p.boundary >= n_ranks {
                return Err(format!(
                    "partition boundary {} leaves one side empty (need 1..{n_ranks})",
                    p.boundary
                ));
            }
            if p.until_ns <= p.from_ns {
                return Err(format!(
                    "partition window at boundary {} is empty",
                    p.boundary
                ));
            }
        }
        for d in &self.crash_domains {
            if d.ranks.is_empty() {
                return Err("crash domain lists no ranks".into());
            }
            for &r in &d.ranks {
                if r >= n_ranks {
                    return Err(format!("crash domain names unknown rank {r}"));
                }
                if r == 0 {
                    return Err(
                        "rank 0 cannot crash: it owns the root and the probe (crash domain)".into(),
                    );
                }
            }
        }
        Ok(())
    }

    /// True if `rank`'s NIC is browned out at `now_ns`.
    pub fn in_brownout(&self, rank: Rank, now_ns: u64) -> bool {
        self.brownouts
            .iter()
            .any(|b| b.rank == rank && (b.from_ns..b.until_ns).contains(&now_ns))
    }

    /// True if a partition cut separates `src` from `dst` at `now_ns`.
    pub fn partitioned(&self, src: Rank, dst: Rank, now_ns: u64) -> bool {
        self.partitions.iter().any(|p| {
            (src < p.boundary) != (dst < p.boundary) && (p.from_ns..p.until_ns).contains(&now_ns)
        })
    }

    /// The scheduled crash time of `rank`, if any — the earliest over
    /// individual crashes and any crash domain containing the rank.
    pub fn crash_time(&self, rank: Rank) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.rank == rank)
            .map(|c| c.at_ns)
            .chain(
                self.crash_domains
                    .iter()
                    .filter(|d| d.ranks.contains(&rank))
                    .map(|d| d.at_ns),
            )
            .min()
    }

    /// True if the plan schedules any crash at all, individual or
    /// domain-level (the runner refuses crashes without fault
    /// tolerance, as a dead rank would wedge the token ring).
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty() || !self.crash_domains.is_empty()
    }

    /// Sample a heavy-tailed spike magnitude from a uniform draw in
    /// `[0, 1)`: a Pareto variate `min · (1-u)^(-1/alpha)`, capped.
    pub fn spike_ns(&self, u: f64) -> u64 {
        let v = self.spike_min_ns as f64 * (1.0 - u).powf(-1.0 / self.spike_alpha);
        (v as u64).min(self.spike_cap_ns)
    }
}

/// Counters for every fault the engine actually injected. Retrieved
/// via `Simulation::fault_stats` after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by `drop_prob`.
    pub dropped: u64,
    /// Extra deliveries created by `dup_prob`.
    pub duplicated: u64,
    /// Messages whose latency took a heavy-tailed spike.
    pub spiked: u64,
    /// Messages lost to a NIC brownout window.
    pub brownout_drops: u64,
    /// Messages lost crossing a partition cut.
    pub partition_drops: u64,
    /// Deliveries suppressed because the destination had crashed.
    pub crash_lost_deliveries: u64,
    /// Timers suppressed because their rank had crashed.
    pub crash_lost_timers: u64,
}

impl FaultStats {
    /// Add another counter set into this one (used to total the
    /// per-shard counters of a parallel run).
    pub fn absorb(&mut self, o: &FaultStats) {
        self.dropped += o.dropped;
        self.duplicated += o.duplicated;
        self.spiked += o.spiked;
        self.brownout_drops += o.brownout_drops;
        self.partition_drops += o.partition_drops;
        self.crash_lost_deliveries += o.crash_lost_deliveries;
        self.crash_lost_timers += o.crash_lost_timers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn message_faults_plan_is_active() {
        assert!(FaultPlan::message_faults(0.05, 0.0, 0.0).is_active());
        assert!(FaultPlan::message_faults(0.0, 0.01, 0.0).is_active());
        assert!(FaultPlan::message_faults(0.0, 0.0, 0.1).is_active());
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        assert!(FaultPlan::message_faults(1.0, 0.0, 0.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::message_faults(-0.1, 0.0, 0.0)
            .validate(4)
            .is_err());
    }

    #[test]
    fn validate_rejects_rank_zero_crash() {
        let plan = FaultPlan {
            crashes: vec![Crash { rank: 0, at_ns: 5 }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
    }

    #[test]
    fn validate_rejects_unknown_ranks_and_empty_windows() {
        let plan = FaultPlan {
            crashes: vec![Crash { rank: 9, at_ns: 5 }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
        let plan = FaultPlan {
            brownouts: vec![Brownout {
                rank: 1,
                from_ns: 10,
                until_ns: 10,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
    }

    #[test]
    fn spike_is_bounded_below_and_capped() {
        let plan = FaultPlan {
            spike_prob: 0.5,
            spike_min_ns: 1_000,
            spike_alpha: 1.2,
            spike_cap_ns: 100_000,
            ..FaultPlan::default()
        };
        assert_eq!(plan.spike_ns(0.0), 1_000);
        assert!(plan.spike_ns(0.5) > 1_000);
        assert_eq!(plan.spike_ns(0.999_999_999), 100_000);
    }

    #[test]
    fn partition_cuts_both_directions_inside_window_only() {
        let plan = FaultPlan {
            partitions: vec![Partition {
                boundary: 4,
                from_ns: 100,
                until_ns: 200,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.is_active());
        assert!(plan.partitioned(1, 5, 150));
        assert!(plan.partitioned(5, 1, 150));
        assert!(!plan.partitioned(1, 3, 150)); // same side, low
        assert!(!plan.partitioned(5, 7, 150)); // same side, high
        assert!(!plan.partitioned(1, 5, 99)); // before window
        assert!(!plan.partitioned(1, 5, 200)); // half-open end
    }

    #[test]
    fn partition_validation_rejects_empty_sides_and_windows() {
        let side = |boundary| FaultPlan {
            partitions: vec![Partition {
                boundary,
                from_ns: 0,
                until_ns: 10,
            }],
            ..FaultPlan::default()
        };
        assert!(side(0).validate(8).is_err());
        assert!(side(8).validate(8).is_err());
        assert!(side(4).validate(8).is_ok());
        let empty = FaultPlan {
            partitions: vec![Partition {
                boundary: 4,
                from_ns: 10,
                until_ns: 10,
            }],
            ..FaultPlan::default()
        };
        assert!(empty.validate(8).is_err());
    }

    #[test]
    fn crash_domain_kills_all_members_together() {
        let plan = FaultPlan {
            crash_domains: vec![CrashDomain {
                ranks: vec![8, 9, 10, 11],
                at_ns: 500,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.is_active());
        assert!(plan.has_crashes());
        for r in 8..12 {
            assert_eq!(plan.crash_time(r), Some(500));
        }
        assert_eq!(plan.crash_time(7), None);
    }

    #[test]
    fn crash_domain_validation() {
        let with = |ranks: Vec<Rank>| FaultPlan {
            crash_domains: vec![CrashDomain { ranks, at_ns: 5 }],
            ..FaultPlan::default()
        };
        assert!(with(vec![]).validate(8).is_err());
        assert!(with(vec![0, 1]).validate(8).is_err()); // rank 0 protected
        assert!(with(vec![9]).validate(8).is_err()); // unknown rank
        assert!(with(vec![4, 5, 6, 7]).validate(8).is_ok());
    }

    #[test]
    fn crash_time_merges_individual_and_domain_schedules() {
        let plan = FaultPlan {
            crashes: vec![Crash {
                rank: 3,
                at_ns: 900,
            }],
            crash_domains: vec![CrashDomain {
                ranks: vec![3, 4],
                at_ns: 400,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.crash_time(3), Some(400));
        assert_eq!(plan.crash_time(4), Some(400));
    }

    #[test]
    fn crash_time_takes_earliest() {
        let plan = FaultPlan {
            crashes: vec![
                Crash {
                    rank: 2,
                    at_ns: 500,
                },
                Crash {
                    rank: 2,
                    at_ns: 300,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.crash_time(2), Some(300));
        assert_eq!(plan.crash_time(1), None);
    }
}
