//! The steal path allocates nothing in steady state: each rank's work
//! stack is one flat vector, and a thief, whose stack is empty, lends
//! that stack's storage with every request, which the victim fills and
//! the reply brings home (DESIGN §10.2). Under fault tolerance the
//! victim's tracked copy of each transfer reuses one spare buffer per
//! rank (DESIGN §4.1).
//!
//! A binary of its own, so the counting allocator sees this file's
//! allocations alone; its tests measure one at a time.

use dws::core::{run_experiment, ExperimentConfig, FaultToleranceCfg, StealAmount, VictimPolicy};
use dws::simnet::{allocation_count, CountingAlloc};
use dws::uts::presets;
use std::sync::Mutex;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Held while a test counts, as the counter is process-wide.
static COUNTING: Mutex<()> = Mutex::new(());

/// Allocations made by one run of `cfg`, and its successful steals.
fn allocations(cfg: &ExperimentConfig) -> (u64, u64) {
    let _alone = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let before = allocation_count();
    let result = run_experiment(cfg);
    let allocs = allocation_count() - before;
    (allocs, result.stats.total().steals_ok)
}

const RANKS: u32 = 32;

/// T3SIM-L on 32 ranks, Tofu Half, untraced.
fn t3sim_l_32() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_l(), RANKS)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.collect_trace = false;
    cfg
}

/// Allocations `cfg` makes beyond its setup (the same configuration
/// stopped before its first event), and its successful steals.
fn steady_state_allocations(cfg: &ExperimentConfig) -> (u64, u64) {
    let mut setup = cfg.clone();
    setup.max_events = Some(0);
    let (setup_allocs, _) = allocations(&setup);
    let (run_allocs, steals_ok) = allocations(cfg);
    (run_allocs.saturating_sub(setup_allocs), steals_ok)
}

/// T3SIM-L on 32 ranks, Tofu Half, fault-free and untraced. What the
/// run allocates beyond its setup (the same configuration stopped
/// before its first event) must stay below a few allocations per rank,
/// while the run steals more often than that: steals do not allocate.
/// A rank's one buffer grows by doubling to its high-water mark: 118
/// allocations for the 32 ranks here, whatever the steal count. A
/// second lent buffer kept beside the stack made 202, and the
/// chunk-list stack about 20 a rank.
#[test]
fn steals_allocate_nothing_in_steady_state() {
    let cfg = t3sim_l_32();
    let (extra, steals_ok) = steady_state_allocations(&cfg);
    let bound = 5 * RANKS as u64;
    assert!(
        steals_ok > bound,
        "{steals_ok} steals cannot show a bound of {bound} allocations"
    );
    assert!(
        extra < bound,
        "{extra} allocations beyond setup for {steals_ok} steals (bound {bound})"
    );
}

/// The same run under the acked-transfer protocol. A victim keeps a
/// copy of each transfer until its thief acks it; the copy is taken
/// from one spare buffer per rank and the acked copy goes back to it,
/// so copies grow to each rank's high-water mark instead of costing
/// one allocation per steal. Beyond the stack's growth, a rank's
/// recovery state grows by doubling: the spare buffer, the unacked
/// list (a few transfers in flight at once) and the absorbed set, whose
/// entries are kept for the run, hence a logarithm of the steal count
/// per rank. Sixteen a rank covers that with room; 32 ranks read 358
/// for 693 steals, and a fresh copy per transfer read 1,003.
#[test]
fn fault_tolerant_transfers_allocate_nothing_in_steady_state() {
    let mut cfg = t3sim_l_32();
    cfg.fault_tolerance = Some(FaultToleranceCfg::default());
    let (extra, steals_ok) = steady_state_allocations(&cfg);
    let bound = 16 * RANKS as u64;
    assert!(
        steals_ok > bound,
        "{steals_ok} steals cannot show a bound of {bound} allocations"
    );
    assert!(
        extra < bound,
        "{extra} allocations beyond setup for {steals_ok} steals (bound {bound})"
    );
}
