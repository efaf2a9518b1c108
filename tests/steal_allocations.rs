//! The steal path allocates nothing in steady state: each rank's work
//! stack is one flat vector, and a thief, whose stack is empty, lends
//! that stack's storage with every request, which the victim fills and
//! the reply brings home (DESIGN §10.2).
//!
//! A binary of its own, so the counting allocator sees this test's
//! allocations alone.

use dws::core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
use dws::simnet::{allocation_count, CountingAlloc};
use dws::uts::presets;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations made by one run of `cfg`, and its successful steals.
fn allocations(cfg: &ExperimentConfig) -> (u64, u64) {
    let before = allocation_count();
    let result = run_experiment(cfg);
    let allocs = allocation_count() - before;
    (allocs, result.stats.total().steals_ok)
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
    let ranks = 32;
    let mut cfg = ExperimentConfig::new(presets::t3sim_l(), ranks)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.collect_trace = false;
    let mut setup = cfg.clone();
    setup.max_events = Some(0);
    let (setup_allocs, _) = allocations(&setup);
    let (run_allocs, steals_ok) = allocations(&cfg);
    let bound = 5 * ranks as u64;
    let extra = run_allocs.saturating_sub(setup_allocs);
    assert!(
        steals_ok > bound,
        "{steals_ok} steals cannot show a bound of {bound} allocations"
    );
    assert!(
        extra < bound,
        "{extra} allocations beyond setup for {steals_ok} steals (bound {bound})"
    );
}
