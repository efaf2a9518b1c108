//! Engine self-profiling: wall-clock phase timers and allocation
//! counters, zero-cost when off.
//!
//! The simulator's claims are only as good as its own cost model of
//! itself: a victim-selection policy that looks cheap in simulated
//! nanoseconds but doubles host wall time per event is a harness
//! regression waiting to be misread as a scheduling result. The
//! profiler accounts host wall time to six engine phases — event-loop
//! dispatch, fault evaluation, victim drawing, trace recording, barrier
//! wait and cross-shard exchange — plus events/sec and
//! allocations-per-event, and feeds the `profile` section of the JSON
//! run report and `dws run --profile`.
//!
//! The profiler is per shard: with
//! [`Recorders::profiler`](crate::Recorders::profiler) on, each shard's
//! recorder keeps its own plain [`PhaseTimes`] and window clocks, which
//! [`Simulation::take_recordings`](crate::Simulation::take_recordings)
//! hands over as one [`ShardProfile`] per shard. Off, every timed
//! region is one branch and reads no clock. It only ever *reads* the
//! host clock — it never touches simulated time, timers, message
//! contents, or any RNG stream. The event schedule is therefore
//! bit-identical with the profiler on or off (enforced by property
//! tests in `tests/perflab.rs` and `tests/observability.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The engine phases the profiler accounts wall time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Actor callback execution (`on_start` / `on_message` /
    /// `on_timer`) — the event-loop dispatch body.
    Dispatch,
    /// Fault-plan evaluation on the send path (RNG draws, window
    /// checks); zero calls on a fault-free run.
    FaultEval,
    /// Victim selection draws in the scheduler (`next_victim`,
    /// including re-draw loops).
    VictimDraw,
    /// Observability recording: span log, activity log, flight ring
    /// and network trace appends. A send's ring and net-trace appends
    /// are one region.
    TraceRecord,
    /// Parallel-driver barrier waits: time a worker thread spends
    /// parked at the per-window barrier, i.e. load-imbalance stall,
    /// not useful work. One call per crossing of a worker.
    Barrier,
    /// Cross-shard event exchange: draining the per-(src, dst) batch
    /// buffers into destination queues and depositing outboxes.
    Exchange,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 6;

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Dispatch,
        Phase::FaultEval,
        Phase::VictimDraw,
        Phase::TraceRecord,
        Phase::Barrier,
        Phase::Exchange,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::FaultEval => "fault_eval",
            Phase::VictimDraw => "victim_draw",
            Phase::TraceRecord => "trace_record",
            Phase::Barrier => "barrier_wait",
            Phase::Exchange => "exchange",
        }
    }
}

/// `(calls, total_ns)` of host time per [`Phase`]: plain counters that
/// one shard's recorder owns, summed across shards after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes([(u64, u64); PHASE_COUNT]);

impl PhaseTimes {
    /// Account `calls` regions totalling `ns` host nanoseconds to
    /// `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, calls: u64, ns: u64) {
        let cell = &mut self.0[phase as usize];
        cell.0 += calls;
        cell.1 += ns;
    }

    /// Book one region of `phase` started at `t0`; `None` (the
    /// profiler is off) books nothing and reads no clock.
    #[inline]
    pub fn stop(&mut self, phase: Phase, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.add(phase, 1, t0.elapsed().as_nanos() as u64);
        }
    }

    /// `(calls, total_ns)` of `phase`.
    pub fn get(&self, phase: Phase) -> (u64, u64) {
        self.0[phase as usize]
    }

    /// Add every phase of `other` into this one.
    pub fn absorb(&mut self, other: &PhaseTimes) {
        for phase in Phase::ALL {
            let (calls, ns) = other.get(phase);
            self.add(phase, calls, ns);
        }
    }

    /// `(name, calls, total_ns)` per phase, in [`Phase::ALL`] order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        Phase::ALL.iter().map(|p| {
            let (calls, ns) = self.get(*p);
            (p.name(), calls, ns)
        })
    }
}

/// What one shard's profiler measured, handed over by
/// [`Simulation::take_recordings`](crate::Simulation::take_recordings)
/// when the run profiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardProfile {
    /// Shard index.
    pub shard: u32,
    /// Number of ranks the shard owns.
    pub ranks: u32,
    /// Events the shard processed.
    pub events: u64,
    /// Lookahead windows the shard executed.
    pub windows: u64,
    /// Host nanoseconds spent starting the shard's actors and running
    /// its windows (ingest, events, deposit).
    pub busy_ns: u64,
    /// Host time per phase. The barrier row is the shard's share of
    /// its worker's barrier waits — the worker's waits split evenly
    /// over its shards, the remainder and the call count on its first
    /// — so the shards' rows sum to every wait exactly.
    pub phases: PhaseTimes,
}

impl ShardProfile {
    /// Host nanoseconds this shard's worker spent parked at window
    /// barriers, booked to this shard (zero at one thread).
    pub fn wait_ns(&self) -> u64 {
        self.phases.get(Phase::Barrier).1
    }
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator.
///
/// Install it in a binary with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`
/// and [`allocation_count`] reports the number of heap allocations
/// made so far; the runner differences it around a profiled run to
/// compute allocations-per-event. In binaries that do not install it
/// the counter stays at zero and the profile reports allocations as
/// unavailable.
pub struct CountingAlloc;

// SAFETY: delegates every operation unchanged to the system allocator;
// the counter increment has no effect on allocation behaviour.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by this process so far; stays 0 unless
/// [`CountingAlloc`] is installed as the global allocator.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_accumulate_and_absorb_per_phase() {
        let mut a = PhaseTimes::default();
        a.add(Phase::Dispatch, 1, 100);
        a.add(Phase::Dispatch, 1, 50);
        a.add(Phase::VictimDraw, 1, 7);
        let mut b = PhaseTimes::default();
        b.add(Phase::Barrier, 1, 9);
        b.add(Phase::Dispatch, 2, 1);
        b.absorb(&a);
        let rows: Vec<_> = b.rows().collect();
        assert_eq!(rows.len(), PHASE_COUNT);
        assert_eq!(rows[0], ("dispatch", 4, 151));
        assert_eq!(rows[1], ("fault_eval", 0, 0));
        assert_eq!(rows[2], ("victim_draw", 1, 7));
        assert_eq!(rows[3], ("trace_record", 0, 0));
        assert_eq!(rows[4], ("barrier_wait", 1, 9));
        assert_eq!(rows[5], ("exchange", 0, 0));
    }
}
