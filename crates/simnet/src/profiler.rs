//! Engine self-profiling: wall-clock phase timers and allocation
//! counters behind a zero-cost-when-off probe.
//!
//! The simulator's claims are only as good as its own cost model of
//! itself: a victim-selection policy that looks cheap in simulated
//! nanoseconds but doubles host wall time per event is a harness
//! regression waiting to be misread as a scheduling result. The
//! [`PerfProbe`] accounts host wall time to six engine phases —
//! event-loop dispatch, fault evaluation, victim drawing, trace
//! recording, barrier wait and cross-shard exchange — plus events/sec
//! and allocations-per-event, and feeds
//! the `profile` section of the JSON run report and `dws run --profile`.
//!
//! The probe is one of the engine's recorders: it is named by
//! [`Recorders::profiler`](crate::Recorders::profiler) and each shard's
//! recorder holds the shared `Option<Arc<PerfProbe>>`, so every
//! instrumentation site is a single branch when the probe is absent.
//! The probe only ever *reads* the host clock — it never touches
//! simulated time, timers, message contents, or any RNG stream. The
//! event schedule is therefore bit-identical with the profiler on or
//! off (enforced by property tests in `tests/perflab.rs` and
//! `tests/observability.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The engine phases the probe accounts wall time to.
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
    /// parked at the per-window barrier (and the rare streaming /
    /// abort choreography barriers), i.e. load-imbalance stall, not
    /// useful work.
    Barrier,
    /// Cross-shard event exchange: draining the per-(src, dst) batch
    /// buffers into destination queues and depositing outboxes.
    Exchange,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 6;

impl Phase {
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

#[derive(Debug, Default)]
struct PhaseCell {
    calls: AtomicU64,
    total_ns: AtomicU64,
}

/// Wall-clock phase accumulator, shared between the engine's shards via
/// `Arc`; actors time their own phases through [`crate::Ctx::profiler`].
///
/// Counters are relaxed atomics: the simulation is single-threaded,
/// the atomics only buy `Sync` for the shared handle, and relaxed
/// increments cost the same as plain adds on x86 and close to it on
/// ARM.
#[derive(Debug, Default)]
pub struct PerfProbe {
    phases: [PhaseCell; PHASE_COUNT],
}

impl PerfProbe {
    /// A fresh probe with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account `elapsed` host time to `phase`.
    #[inline]
    pub fn add(&self, phase: Phase, elapsed: std::time::Duration) {
        let cell = &self.phases[phase as usize];
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.total_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// `(name, calls, total_ns)` per phase, in declaration order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64, u64)> {
        [
            Phase::Dispatch,
            Phase::FaultEval,
            Phase::VictimDraw,
            Phase::TraceRecord,
            Phase::Barrier,
            Phase::Exchange,
        ]
        .iter()
        .map(|p| {
            let cell = &self.phases[*p as usize];
            (
                p.name(),
                cell.calls.load(Ordering::Relaxed),
                cell.total_ns.load(Ordering::Relaxed),
            )
        })
        .collect()
    }
}

/// Start timing an instrumented region: `None` (and no clock read)
/// when the probe is off. Pair with [`prof_record`].
#[inline]
pub fn prof_start(probe: &Option<Arc<PerfProbe>>) -> Option<Instant> {
    probe.as_ref().map(|_| Instant::now())
}

/// Finish timing a region started with [`prof_start`]. A `None` start
/// is a no-op, so call sites stay branch-free in source.
#[inline]
pub fn prof_record(probe: &Option<Arc<PerfProbe>>, phase: Phase, t0: Option<Instant>) {
    if let (Some(t0), Some(p)) = (t0, probe.as_ref()) {
        p.add(phase, t0.elapsed());
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
    use std::time::Duration;

    #[test]
    fn probe_accumulates_per_phase() {
        let probe = PerfProbe::new();
        probe.add(Phase::Dispatch, Duration::from_nanos(100));
        probe.add(Phase::Dispatch, Duration::from_nanos(50));
        probe.add(Phase::VictimDraw, Duration::from_nanos(7));
        let snap = probe.snapshot();
        assert_eq!(snap.len(), PHASE_COUNT);
        assert_eq!(snap[0], ("dispatch", 2, 150));
        assert_eq!(snap[1], ("fault_eval", 0, 0));
        assert_eq!(snap[2], ("victim_draw", 1, 7));
        assert_eq!(snap[3], ("trace_record", 0, 0));
    }

    #[test]
    fn prof_helpers_are_inert_without_a_probe() {
        let off: Option<Arc<PerfProbe>> = None;
        assert!(prof_start(&off).is_none());
        prof_record(&off, Phase::Dispatch, None);
        let on = Some(Arc::new(PerfProbe::new()));
        let t0 = prof_start(&on);
        assert!(t0.is_some());
        prof_record(&on, Phase::FaultEval, t0);
        let snap = on.as_ref().unwrap().snapshot();
        assert_eq!(snap[1].1, 1);
    }
}
