//! The window barrier of the parallel driver.
//!
//! The conservative-PDES driver meets one barrier per lookahead
//! window, so barrier latency is a first-order cost once windows get
//! cheap. [`WindowBarrier`] is a flat sense-reversing barrier with an
//! *adaptive* spin budget — it spins roughly as long as recent
//! inter-barrier gaps were short, and falls back to `yield_now`
//! otherwise, so it is fast on dedicated cores yet degrades gracefully
//! when threads oversubscribe the host (e.g. single-core CI
//! containers).
//!
//! The barrier never reads simulated state: it only affects *when*
//! host threads proceed, never *what* they compute, so the event
//! schedule is bit-identical whatever spin budget is in effect.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// Spin budget bounds. The budget walks between these in response to
/// whether recent waits resolved within the spin phase (cheap) or had
/// to yield (oversubscribed host).
const SPIN_MIN: u32 = 32;
const SPIN_MAX: u32 = 4096;

/// Flat sense-reversing barrier with an adaptive spin budget. Each
/// participant keeps a `bool` sense token across calls (start at
/// `false`).
pub(crate) struct WindowBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    /// Current spin budget; adapted by waiters with relaxed stores —
    /// an occasionally-stale budget only mis-tunes the waiting, never
    /// the work.
    spins: AtomicU32,
}

impl WindowBarrier {
    /// Barrier for `n` participants.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            spins: AtomicU32::new(128),
        }
    }

    /// Block until all `n` participants have called `wait`.
    pub(crate) fn wait(&self, local_sense: &mut bool) {
        *local_sense = !*local_sense;
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.n {
            self.count.store(0, Ordering::SeqCst);
            self.sense.store(*local_sense, Ordering::SeqCst);
            return;
        }
        let budget = self.spins.load(Ordering::Relaxed);
        let mut spins = 0u32;
        let mut yielded = false;
        while self.sense.load(Ordering::SeqCst) != *local_sense {
            spins += 1;
            if spins > budget {
                yielded = true;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Adapt: releases that resolved while spinning earn a bigger
        // budget (windows are short, keep cores hot); releases that
        // had to yield shrink it (oversubscribed, stop burning cycles).
        let next = if yielded {
            (budget / 2).max(SPIN_MIN)
        } else {
            (budget.saturating_mul(2)).min(SPIN_MAX)
        };
        if next != budget {
            self.spins.store(next, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn exercise(n: usize, rounds: u64) {
        let barrier = WindowBarrier::new(n);
        let hits = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..n {
                let barrier = &barrier;
                let hits = &hits;
                scope.spawn(move || {
                    let mut sense = false;
                    for round in 0..rounds {
                        hits.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(&mut sense);
                        // After round k's barrier every thread has
                        // contributed its increment for round k.
                        let seen = hits.load(Ordering::SeqCst);
                        assert!(seen >= (round + 1) * n as u64);
                        assert!(seen < (round + 2) * n as u64);
                        barrier.wait(&mut sense);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), rounds * n as u64);
    }

    #[test]
    fn barrier_synchronizes_few_threads() {
        exercise(3, 200);
    }

    #[test]
    fn barrier_synchronizes_many_threads() {
        exercise(9, 200);
    }
}
