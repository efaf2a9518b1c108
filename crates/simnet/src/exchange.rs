//! The window plan: the verdict every worker derives from the published
//! plan inputs, the per-shard slot those inputs are published in, and
//! the digest of the window ends.
//!
//! Every channel between worker threads — these slots and the run
//! loop's exchange cells — is double-buffered by window parity:
//! iteration `k` of the run loop reads what window `k - 1` wrote into
//! parity `k & 1` and writes into the other, and the one barrier per
//! window fences each parity's reuse.

use std::sync::atomic::AtomicU64;

/// What the (identical, per-shard) window decision concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Stop the run; `limit` marks a time/event limit rather than a
    /// drained queue.
    Stop { limit: bool },
    /// Execute one more window ending (exclusively) at `end`.
    Window { end: u64 },
}

/// The shared stop/continue decision. Every shard computes this from
/// identically published values, so all shards always agree — the
/// driver needs no leader.
///
/// A window ends at `min_next + lookahead`: no event before
/// `min_next` exists and a cross-shard send lands at least `lookahead`
/// past its sender's clock, so nothing sent inside the window can land
/// inside it. `min_next` is a pure function of schedule state, so the
/// window plan is identical for every thread count.
pub(crate) fn decide(
    min_next: Option<u64>,
    events: u64,
    max_time_ns: Option<u64>,
    max_events: Option<u64>,
    lookahead_ns: u64,
) -> Verdict {
    match min_next {
        _ if max_events.is_some_and(|me| events >= me) => Verdict::Stop { limit: true },
        None => Verdict::Stop { limit: false },
        Some(t) if max_time_ns.is_some_and(|mt| t > mt) => Verdict::Stop { limit: true },
        Some(t) => Verdict::Window {
            end: t.saturating_add(lookahead_ns),
        },
    }
}

/// FNV-1a basis/prime for the window-plan digest.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Mix one value into an FNV-1a running hash.
#[inline]
pub(crate) fn fnv1a(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One shard's published window-plan inputs, one parity copy.
pub(crate) struct GroupSlot {
    /// Earliest event the shard holds, queued or deposited for a peer
    /// (`u64::MAX` = none).
    pub(crate) min_next: AtomicU64,
    /// Cumulative events processed by the shard.
    pub(crate) events: AtomicU64,
}

impl GroupSlot {
    pub(crate) fn new() -> Self {
        Self {
            min_next: AtomicU64::new(u64::MAX),
            events: AtomicU64::new(0),
        }
    }
}
