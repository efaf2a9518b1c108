//! The event queue: events keyed for shard-count-invariant order, and
//! one shard's pending events as a heap of keys over a payload slab.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::Rank;
use crate::time::SimTime;

pub(crate) enum EventKind<M> {
    Deliver {
        bytes: u32,
        /// True once receive-side NIC admission has been charged; the
        /// engine re-enqueues un-admitted deliveries at their admitted
        /// time when the model reports a positive ingress delay.
        admitted: bool,
        msg: M,
    },
    Timer {
        token: u64,
    },
}

/// An event keyed for shard-count-invariant ordering: `(time, dst,
/// src, sseq)`. `sseq` is a per-source-rank counter, so the key is
/// unique and depends only on per-rank histories — never on shard
/// layout or global send interleaving. Outboxes and exchange cells
/// carry whole events; a shard's queue splits them into an
/// [`EventKey`] and a payload slot ([`EventQueue`]).
pub(crate) struct Event<M> {
    pub(crate) time: SimTime,
    pub(crate) dst: Rank,
    pub(crate) src: Rank,
    pub(crate) sseq: u64,
    pub(crate) kind: EventKind<M>,
}

/// A queued event's canonical key plus the slab slot holding its
/// payload: 32 bytes, two to a cache line, whatever the message type.
/// The derived order is `(time, dst, src, sseq)` — the only ordering
/// definition in the engine — and `slot` never decides it, because the
/// key before it is unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: SimTime,
    dst: Rank,
    src: Rank,
    sseq: u64,
    slot: u32,
}

/// One shard's pending events: a binary min-heap of [`EventKey`]s over
/// a payload slab with a free list. The heap sifts keys only, and a
/// popped event's slot is reused by the next push, so steady state
/// allocates nothing. Any exact priority queue over a unique key pops
/// the identical sequence, so this layout cannot move an event.
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Reverse<EventKey>>,
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> EventQueue<M> {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            slab: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: Event<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev.kind);
                slot
            }
            None => {
                self.slab.push(Some(ev.kind));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(EventKey {
            time: ev.time,
            dst: ev.dst,
            src: ev.src,
            sseq: ev.sseq,
            slot,
        }));
    }

    /// Earliest pending event time.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.0.time)
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Event<M>> {
        let Reverse(k) = self.heap.pop()?;
        let kind = self.slab[k.slot as usize]
            .take()
            .expect("queued key without a payload");
        self.free.push(k.slot);
        Some(Event {
            time: k.time,
            dst: k.dst,
            src: k.src,
            sseq: k.sseq,
            kind,
        })
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn event_key_stays_small() {
        // An upper bound, not a pin: the heap sifts these, so a wider
        // key is a conscious choice (DESIGN §10.1).
        assert!(std::mem::size_of::<EventKey>() <= 32);
    }

    #[test]
    fn event_queue_pops_in_key_order_and_recycles_slots() {
        // Pushes interleaved with pops against a sorted-set mirror: each
        // pop is the least queued key, carrying its own payload.
        let mut q: EventQueue<u64> = EventQueue::with_capacity(0);
        let mut mirror = std::collections::BTreeSet::new();
        let mut rng = DetRng::new(11);
        let mut peak = 0;
        let pop_one = |q: &mut EventQueue<u64>, mirror: &mut std::collections::BTreeSet<_>| {
            let ev = q.pop().expect("non-empty");
            let EventKind::Timer { token } = ev.kind else {
                panic!("only timers were queued");
            };
            assert_eq!(token, ev.sseq, "payload follows its key");
            let key = (ev.time.ns(), ev.dst, ev.src, ev.sseq);
            assert_eq!(mirror.pop_first(), Some(key), "pop is the least queued key");
        };
        for sseq in 0..4_000u64 {
            let (time, dst) = (rng.next_below(500), rng.next_below(8) as Rank);
            mirror.insert((time, dst, 3, sseq));
            q.push(Event {
                time: SimTime(time),
                dst,
                src: 3,
                sseq,
                kind: EventKind::Timer { token: sseq },
            });
            peak = peak.max(q.len());
            if rng.next_below(3) == 0 {
                pop_one(&mut q, &mut mirror);
            }
        }
        while q.len() > 0 {
            pop_one(&mut q, &mut mirror);
        }
        assert!(mirror.is_empty() && q.pop().is_none());
        assert_eq!(q.slab.len(), peak, "slots are reused, never leaked");
    }
}
