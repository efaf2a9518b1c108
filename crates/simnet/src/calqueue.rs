//! Calendar-queue event scheduler with an arena-allocated payload
//! store.
//!
//! The engine's hot loop is `push`/`pop` on a per-shard pending-event
//! set ordered by the canonical key `(time, dst, src, sseq)`. A binary
//! heap gives `O(log n)` sift work per operation and scatters event
//! payloads across the heap array on every sift; at the paper's scales
//! (queues of thousands of in-flight messages) the sift traffic
//! dominates engine wall-clock. This module replaces it with a
//! classic calendar queue (Brown 1988): a ring of `nbuckets` time
//! buckets of `width` nanoseconds each, where an event at time `t`
//! lives in bucket `(t / width) % nbuckets` and the dequeue cursor
//! walks the ring one bucket-slot at a time.
//!
//! **Determinism.** The queue is an *exact* priority queue, not an
//! approximate one: every `pop` returns the minimum pending entry
//! under the full canonical key, with ties between equal times broken
//! by `(dst, src, sseq)` exactly as the heap broke them (keys are
//! unique, so any exact priority queue yields the identical pop
//! sequence). Buckets keep their entries sorted, so the schedule is a
//! pure function of the push/pop history — bucket count and width are
//! invisible. That is what lets the engine swap the heap for the
//! calendar without perturbing a single simulated event.
//!
//! **Arena.** Bucket entries are small `Copy` records carrying the key
//! plus a slot index into a payload arena; payloads (which may own
//! heap data, e.g. steal-reply chunk lists) are written once at push
//! and moved out once at pop. Freed slots go on a freelist, so
//! steady-state operation allocates nothing: bucket vectors, arena and
//! freelist all reach a high-water capacity and stay there.
//!
//! Complexity: `O(1)` amortized push/pop while the bucket ring is
//! reasonably matched to the event population (the queue resizes
//! itself toward one entry per bucket), with a direct-search fallback
//! bounded by the bucket count when the population is pathological
//! (e.g. one far-future event).

/// Canonical event key: `(time, dst, src, sseq)`, compared
/// lexicographically. `sseq` is unique per source rank, so keys never
/// collide and the pop order is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EvKey {
    /// Event time in nanoseconds.
    pub t: u64,
    /// Destination rank.
    pub dst: u32,
    /// Source rank.
    pub src: u32,
    /// Per-source sequence number.
    pub sseq: u64,
}

/// One bucket entry: the key plus the arena slot of the payload.
#[derive(Clone, Copy)]
struct Entry {
    t: u64,
    sseq: u64,
    dst: u32,
    src: u32,
    idx: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> EvKey {
        EvKey {
            t: self.t,
            dst: self.dst,
            src: self.src,
            sseq: self.sseq,
        }
    }
}

/// One ring slot: the bucket's minimum pending time rides in the same
/// cache line as its entry vector's header, so the dequeue scan and a
/// push probe one line per bucket instead of chasing `Vec` headers and
/// a separate tail array.
struct Bucket {
    /// Minimum pending time in this bucket; `u64::MAX` when empty.
    tail_t: u64,
    /// Entries sorted *descending* by key, so the bucket minimum is
    /// `last()` and removal is a cheap `Vec::pop`.
    v: Vec<Entry>,
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            tail_t: u64::MAX,
            v: Vec::new(),
        }
    }
}

/// Exact-order calendar queue over payloads `P` (see module docs).
pub(crate) struct CalendarQueue<P> {
    /// Bucket ring.
    buckets: Vec<Bucket>,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: u64,
    /// `log2` of the bucket width in nanoseconds.
    wshift: u32,
    /// Absolute slot cursor (`t >> wshift`, *not* wrapped). Invariant:
    /// `cursor <= slot(min pending entry)` whenever the queue is
    /// non-empty, so the dequeue scan never has to look backwards.
    cursor: u64,
    /// Bucket known to hold the global minimum as its last element;
    /// `usize::MAX` when unknown. Lets a peek-then-pop pair locate the
    /// minimum once.
    min_hint: usize,
    /// Key of that minimum when `min_hint` is valid; lets a push keep
    /// the hint current with a register compare instead of re-reading
    /// the hinted bucket.
    min_key: EvKey,
    len: usize,
    /// Payload arena; `None` marks a free slot.
    slots: Vec<Option<P>>,
    /// Freelist of arena slot indices.
    free: Vec<u32>,
}

const MIN_BUCKETS: usize = 16;
/// Initial bucket width (2^10 ns): on the order of the smallest
/// latencies the simulations use, refined at the first resize.
const INIT_WSHIFT: u32 = 10;

impl<P> CalendarQueue<P> {
    pub(crate) fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            wshift: INIT_WSHIFT,
            cursor: 0,
            min_hint: usize::MAX,
            min_key: EvKey {
                t: 0,
                dst: 0,
                src: 0,
                sseq: 0,
            },
            len: 0,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, key: EvKey, payload: P) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(payload);
                i
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        let e = Entry {
            t: key.t,
            sseq: key.sseq,
            dst: key.dst,
            src: key.src,
            idx,
        };
        let slot = e.t >> self.wshift;
        let b = (slot & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        // Descending order: count the entries strictly greater first.
        let pos = bucket.v.partition_point(|x| x.key() > e.key());
        bucket.v.insert(pos, e);
        bucket.tail_t = bucket.v.last().expect("just inserted").t;
        self.len += 1;
        // A push can only lower the minimum; repair cursor and hint.
        if self.len == 1 || slot < self.cursor {
            self.cursor = slot;
        }
        if self.len == 1 || (self.min_hint != usize::MAX && e.key() < self.min_key) {
            self.min_hint = b;
            self.min_key = e.key();
        }
        if self.len > 2 * self.buckets.len() {
            self.rehash();
        }
    }

    /// Find the bucket whose last element is the global minimum and
    /// set the cursor to its slot. `None` when empty.
    fn locate_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        if self.min_hint != usize::MAX {
            return Some(self.min_hint);
        }
        let nb = self.buckets.len() as u64;
        for step in 0..nb {
            let abs = self.cursor + step;
            let b = (abs & self.mask) as usize;
            // The bucket minimum belongs to this very slot: since no
            // earlier slot held anything, it is the global min.
            if self.buckets[b].tail_t >> self.wshift == abs {
                self.cursor = abs;
                self.min_hint = b;
                self.min_key = self.buckets[b].v.last().expect("tail tracked").key();
                return Some(b);
            }
        }
        // Sparse population: one full rotation found nothing in its
        // own slot. Fall back to a direct minimum over the tail times
        // (times are unique per bucket: equal times share a slot).
        let (b, _) = self
            .buckets
            .iter()
            .enumerate()
            .min_by_key(|(_, bk)| bk.tail_t)
            .expect("non-empty ring");
        let last = self.buckets[b].v.last().expect("len > 0 implies a tail");
        self.cursor = last.t >> self.wshift;
        self.min_hint = b;
        self.min_key = last.key();
        Some(b)
    }

    /// Time of the minimum pending entry, without removing it.
    #[inline]
    pub(crate) fn peek_time_ns(&mut self) -> Option<u64> {
        self.locate_min()?;
        Some(self.min_key.t)
    }

    /// Remove and return the minimum pending entry.
    pub(crate) fn pop(&mut self) -> Option<(EvKey, P)> {
        let b = self.locate_min()?;
        let bucket = &mut self.buckets[b];
        let e = bucket.v.pop().expect("located");
        bucket.tail_t = bucket.v.last().map_or(u64::MAX, |x| x.t);
        self.len -= 1;
        self.cursor = e.t >> self.wshift;
        self.min_hint = usize::MAX;
        let payload = self.slots[e.idx as usize].take().expect("live slot");
        self.free.push(e.idx);
        if self.len * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.rehash();
        }
        Some((e.key(), payload))
    }

    /// Rebuild the bucket ring sized to the current population, with
    /// the bucket width re-estimated from the pending time span. Pop
    /// order is unaffected (the queue is exact); only constant factors
    /// change.
    fn rehash(&mut self) {
        let mut all: Vec<Entry> = Vec::with_capacity(self.len);
        for b in self.buckets.iter_mut() {
            all.append(&mut b.v);
            b.tail_t = u64::MAX;
        }
        // Descending global sort; distributing in this order leaves
        // every bucket sorted descending with plain pushes.
        all.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        let nbuckets = self.len.next_power_of_two().max(MIN_BUCKETS);
        // resize_with truncates on shrink and pads with fresh buckets
        // on growth.
        self.buckets.resize_with(nbuckets, Bucket::new);
        self.mask = (nbuckets - 1) as u64;
        self.min_hint = usize::MAX;
        if let (Some(newest), Some(oldest)) = (all.first(), all.last()) {
            let span = newest.t - oldest.t;
            let target = (span / all.len() as u64).max(1);
            // Power-of-two width nearest the mean inter-event gap,
            // clamped so the cursor walk stays sane.
            self.wshift = (63 - target.leading_zeros().min(63)).clamp(1, 40);
            self.cursor = oldest.t >> self.wshift;
            self.min_hint = (self.cursor & self.mask) as usize;
            self.min_key = oldest.key();
        }
        for e in all {
            let bucket = &mut self.buckets[((e.t >> self.wshift) & self.mask) as usize];
            bucket.v.push(e);
            // `all` is globally descending, so the last write per
            // bucket is its minimum.
            bucket.tail_t = e.t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, dst: u32, src: u32, sseq: u64) -> EvKey {
        EvKey { t, dst, src, sseq }
    }

    #[test]
    fn pops_in_full_key_order() {
        let mut q = CalendarQueue::new();
        let keys = [
            key(500, 1, 0, 0),
            key(100, 0, 0, 1),
            key(100, 0, 0, 0),
            key(100, 1, 0, 2),
            key(99, 7, 3, 9),
            key(1 << 30, 2, 2, 2),
        ];
        for (i, k) in keys.iter().enumerate() {
            q.push(*k, i);
        }
        let mut sorted = keys.to_vec();
        sorted.sort();
        let mut popped = Vec::new();
        while let Some((k, _)) = q.pop() {
            popped.push(k);
        }
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_push_pop_matches_a_reference_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = CalendarQueue::new();
        let mut h: BinaryHeap<Reverse<EvKey>> = BinaryHeap::new();
        // Deterministic pseudo-random workload with time drifting
        // forward (as in the engine: pushes never precede the clock).
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut now = 0u64;
        let mut sseq = 0u64;
        for step in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let push = h.len() < 4 || (x % 100) < 55;
            if push {
                let k = key(
                    now + x % 5_000,
                    (x >> 8) as u32 % 64,
                    (x >> 16) as u32 % 64,
                    sseq,
                );
                sseq += 1;
                q.push(k, step);
                h.push(Reverse(k));
            } else {
                assert_eq!(q.peek_time_ns(), h.peek().map(|r| r.0.t));
                let (a, _) = q.pop().expect("non-empty");
                let b = h.pop().expect("non-empty").0;
                assert_eq!(a, b, "divergence at step {step}");
                now = a.t;
            }
        }
        while let Some(Reverse(b)) = h.pop() {
            assert_eq!(q.pop().expect("non-empty").0, b);
        }
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn payloads_ride_with_their_keys() {
        let mut q = CalendarQueue::new();
        for i in 0..100u64 {
            q.push(key(1_000 - i, 0, 0, i), format!("p{i}"));
        }
        for i in (0..100u64).rev() {
            let (k, p) = q.pop().expect("non-empty");
            assert_eq!(k.sseq, i);
            assert_eq!(p, format!("p{i}"));
        }
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut q = CalendarQueue::new();
        q.push(key(5, 0, 0, 0), 0u32);
        assert_eq!(q.pop().map(|(k, _)| k.t), Some(5));
        // Next event many rotations ahead of the cursor.
        q.push(key(1 << 40, 0, 0, 1), 1u32);
        assert_eq!(q.peek_time_ns(), Some(1 << 40));
        assert_eq!(q.pop().map(|(k, _)| k.t), Some(1 << 40));
        assert!(q.pop().is_none());
    }

    #[test]
    fn steady_state_reuses_arena_slots() {
        let mut q = CalendarQueue::new();
        for i in 0..1_000u64 {
            q.push(key(i * 10, 0, 0, i), [i; 4]);
            if i >= 8 {
                q.pop().expect("non-empty");
            }
        }
        // Population never exceeded 9 concurrent events, so the arena
        // must not have grown past a small high-water mark.
        assert!(q.slots.len() <= 16, "arena grew to {}", q.slots.len());
    }
}
