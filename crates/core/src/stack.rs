//! The chunked work stack (UTS `StealStack`).
//!
//! Work items (tree nodes) are managed in fixed-size *chunks* (paper
//! §II-A, default 20 nodes): memory is allocated per chunk rather than
//! per node, and a chunk is also the unit of stealing. The chunk
//! currently being filled or drained by the owner — the newest one — is
//! *private*: "if there is only one incomplete chunk in the stack of a
//! process, no work can be stolen, as the first chunk is always
//! considered private".
//!
//! The owner works LIFO (depth-first) from the newest chunk; thieves
//! take the **oldest** chunks, which hold nodes closest to the root and
//! therefore, in expectation, the largest subtrees — the classic
//! steal-from-the-bottom discipline.

use dws_uts::Node;
use std::collections::VecDeque;

/// One stealable unit of work.
pub type Chunk = Vec<Node>;

/// Upper bound on recycled chunks kept per stack. Bounds the pool's
/// footprint at `POOL_CAP * chunk_size * size_of::<Node>()` while still
/// absorbing the push/pop churn of a depth-first traversal, whose live
/// chunk count oscillates far more slowly than its node count.
const POOL_CAP: usize = 32;

/// A chunked LIFO work stack with steal-from-the-bottom semantics.
#[derive(Debug, Clone)]
pub struct ChunkedStack {
    /// Chunks, oldest at the front. The back chunk is the owner's
    /// private working chunk.
    chunks: VecDeque<Chunk>,
    chunk_size: usize,
    /// Total nodes across all chunks (kept incrementally).
    len: usize,
    /// Recycled empty chunks, reused by `push` so steady-state traversal
    /// does not allocate. Invisible to `check()` and all accounting.
    pool: Vec<Chunk>,
    /// Recycled steal-reply carrier vectors: `receive_chunks` banks the
    /// emptied carrier, `steal_chunks` reuses one. Ranks share a process
    /// in simulation, so carriers circulate instead of being reallocated
    /// per steal.
    carrier_pool: Vec<Vec<Chunk>>,
}

impl ChunkedStack {
    /// Create an empty stack with the given chunk size.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            chunks: VecDeque::new(),
            chunk_size,
            len: 0,
            pool: Vec::new(),
            carrier_pool: Vec::new(),
        }
    }

    /// Return an emptied chunk to the pool (or drop it if full).
    #[inline]
    fn recycle(&mut self, c: Chunk) {
        debug_assert!(c.is_empty());
        if self.pool.len() < POOL_CAP {
            self.pool.push(c);
        }
    }

    /// The configured chunk size.
    #[inline]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Total nodes in the stack.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no work is available.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Push one node (owner side).
    pub fn push(&mut self, node: Node) {
        match self.chunks.back_mut() {
            Some(back) if back.len() < self.chunk_size => back.push(node),
            _ => {
                let mut c = self
                    .pool
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(self.chunk_size));
                c.push(node);
                self.chunks.push_back(c);
            }
        }
        self.len += 1;
    }

    /// Pop the most recently pushed node (owner side, depth-first).
    pub fn pop(&mut self) -> Option<Node> {
        loop {
            let back = self.chunks.back_mut()?;
            if let Some(node) = back.pop() {
                self.len -= 1;
                if back.is_empty() {
                    let c = self.chunks.pop_back().expect("back chunk exists");
                    self.recycle(c);
                }
                return Some(node);
            }
            // Empty working chunk left behind by a previous steal or
            // drain: recycle and continue with the next newest.
            let c = self.chunks.pop_back().expect("back chunk exists");
            self.recycle(c);
        }
    }

    /// Number of chunks a thief may take right now: every chunk except
    /// the newest (private) one.
    #[inline]
    pub fn stealable_chunks(&self) -> usize {
        self.chunks.len().saturating_sub(1)
    }

    /// Steal up to `want` chunks from the bottom (oldest end). Returns
    /// the chunks actually taken; empty if nothing is stealable.
    pub fn steal_chunks(&mut self, want: usize) -> Vec<Chunk> {
        let take = want.min(self.stealable_chunks());
        let mut out = self.carrier_pool.pop().unwrap_or_default();
        out.reserve(take);
        for _ in 0..take {
            let c = self
                .chunks
                .pop_front()
                .expect("stealable_chunks bounds the loop");
            self.len -= c.len();
            out.push(c);
        }
        out
    }

    /// Receive stolen chunks (thief side): they become the oldest
    /// entries of this stack, preserving their root-proximity ordering.
    pub fn receive_chunks(&mut self, mut chunks: Vec<Chunk>) {
        for c in chunks.drain(..).rev() {
            assert!(
                c.len() <= self.chunk_size,
                "received chunk of {} nodes exceeds chunk size {}",
                c.len(),
                self.chunk_size
            );
            if c.is_empty() {
                self.recycle(c);
                continue;
            }
            self.len += c.len();
            self.chunks.push_front(c);
        }
        if self.carrier_pool.len() < POOL_CAP {
            self.carrier_pool.push(chunks);
        }
    }

    /// Iterate over every node currently in the stack, oldest chunk
    /// first (lost-work accounting after a faulty run).
    pub fn iter_nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Number of recycled chunks currently pooled (test visibility).
    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Internal consistency check (used by tests and debug assertions):
    /// cached length matches contents; no empty stored chunks except
    /// possibly the working chunk; no oversized chunks.
    pub fn check(&self) -> Result<(), String> {
        let actual: usize = self.chunks.iter().map(|c| c.len()).sum();
        if actual != self.len {
            return Err(format!("cached len {} != actual {}", self.len, actual));
        }
        for (i, c) in self.chunks.iter().enumerate() {
            if c.len() > self.chunk_size {
                return Err(format!("chunk {i} oversize: {}", c.len()));
            }
            if c.is_empty() && i + 1 != self.chunks.len() {
                return Err(format!("empty non-working chunk at {i}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_uts::RngState;

    fn node(tag: u32) -> Node {
        Node {
            state: RngState::from_seed(tag as i32),
            height: tag,
        }
    }

    #[test]
    fn push_pop_is_lifo() {
        let mut s = ChunkedStack::new(3);
        for i in 0..7 {
            s.push(node(i));
        }
        assert_eq!(s.len(), 7);
        for i in (0..7).rev() {
            assert_eq!(s.pop().expect("non-empty").height, i);
        }
        assert!(s.pop().is_none());
        assert!(s.is_empty());
        s.check().expect("consistent");
    }

    #[test]
    fn private_chunk_is_never_stealable() {
        let mut s = ChunkedStack::new(20);
        // 19 nodes: one incomplete chunk -> nothing stealable.
        for i in 0..19 {
            s.push(node(i));
        }
        assert_eq!(s.stealable_chunks(), 0);
        assert!(s.steal_chunks(1).is_empty());
        // 21 nodes: one full + one partial; the full (oldest) is fair game.
        s.push(node(19));
        s.push(node(20));
        assert_eq!(s.stealable_chunks(), 1);
    }

    #[test]
    fn exactly_full_chunk_is_private() {
        let mut s = ChunkedStack::new(20);
        for i in 0..20 {
            s.push(node(i));
        }
        // A single chunk — even complete — is the working chunk.
        assert_eq!(s.stealable_chunks(), 0);
    }

    #[test]
    fn steal_takes_oldest_chunks() {
        let mut s = ChunkedStack::new(2);
        for i in 0..6 {
            s.push(node(i));
        }
        // Chunks: [0,1] [2,3] [4,5]; stealable = 2 oldest.
        let got = s.steal_chunks(1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].iter().map(|n| n.height).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(s.len(), 4);
        // Owner still pops newest first.
        assert_eq!(s.pop().expect("has work").height, 5);
        s.check().expect("consistent");
    }

    #[test]
    fn steal_want_is_clamped() {
        let mut s = ChunkedStack::new(2);
        for i in 0..6 {
            s.push(node(i));
        }
        let got = s.steal_chunks(99);
        assert_eq!(got.len(), 2, "only non-private chunks leave");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn receive_preserves_order_and_count() {
        let mut victim = ChunkedStack::new(2);
        for i in 0..6 {
            victim.push(node(i));
        }
        let loot = victim.steal_chunks(2);
        let mut thief = ChunkedStack::new(2);
        thief.push(node(100));
        thief.receive_chunks(loot);
        assert_eq!(thief.len(), 5);
        thief.check().expect("consistent");
        // Thief pops its own newest work first...
        assert_eq!(thief.pop().expect("work").height, 100);
        // ...then drains received chunks newest-chunk-first.
        assert_eq!(thief.pop().expect("work").height, 3);
        // Received chunks are stealable from the thief in turn
        // ("stealing half... make it possible for a thief to be stolen
        // himself as soon as it retrieves work").
        let mut thief2 = ChunkedStack::new(2);
        let mut victim2 = ChunkedStack::new(2);
        for i in 0..6 {
            victim2.push(node(i));
        }
        thief2.receive_chunks(victim2.steal_chunks(2));
        assert_eq!(thief2.stealable_chunks(), 1);
    }

    #[test]
    fn receive_skips_empty_chunks() {
        let mut s = ChunkedStack::new(4);
        s.receive_chunks(vec![vec![], vec![node(1)]]);
        assert_eq!(s.len(), 1);
        s.check().expect("consistent");
    }

    #[test]
    #[should_panic(expected = "exceeds chunk size")]
    fn receive_rejects_oversized_chunk() {
        let mut s = ChunkedStack::new(1);
        s.receive_chunks(vec![vec![node(1), node(2)]]);
    }

    #[test]
    fn interleaved_push_pop_steal_stays_consistent() {
        let mut s = ChunkedStack::new(3);
        let mut expected_len = 0usize;
        for round in 0..50u32 {
            for i in 0..(round % 7) {
                s.push(node(round * 100 + i));
                expected_len += 1;
            }
            if round % 3 == 0 && s.pop().is_some() {
                expected_len -= 1;
            }
            if round % 5 == 0 {
                let stolen = s.steal_chunks(1);
                expected_len -= stolen.iter().map(|c| c.len()).sum::<usize>();
            }
            assert_eq!(s.len(), expected_len);
            s.check().expect("consistent");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_rejected() {
        ChunkedStack::new(0);
    }

    #[test]
    fn drained_chunks_are_recycled_and_pool_is_bounded() {
        let mut s = ChunkedStack::new(2);
        // Fill then fully drain: every chunk should land in the pool.
        for i in 0..10 {
            s.push(node(i));
        }
        while s.pop().is_some() {}
        assert_eq!(s.pooled(), 5);
        // Refilling draws from the pool instead of allocating.
        for i in 0..10 {
            s.push(node(i));
        }
        assert_eq!(s.pooled(), 0);
        s.check().expect("consistent");
        // The pool never exceeds its cap no matter how much churn.
        let mut s = ChunkedStack::new(1);
        for i in 0..(POOL_CAP as u32 * 4) {
            s.push(node(i));
        }
        while s.pop().is_some() {}
        assert_eq!(s.pooled(), POOL_CAP);
        // LIFO behavior is unchanged by recycling.
        for i in 0..5 {
            s.push(node(i));
        }
        for i in (0..5).rev() {
            assert_eq!(s.pop().expect("work").height, i);
        }
    }
}
