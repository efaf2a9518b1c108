//! The chunked work stack (UTS `StealStack`).
//!
//! Work items (tree nodes) are managed in fixed-size *chunks* (paper
//! §II-A, default 20 nodes), and a chunk is the unit of stealing. The
//! chunk currently being filled or drained by the owner — the newest
//! one — is *private*: "if there is only one incomplete chunk in the
//! stack of a process, no work can be stolen, as the first chunk is
//! always considered private".
//!
//! The owner works LIFO (depth-first) from the newest chunk; thieves
//! take the **oldest** chunks, which hold nodes closest to the root and
//! therefore, in expectation, the largest subtrees — the classic
//! steal-from-the-bottom discipline.
//!
//! The chunks are stored flat, in one vector. Every chunk but the newest
//! is full: a push opens a chunk only when the newest is full, an
//! emptied newest chunk is gone at once, and thieves take only whole
//! non-newest chunks. So chunk `i` is always `nodes[base + i ·
//! chunk_size ..]`, and no chunk list needs to be kept.

use dws_uts::Node;

/// A chunked LIFO work stack with steal-from-the-bottom semantics.
#[derive(Debug, Clone)]
pub struct ChunkedStack {
    /// The live nodes are `nodes[base..]`, oldest first; the prefix
    /// before `base` was stolen and is dead.
    nodes: Vec<Node>,
    base: usize,
    chunk_size: usize,
}

impl ChunkedStack {
    /// Create an empty stack with the given chunk size.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            nodes: Vec::new(),
            base: 0,
            chunk_size,
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
        self.nodes.len() - self.base
    }

    /// True iff no work is available.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == self.base
    }

    /// Push one node (owner side).
    #[inline]
    pub fn push(&mut self, node: Node) {
        self.nodes.push(node);
    }

    /// Pop the most recently pushed node (owner side, depth-first).
    #[inline]
    pub fn pop(&mut self) -> Option<Node> {
        // An empty stack always has `base == 0` (steals leave the
        // private chunk, and draining resets it).
        let node = self.nodes.pop()?;
        if self.nodes.len() == self.base {
            self.nodes.clear();
            self.base = 0;
        }
        Some(node)
    }

    /// Number of chunks a thief may take right now: every chunk except
    /// the newest (private) one.
    #[inline]
    pub fn stealable_chunks(&self) -> usize {
        // Most victims of a failed steal hold one chunk or less: answer
        // them without a division.
        match self.len() {
            len if len <= self.chunk_size => 0,
            len => (len - 1) / self.chunk_size,
        }
    }

    /// Steal up to `want` chunks from the bottom (oldest end), appending
    /// their nodes, oldest first, to `buf`. Appends nothing if nothing
    /// is stealable.
    pub fn steal_into(&mut self, want: usize, buf: &mut Vec<Node>) {
        let take = want.min(self.stealable_chunks());
        if take == 0 {
            return;
        }
        let end = self.base + take * self.chunk_size;
        buf.extend_from_slice(&self.nodes[self.base..end]);
        let live = self.nodes.len() - end;
        if end > live {
            // The dead prefix outgrew the live part: compact, copying
            // fewer nodes than the prefix held.
            self.nodes.copy_within(end.., 0);
            self.nodes.truncate(live);
            self.base = 0;
        } else {
            self.base = end;
        }
    }

    /// Steal into a new vector (see [`steal_into`](Self::steal_into)).
    pub fn steal_chunks(&mut self, want: usize) -> Vec<Node> {
        let mut out = Vec::new();
        self.steal_into(want, &mut out);
        out
    }

    /// Lend this empty stack's storage (thief side), as an MPI thief
    /// posts its receive buffer: the victim fills it, and the reply
    /// brings it home through [`receive_chunks`](Self::receive_chunks).
    ///
    /// # Panics
    /// Panics unless the stack is empty.
    pub fn lend(&mut self) -> Vec<Node> {
        assert!(self.is_empty(), "only an empty stack lends its storage");
        std::mem::take(&mut self.nodes)
    }

    /// Receive stolen chunks (thief side), oldest node first: they
    /// become the oldest entries of this stack, preserving their
    /// root-proximity ordering. An empty stack takes `nodes` over as
    /// its storage, unless `nodes` carries no work and holds less room
    /// than the storage it would replace.
    ///
    /// # Panics
    /// Panics unless `nodes` is whole chunks.
    pub fn receive_chunks(&mut self, nodes: Vec<Node>) {
        let (n, size) = (nodes.len(), self.chunk_size);
        assert!(n.is_multiple_of(size), "{n} nodes, not whole chunks");
        if !self.is_empty() {
            self.nodes.splice(self.base..self.base, nodes);
        } else if n > 0 || nodes.capacity() > self.nodes.capacity() {
            self.nodes = nodes;
        }
    }

    /// Iterate over every node currently in the stack, oldest first
    /// (lost-work accounting after a faulty run).
    pub fn iter_nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes[self.base..].iter()
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

    fn filled(chunk_size: usize, n: u32) -> ChunkedStack {
        let mut s = ChunkedStack::new(chunk_size);
        (0..n).for_each(|i| s.push(node(i)));
        s
    }

    fn heights(nodes: &[Node]) -> Vec<u32> {
        nodes.iter().map(|n| n.height).collect()
    }

    #[test]
    fn push_pop_is_lifo() {
        let mut s = filled(3, 7);
        assert_eq!(s.len(), 7);
        for i in (0..7).rev() {
            assert_eq!(s.pop().expect("non-empty").height, i);
        }
        assert!(s.pop().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn private_chunk_is_never_stealable() {
        // 19 nodes: one incomplete chunk -> nothing stealable.
        let mut s = filled(20, 19);
        assert_eq!(s.stealable_chunks(), 0);
        assert!(s.steal_chunks(1).is_empty());
        assert_eq!(s.len(), 19);
        // 21 nodes: one full + one partial; the full (oldest) is fair game.
        s.push(node(19));
        s.push(node(20));
        assert_eq!(s.stealable_chunks(), 1);
    }

    #[test]
    fn exactly_full_chunk_is_private() {
        // A single chunk — even complete — is the working chunk.
        assert_eq!(filled(20, 20).stealable_chunks(), 0);
    }

    #[test]
    fn steal_takes_oldest_chunks() {
        // Chunks: [0,1] [2,3] [4,5]; stealable = 2 oldest.
        let mut s = filled(2, 6);
        assert_eq!(heights(&s.steal_chunks(1)), [0, 1]);
        assert_eq!(s.len(), 4);
        // Owner still pops newest first.
        assert_eq!(s.pop().expect("has work").height, 5);
        assert_eq!(heights(&s.steal_chunks(9)), [2, 3]);
        assert_eq!(s.pop().expect("has work").height, 4);
        assert!(s.is_empty());
    }

    #[test]
    fn steal_want_is_clamped() {
        let mut s = filled(2, 6);
        let got = s.steal_chunks(99);
        assert_eq!(heights(&got), [0, 1, 2, 3], "only non-private chunks leave");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn receive_preserves_order_and_count() {
        let loot = filled(2, 6).steal_chunks(2);
        let mut thief = ChunkedStack::new(2);
        thief.push(node(100));
        thief.receive_chunks(loot);
        assert_eq!(thief.len(), 5);
        // Thief pops its own newest work first...
        assert_eq!(thief.pop().expect("work").height, 100);
        // ...then drains received chunks newest-chunk-first.
        assert_eq!(thief.pop().expect("work").height, 3);
        // Received chunks are stealable from the thief in turn
        // ("stealing half... make it possible for a thief to be stolen
        // himself as soon as it retrieves work").
        let mut thief2 = ChunkedStack::new(2);
        thief2.receive_chunks(filled(2, 6).steal_chunks(2));
        assert_eq!(thief2.stealable_chunks(), 1);
    }

    #[test]
    fn lent_storage_comes_home() {
        // An empty stack lends its storage whole and keeps none.
        let mut s = filled(2, 8);
        while s.pop().is_some() {}
        let cap = s.nodes.capacity();
        let lent = s.lend();
        assert!(lent.is_empty() && lent.capacity() == cap);
        assert_eq!(s.nodes.capacity(), 0);
        // The request times out and a newer one lends the empty
        // placeholder. The stale empty reply restores the storage; the
        // newer reply's buffer, or any smaller one, does not displace it.
        let placeholder = s.lend();
        assert_eq!(placeholder.capacity(), 0);
        s.receive_chunks(lent);
        assert_eq!(s.nodes.capacity(), cap);
        s.receive_chunks(placeholder);
        s.receive_chunks(Vec::with_capacity(2));
        assert_eq!(s.nodes.capacity(), cap);
        // A buffer with work is taken whatever its room.
        let loot = filled(2, 4).steal_chunks(1);
        let loot_cap = loot.capacity();
        s.receive_chunks(loot);
        assert_eq!((s.len(), s.nodes.capacity()), (2, loot_cap));
    }

    #[test]
    fn receive_into_a_busy_stack_keeps_node_order() {
        // A non-empty stack copies the nodes in front of its own.
        let mut s = filled(2, 8);
        let loot = s.steal_chunks(2);
        s.receive_chunks(loot);
        assert_eq!(
            heights(&s.iter_nodes().copied().collect::<Vec<_>>()),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "only an empty stack lends")]
    fn a_busy_stack_does_not_lend() {
        filled(2, 1).lend();
    }

    #[test]
    fn dead_prefix_is_compacted_once_it_outgrows_the_live_part() {
        let mut s = filled(2, 10);
        s.steal_chunks(2);
        assert_eq!((s.base, s.nodes.len()), (4, 10));
        s.steal_chunks(1);
        assert_eq!((s.base, s.nodes.len()), (0, 4));
        assert_eq!(heights(&s.nodes), [6, 7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "not whole chunks")]
    fn receive_rejects_partial_chunks() {
        ChunkedStack::new(2).receive_chunks(vec![node(1)]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_rejected() {
        ChunkedStack::new(0);
    }
}
