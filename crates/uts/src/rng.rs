//! The UTS splittable random stream.
//!
//! Each tree node carries a 20-byte state. The root state is the SHA-1
//! digest of the tree seed; the state of child `i` is the SHA-1 digest
//! of the parent state concatenated with `i` (big-endian). This is the
//! construction of the reference UTS `brg_sha1` generator: it makes
//! child generation *location independent* — any process holding a node
//! can generate exactly that node's subtree, which is what allows work
//! items to be stolen freely with no data dependencies.
//!
//! The stream is *not* upstream's byte for byte. ROADMAP item 1 found
//! the two layouts that differ — what [`RngState::from_seed`] hashes
//! and which state bytes [`RngState::rand`] reads — and both are kept
//! in this file, outside the SHA-1 kernels, so that aligning them
//! stays a two-line change. The child message (`state ‖ index`) is the
//! one layout the kernels know, and it already agrees with upstream.
//!
//! The paper's granularity experiment (Figure 16) varies "the number of
//! SHA rounds to execute when creating a node"; [`RngState::spawn`]
//! takes that count and chains extra digest rounds accordingly.

use crate::sha1::{self, Digest, Sha1, DIGEST_LEN};

/// Mask selecting the non-negative 31-bit value UTS draws from a state.
pub const POS_MASK: u32 = 0x7FFF_FFFF;
/// The exclusive upper bound of [`RngState::rand`] draws, as a float.
pub const RAND_RANGE: f64 = (POS_MASK as f64) + 1.0;

/// A node's random state: a SHA-1 digest.
///
/// `Default` is the all-zero state — never produced by hashing; it
/// exists so buffer-based containers (e.g. the Chase–Lev deque) can
/// pre-initialize slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RngState {
    bytes: Digest,
}

impl RngState {
    /// Root state for a tree seed: the digest of the 4-byte big-endian
    /// seed alone. Upstream UTS `rng_init` hashes 16 zero bytes ‖ those
    /// four, so roots (and with them whole trees) differ from upstream's
    /// until ROADMAP item 1 lands.
    pub fn from_seed(seed: i32) -> Self {
        Self {
            bytes: Sha1::digest(&seed.to_be_bytes()),
        }
    }

    /// Construct from raw bytes (used when receiving stolen nodes).
    pub fn from_bytes(bytes: Digest) -> Self {
        Self { bytes }
    }

    /// The raw 20-byte state.
    #[inline]
    pub fn bytes(&self) -> &Digest {
        &self.bytes
    }

    /// Spawn the state of child `index`, performing `rounds` SHA-1
    /// evaluations (the work-granularity knob; the default is 1).
    ///
    /// Round 1 hashes `parent_state ‖ index`; each further round hashes
    /// the previous digest. All rounds are real SHA-1 evaluations, so
    /// the simulated *and actual* cost of node creation scales with
    /// `rounds`, as in the paper's §V-B experiment. Chaining is the
    /// legacy form: it makes the tree depend on `rounds`, where
    /// upstream repeats the same spawn and discards the result, and
    /// ROADMAP item 1 replaces it.
    ///
    /// # Panics
    /// Panics if `rounds == 0` — a node must be hashed at least once.
    pub fn spawn(&self, index: u32, rounds: u32) -> Self {
        assert!(rounds > 0, "node creation requires at least one SHA round");
        let mut message = [0u8; DIGEST_LEN + 4];
        message[..DIGEST_LEN].copy_from_slice(&self.bytes);
        message[DIGEST_LEN..].copy_from_slice(&index.to_be_bytes());
        let mut digest = Sha1::digest(&message);
        for _ in 1..rounds {
            digest = Sha1::digest(&digest);
        }
        Self { bytes: digest }
    }

    /// The states of children `index` and `index + 1`, each exactly
    /// what [`spawn`](Self::spawn) returns for it. Siblings are
    /// independent digests of one parent, so a CPU with the SHA
    /// extensions hashes the two in one pass (the two-lane kernel of
    /// [`crate::sha1`]); any other runs `spawn` once per child.
    ///
    /// # Panics
    /// Panics if `rounds == 0`, or if `index + 1` is not a `u32`.
    pub fn spawn_pair(&self, index: u32, rounds: u32) -> [Self; 2] {
        assert!(rounds > 0, "node creation requires at least one SHA round");
        assert!(index < u32::MAX, "child {index} has no next sibling");
        match sha1::child_pair(&self.bytes, index, rounds) {
            Some(pair) => pair.map(Self::from_bytes),
            None => self.spawn_pair_one_lane(index, rounds),
        }
    }

    /// [`spawn_pair`](Self::spawn_pair) where there is no pair kernel.
    fn spawn_pair_one_lane(&self, index: u32, rounds: u32) -> [Self; 2] {
        [self.spawn(index, rounds), self.spawn(index + 1, rounds)]
    }

    /// The node's 31-bit non-negative random value: the *first* four
    /// state bytes, big-endian, masked positive. Upstream UTS
    /// `rng_rand` reads bytes 16..20 instead (ROADMAP item 1).
    #[inline]
    pub fn rand(&self) -> u32 {
        let word = u32::from_be_bytes(
            self.bytes[..4]
                .try_into()
                .expect("digest has at least 4 bytes"),
        );
        word & POS_MASK
    }

    /// The node's random value as a probability in `[0, 1)`, as UTS
    /// `rng_toProb`.
    #[inline]
    pub fn to_prob(&self) -> f64 {
        self.rand() as f64 / RAND_RANGE
    }
}

/// Serialized size of an [`RngState`] on the wire.
pub const STATE_WIRE_BYTES: usize = DIGEST_LEN;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::tests::pair_cases;

    #[test]
    fn seeds_produce_distinct_roots() {
        let a = RngState::from_seed(316);
        let b = RngState::from_seed(559);
        assert_ne!(a, b);
        // Same seed, same root: cross-run determinism.
        assert_eq!(a, RngState::from_seed(316));
    }

    #[test]
    fn spawn_is_deterministic_and_index_sensitive() {
        let root = RngState::from_seed(42);
        let c0 = root.spawn(0, 1);
        let c1 = root.spawn(1, 1);
        assert_ne!(c0, c1, "distinct children must have distinct states");
        assert_eq!(c0, root.spawn(0, 1));
    }

    #[test]
    fn spawn_rounds_change_state_and_chain() {
        let root = RngState::from_seed(7);
        let one = root.spawn(3, 1);
        let two = root.spawn(3, 2);
        assert_ne!(one, two);
        // Chaining definition: rounds=2 is the digest of rounds=1.
        assert_eq!(
            two.bytes(),
            &crate::sha1::Sha1::digest(one.bytes()),
            "extra rounds must re-hash the previous digest"
        );
    }

    #[test]
    fn spawn_pair_is_two_spawns_on_every_path() {
        for (bytes, index, rounds) in pair_cases(0x51B1) {
            let state = RngState::from_bytes(bytes);
            let want = [state.spawn(index, rounds), state.spawn(index + 1, rounds)];
            assert_eq!(
                state.spawn_pair(index, rounds),
                want,
                "dispatching pair: index {index}, {rounds} rounds"
            );
            assert_eq!(
                state.spawn_pair_one_lane(index, rounds),
                want,
                "one-lane pair: index {index}, {rounds} rounds"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no next sibling")]
    fn pair_past_the_last_index_rejected() {
        RngState::from_seed(0).spawn_pair(u32::MAX, 1);
    }

    #[test]
    fn rand_is_non_negative_31_bit() {
        let mut state = RngState::from_seed(1);
        for i in 0..100 {
            state = state.spawn(i % 3, 1);
            assert!(state.rand() <= POS_MASK);
        }
    }

    #[test]
    fn to_prob_in_unit_interval_and_spread() {
        let root = RngState::from_seed(12345);
        let n = 2_000;
        let mut sum = 0.0;
        for i in 0..n {
            let p = root.spawn(i, 1).to_prob();
            assert!((0.0..1.0).contains(&p));
            sum += p;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean} far from 0.5");
    }

    #[test]
    fn roundtrip_bytes() {
        let s = RngState::from_seed(-5);
        let restored = RngState::from_bytes(*s.bytes());
        assert_eq!(s, restored);
        assert_eq!(s.rand(), restored.rand());
    }

    #[test]
    #[should_panic(expected = "at least one SHA round")]
    fn zero_rounds_rejected() {
        RngState::from_seed(0).spawn(0, 0);
    }
}
