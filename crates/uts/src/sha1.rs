//! SHA-1 (RFC 3174), implemented from scratch.
//!
//! UTS builds its splittable random stream on SHA-1: the 20-byte digest
//! of a parent's state and a child index *is* the child's state. The
//! benchmark does not need SHA-1 to be cryptographically current — it
//! needs a fixed, high-quality, platform-independent mixing function so
//! that "for a set of parameters, the same tree will always be
//! generated no matter the underlying hardware or language" (paper
//! §II). This implementation is verified against the FIPS 180-1 / RFC
//! 3174 test vectors.

/// Length of a SHA-1 digest in bytes.
pub const DIGEST_LEN: usize = 20;

/// A SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

/// Initial hash state (RFC 3174 section 6.1).
const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Longest message that fits one block with its padding: the 0x80
/// marker and the 8-byte bit length need 9 of the 64 bytes.
const ONE_BLOCK_MAX: usize = 55;

/// Incremental SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Bytes processed so far (for the length trailer).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Start a new hash.
    pub fn new() -> Self {
        Self {
            h: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.h, &self.buf);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            compress(&mut self.h, block.try_into().expect("64-byte split"));
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Digest {
        // `update` never leaves a full buffer, so the marker always fits.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len > ONE_BLOCK_MAX {
            // No room left for the length: it goes in a second block.
            compress(&mut self.h, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&(self.len * 8).to_be_bytes());
        compress(&mut self.h, &self.buf);
        state_bytes(&self.h)
    }

    /// One-shot convenience.
    ///
    /// Every UTS node is a digest of 24 or 20 bytes, so a message that
    /// pads into a single block is laid out in place and compressed
    /// once, without the incremental hasher's buffering.
    pub fn digest(data: &[u8]) -> Digest {
        if data.len() > ONE_BLOCK_MAX {
            let mut s = Sha1::new();
            s.update(data);
            return s.finalize();
        }
        let mut block = [0u8; 64];
        block[..data.len()].copy_from_slice(data);
        block[data.len()] = 0x80;
        block[56..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        compress(&mut h, &block);
        state_bytes(&h)
    }
}

/// The five state words as the big-endian digest.
fn state_bytes(h: &[u32; 5]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Fold one 64-byte block into `h`: the only place a compress
/// implementation is chosen. The choice follows what the CPU reports,
/// and both implementations produce the same words, so it is invisible
/// in every digest.
#[inline]
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `detected` has just confirmed at run time that this
        // CPU has the `sha`, `sse2`, `ssse3` and `sse4.1` features that
        // `sha_ni::compress` is compiled with.
        unsafe { sha_ni::compress(h, block) };
        return;
    }
    compress_portable(h, block);
}

/// Twenty rounds with one round function `f` and constant `k`, over a
/// rolling 16-word window of the message schedule: word `i` overwrites
/// word `i - 16`, the oldest one it depends on.
#[inline(always)]
fn rounds20(
    state: &mut [u32; 5],
    w: &mut [u32; 16],
    first: usize,
    k: u32,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for i in first..first + 20 {
        if i >= 16 {
            w[i & 15] =
                (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15]).rotate_left(1);
        }
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f(b, c, d))
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(w[i & 15]);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    *state = [a, b, c, d, e];
}

/// The compress function in portable Rust.
fn compress_portable(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    let mut state = *h;
    rounds20(&mut state, &mut w, 0, 0x5A82_7999, |b, c, d| {
        (b & c) | (!b & d)
    });
    rounds20(&mut state, &mut w, 20, 0x6ED9_EBA1, |b, c, d| b ^ c ^ d);
    rounds20(&mut state, &mut w, 40, 0x8F1B_BCDC, |b, c, d| {
        (b & c) | (b & d) | (c & d)
    });
    rounds20(&mut state, &mut w, 60, 0xCA62_C1D6, |b, c, d| b ^ c ^ d);
    for (word, add) in h.iter_mut().zip(state) {
        *word = word.wrapping_add(add);
    }
}

/// The states of children `index` and `index + 1` of a UTS node on the
/// two-lane SHA-NI kernel, or `None` on a CPU without it: each is the
/// digest of `state ‖ index` (big-endian), re-hashed `rounds − 1` more
/// times, exactly as [`Sha1::digest`] computes them one at a time
/// (`rounds` below 1 counts as 1; `RngState::spawn_pair` rejects it).
///
/// Two lanes because a binomial node has `m = 2` children (every tree
/// of the paper's Table I) and one SHA-1 is a serial chain of twenty
/// `sha1rnds4`: a second, independent chain fills the cycles the first
/// leaves the SHA unit idle.
#[inline]
pub(crate) fn child_pair(state: &Digest, index: u32, rounds: u32) -> Option<[Digest; 2]> {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `detected` has just confirmed at run time that this
        // CPU has the `sha`, `sse2`, `ssse3` and `sse4.1` features that
        // `sha_ni::child_pair` is compiled with.
        return Some(unsafe { sha_ni::child_pair(state, index, rounds) });
    }
    // Unused where there is no kernel to pass them to.
    let _ = (state, index, rounds);
    None
}

/// The compress function on the x86 SHA extensions, which run four
/// rounds (`sha1rnds4`) or schedule four words (`sha1msg1`/`sha1msg2`)
/// per instruction, and the two-lane kernel that hashes sibling UTS
/// children together.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{Digest, DIGEST_LEN, H0};
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_or_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_setzero_si128, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32,
        _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_shuffle_epi8, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// Whether this CPU has every feature [`compress`] is compiled with.
    /// The standard library caches the CPUID query, so this is a load
    /// and a mask per feature.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Fold one 64-byte block into `h`.
    ///
    /// Lanes are numbered 3 (highest) to 0. `abcd` holds A in lane 3
    /// down to D in lane 0; a vector of four schedule words holds the
    /// earliest in lane 3. `sha1rnds4` takes E already added to the
    /// first of its four words, which is what `sha1nexte` prepares: four
    /// rounds on, E is the A those rounds started from, rotated by 30.
    ///
    /// # Safety
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
    /// features, i.e. [`detected`] must have returned `true`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
        // Reverses all 16 bytes: big-endian words become native ones,
        // with the first word of each 16 bytes in lane 3.
        let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0A0B_0C0D_0E0F);
        let mut w = [_mm_setzero_si128(); 4];
        for (i, words) in w.iter_mut().enumerate() {
            // SAFETY: `block` is 64 readable bytes and `i < 4`, so the
            // unaligned 16-byte load at offset `16 * i` is in bounds.
            let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
            *words = _mm_shuffle_epi8(raw, reverse);
        }

        let abcd_in = _mm_set_epi32(h[0] as i32, h[1] as i32, h[2] as i32, h[3] as i32);
        let e_in = _mm_set_epi32(h[4] as i32, 0, 0, 0);
        let mut abcd = abcd_in;
        // E plus the first schedule word, for rounds 0..4.
        let mut e_w = _mm_add_epi32(e_in, w[0]);
        // ABCD as it was before the latest four rounds.
        let mut before = abcd;

        // Rounds 4g..4g+4 for each group `g` in `$groups`, with round
        // function and constant number `$f`.
        macro_rules! rounds {
            ($f:literal, $groups:expr) => {
                for g in $groups {
                    let cur = g % 4;
                    if g >= 4 {
                        // Words 4g..4g+4 from the sixteen before them.
                        let partial = _mm_sha1msg1_epu32(w[cur], w[(g + 1) % 4]);
                        w[cur] = _mm_sha1msg2_epu32(
                            _mm_xor_si128(partial, w[(g + 2) % 4]),
                            w[(g + 3) % 4],
                        );
                    }
                    if g > 0 {
                        e_w = _mm_sha1nexte_epu32(before, w[cur]);
                    }
                    before = abcd;
                    abcd = _mm_sha1rnds4_epu32(abcd, e_w, $f);
                }
            };
        }
        rounds!(0, 0..5usize);
        rounds!(1, 5..10usize);
        rounds!(2, 10..15usize);
        rounds!(3, 15..20usize);

        let abcd = _mm_add_epi32(abcd, abcd_in);
        let e = _mm_sha1nexte_epu32(before, e_in);
        h[0] = _mm_extract_epi32(abcd, 3) as u32;
        h[1] = _mm_extract_epi32(abcd, 2) as u32;
        h[2] = _mm_extract_epi32(abcd, 1) as u32;
        h[3] = _mm_extract_epi32(abcd, 0) as u32;
        h[4] = _mm_extract_epi32(e, 3) as u32;
    }

    /// The states of children `index` and `index + 1` of `state`, both
    /// lanes in one pass (see [`super::child_pair`] for the messages).
    ///
    /// Lane `x` hashes child `index`, lane `y` its sibling. Both start
    /// from `H0` and each message is one block, so the schedule vectors
    /// are built from the parent's words in registers — `state ‖ index
    /// ‖ 0x80 ‖ 0… ‖ 192` — and a further round takes the digest it
    /// just produced as `abcd ‖ e ‖ 0x80 ‖ 0… ‖ 160` without storing
    /// it. The two chains share no value after the first vector; they
    /// are written out side by side, one named variable per lane, so
    /// that each `sha1rnds4` has the other lane's to overlap with.
    ///
    /// # Safety
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
    /// features, i.e. [`detected`] must have returned `true`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn child_pair(state: &Digest, index: u32, rounds: u32) -> [Digest; 2] {
        const MARK: i32 = 0x8000_0000_u32 as i32;
        let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0A0B_0C0D_0E0F);
        let abcd_in = _mm_set_epi32(H0[0] as i32, H0[1] as i32, H0[2] as i32, H0[3] as i32);
        let e_in = _mm_set_epi32(H0[4] as i32, 0, 0, 0);
        let zero = _mm_setzero_si128();

        // SAFETY: `state` is 20 readable bytes, so the unaligned
        // 16-byte load from its start is in bounds.
        let head = unsafe { _mm_loadu_si128(state.as_ptr().cast()) };
        let tail = u32::from_be_bytes([state[16], state[17], state[18], state[19]]) as i32;
        let sibling = index.wrapping_add(1) as i32;
        // Four schedule vectors per lane, earliest word in lane 3.
        let mut x0 = _mm_shuffle_epi8(head, reverse);
        let mut y0 = x0;
        let mut x1 = _mm_set_epi32(tail, index as i32, MARK, 0);
        let mut y1 = _mm_set_epi32(tail, sibling, MARK, 0);
        let (mut x2, mut y2) = (zero, zero);
        let bits_192 = _mm_set_epi32(0, 0, 0, 192);
        let (mut x3, mut y3) = (bits_192, bits_192);

        let mut left = rounds;
        let (x_abcd, x_e, y_abcd, y_e) = loop {
            let (mut xs, mut ys) = (abcd_in, abcd_in);
            // ABCD as it was before the latest four rounds.
            let (mut xb, mut yb) = (xs, ys);
            // Rounds 0..4: E joins the first schedule word directly.
            let mut xe = _mm_add_epi32(e_in, x0);
            let mut ye = _mm_add_epi32(e_in, y0);
            xs = _mm_sha1rnds4_epu32(xs, xe, 0);
            ys = _mm_sha1rnds4_epu32(ys, ye, 0);

            // Four rounds on both lanes over the schedule words `$x`
            // and `$y`, with round function and constant number `$f`.
            macro_rules! rounds4 {
                ($f:literal, $x:ident, $y:ident) => {
                    xe = _mm_sha1nexte_epu32(xb, $x);
                    ye = _mm_sha1nexte_epu32(yb, $y);
                    xb = xs;
                    yb = ys;
                    xs = _mm_sha1rnds4_epu32(xs, xe, $f);
                    ys = _mm_sha1rnds4_epu32(ys, ye, $f);
                };
            }
            // The next four words into the oldest vector (the first
            // named) from the sixteen before them, then their rounds.
            macro_rules! scheduled4 {
                ($f:literal, $x0:ident $x1:ident $x2:ident $x3:ident,
                 $y0:ident $y1:ident $y2:ident $y3:ident) => {
                    $x0 = _mm_sha1msg1_epu32($x0, $x1);
                    $y0 = _mm_sha1msg1_epu32($y0, $y1);
                    $x0 = _mm_sha1msg2_epu32(_mm_xor_si128($x0, $x2), $x3);
                    $y0 = _mm_sha1msg2_epu32(_mm_xor_si128($y0, $y2), $y3);
                    rounds4!($f, $x0, $y0);
                };
            }
            // Sixteen rounds: one trip round the four vectors.
            macro_rules! scheduled16 {
                ($f0:literal, $f1:literal, $f2:literal, $f3:literal) => {
                    scheduled4!($f0, x0 x1 x2 x3, y0 y1 y2 y3);
                    scheduled4!($f1, x1 x2 x3 x0, y1 y2 y3 y0);
                    scheduled4!($f2, x2 x3 x0 x1, y2 y3 y0 y1);
                    scheduled4!($f3, x3 x0 x1 x2, y3 y0 y1 y2);
                };
            }
            rounds4!(0, x1, y1);
            rounds4!(0, x2, y2);
            rounds4!(0, x3, y3);
            // The round function changes every twenty rounds.
            scheduled16!(0, 1, 1, 1);
            scheduled16!(1, 1, 2, 2);
            scheduled16!(2, 2, 2, 3);
            scheduled16!(3, 3, 3, 3);

            let x_abcd = _mm_add_epi32(xs, abcd_in);
            let y_abcd = _mm_add_epi32(ys, abcd_in);
            // Lane 3 is the fifth digest word; lanes 2..0 stay zero.
            let x_e = _mm_sha1nexte_epu32(xb, e_in);
            let y_e = _mm_sha1nexte_epu32(yb, e_in);
            if left <= 1 {
                break (x_abcd, x_e, y_abcd, y_e);
            }
            left -= 1;
            // The digest is the next message: 20 bytes, 160 bits.
            let mark = _mm_set_epi32(0, MARK, 0, 0);
            (x0, y0) = (x_abcd, y_abcd);
            (x1, y1) = (_mm_or_si128(x_e, mark), _mm_or_si128(y_e, mark));
            (x2, y2) = (zero, zero);
            let bits_160 = _mm_set_epi32(0, 0, 0, 160);
            (x3, y3) = (bits_160, bits_160);
        };

        let mut out = [[0u8; DIGEST_LEN]; 2];
        for (bytes, (abcd, e)) in out.iter_mut().zip([(x_abcd, x_e), (y_abcd, y_e)]) {
            // SAFETY: `bytes` is 20 writable bytes, so the unaligned
            // 16-byte store to its start is in bounds.
            unsafe {
                _mm_storeu_si128(bytes.as_mut_ptr().cast(), _mm_shuffle_epi8(abcd, reverse));
            }
            bytes[16..].copy_from_slice(&(_mm_extract_epi32(e, 3) as u32).to_be_bytes());
        }
        out
    }
}

/// Render a digest as lowercase hex (for tests and debugging).
pub fn to_hex(d: &Digest) -> String {
    let mut s = String::with_capacity(DIGEST_LEN * 2);
    for b in d {
        use std::fmt::Write;
        write!(s, "{b:02x}").expect("writing to String cannot fail");
    }
    s
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The textbook compress function of RFC 3174 section 6.1: the full
    /// 80-word schedule and one round per iteration. Every production
    /// path is checked against it.
    fn compress_reference(h: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *h;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }

    /// SplitMix64: a seeded stream for the randomized checks (this
    /// crate has no dependencies to borrow a generator from).
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn every_compress_path_matches_the_reference() {
        let mut rng = 0x5AA1_u64;
        for case in 0..10_000 {
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next_u64(&mut rng).to_le_bytes());
            }
            // Arbitrary chaining states, not only the initial one.
            let mut start = [0u32; 5];
            for word in &mut start {
                *word = next_u64(&mut rng) as u32;
            }
            let mut want = start;
            compress_reference(&mut want, &block);

            let mut got = start;
            compress(&mut got, &block);
            assert_eq!(got, want, "dispatching compress, case {case}");

            let mut got = start;
            compress_portable(&mut got, &block);
            assert_eq!(got, want, "portable compress, case {case}");

            #[cfg(target_arch = "x86_64")]
            if sha_ni::detected() {
                let mut got = start;
                // SAFETY: `detected` confirmed the `sha`, `sse2`,
                // `ssse3` and `sse4.1` features on this CPU.
                unsafe { sha_ni::compress(&mut got, &block) };
                assert_eq!(got, want, "SHA-NI compress, case {case}");
            }
        }
    }

    /// Child `index` of `state` after `rounds` rounds, padded by hand
    /// and folded with the reference compress: what UTS defines, with
    /// no production code in it.
    #[cfg(target_arch = "x86_64")]
    fn child_reference(state: &Digest, index: u32, rounds: u32) -> Digest {
        let mut message = state.to_vec();
        message.extend_from_slice(&index.to_be_bytes());
        for _ in 0..rounds {
            let bits = message.len() as u64 * 8;
            message.push(0x80);
            message.resize(56, 0);
            message.extend_from_slice(&bits.to_be_bytes());
            let mut h = H0;
            compress_reference(&mut h, message.as_slice().try_into().expect("one block"));
            message = state_bytes(&h).to_vec();
        }
        message.try_into().expect("a digest")
    }

    /// 10,000 seeded `(state, index, rounds)` triples for the sibling-pair
    /// checks here and in `rng`: the last pair a `u32` index allows, the
    /// first, then arbitrary ones, with `rounds` cycling through 1..=4.
    pub(crate) fn pair_cases(mut rng: u64) -> impl Iterator<Item = (Digest, u32, u32)> {
        (0..10_000u32).map(move |case| {
            let mut state = [0u8; DIGEST_LEN];
            for chunk in state.chunks_mut(8) {
                chunk.copy_from_slice(&next_u64(&mut rng).to_le_bytes()[..chunk.len()]);
            }
            let index = match case {
                0 => u32::MAX - 1,
                1 => 0,
                _ => (next_u64(&mut rng) as u32).min(u32::MAX - 1),
            };
            (state, index, 1 + case % 4)
        })
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pair_kernel_matches_the_reference() {
        if !sha_ni::detected() {
            return;
        }
        for (state, index, rounds) in pair_cases(0x2_1A9E) {
            let want = [
                child_reference(&state, index, rounds),
                child_reference(&state, index + 1, rounds),
            ];
            // SAFETY: `detected` confirmed the `sha`, `sse2`, `ssse3`
            // and `sse4.1` features on this CPU.
            let got = unsafe { sha_ni::child_pair(&state, index, rounds) };
            assert_eq!(got, want, "index {index}, {rounds} rounds");
        }
    }

    #[test]
    fn one_shot_equals_incremental_at_every_length() {
        // 0..=130 crosses the one-block limit (55/56), the block size
        // (63/64) and the second block's limit (119/120).
        let mut rng = 0xD16E_u64;
        let data: Vec<u8> = (0..130).map(|_| next_u64(&mut rng) as u8).collect();
        for len in 0..=data.len() {
            let mut s = Sha1::new();
            s.update(&data[..len]);
            assert_eq!(Sha1::digest(&data[..len]), s.finalize(), "length {len}");
        }
    }

    #[test]
    fn digest_matches_the_reference_at_every_padding_length() {
        // Pads by hand and folds with the reference compress, so the
        // padding in `digest` and `finalize` is checked against the RFC
        // rather than against each other.
        let data = [0xC3u8; 130];
        for len in 0..=data.len() {
            let mut padded = data[..len].to_vec();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(len as u64 * 8).to_be_bytes());
            let mut h = H0;
            for block in padded.chunks_exact(64) {
                compress_reference(&mut h, block.try_into().expect("64-byte chunk"));
            }
            assert_eq!(Sha1::digest(&data[..len]), state_bytes(&h), "length {len}");
        }
    }

    #[test]
    fn rfc3174_test_vectors() {
        // FIPS 180-1 appendix / RFC 3174 section 7.3 vectors.
        assert_eq!(
            to_hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            to_hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            to_hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut s = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            s.update(&chunk);
        }
        assert_eq!(
            to_hex(&s.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..255u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 128, 200, 255] {
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Exercise the padding logic at every interesting length.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xABu8; len];
            let mut s = Sha1::new();
            for byte in &data {
                s.update(std::slice::from_ref(byte));
            }
            assert_eq!(
                s.finalize(),
                Sha1::digest(&data),
                "byte-at-a-time mismatch at len {len}"
            );
        }
    }

    #[test]
    fn digests_differ_on_single_bit_flip() {
        let a = Sha1::digest(b"unbalanced tree search");
        let b = Sha1::digest(b"unbalanced tree searcI"); // last byte flipped
        assert_ne!(a, b);
        // Avalanche sanity: digests should differ in many bits.
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(differing > 40, "only {differing} differing bits");
    }
}
