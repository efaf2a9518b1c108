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

/// The compress function on the x86 SHA extensions, which run four
/// rounds (`sha1rnds4`) or schedule four words (`sha1msg1`/`sha1msg2`)
/// per instruction.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
        _mm_setzero_si128, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32,
        _mm_sha1rnds4_epu32, _mm_shuffle_epi8, _mm_xor_si128,
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
mod tests {
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
