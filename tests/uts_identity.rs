//! Tree identity pins: the SHA-1 digest bytes are the contract every
//! schedule, figure CSV and makespan in this repository rests on.
//!
//! The hex states below were recorded at the commit before the
//! one-block SHA-1 kernel landed and cross-checked against coreutils
//! `sha1sum`, so they are external truth rather than this code checked
//! against itself. A digest path that changes any of them changes every
//! tree.

use dws::uts::sha1::{to_hex, Sha1};
use dws::uts::{presets, search, RngState, SearchStats};

fn hex(state: &RngState) -> String {
    to_hex(state.bytes())
}

#[test]
fn rfc3174_vectors_through_the_public_api() {
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
    let mut million_a = Sha1::new();
    for _ in 0..1000 {
        million_a.update(&[b'a'; 1000]);
    }
    assert_eq!(
        to_hex(&million_a.finalize()),
        "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    );
}

#[test]
fn root_states_are_pinned() {
    assert_eq!(
        hex(&RngState::from_seed(316)),
        "32d679d139f9309e2403b4d18597b043eab271fb"
    );
    assert_eq!(
        hex(&RngState::from_seed(559)),
        "3c0c512be5fcee04184b723166e964e2e154e38f"
    );
}

#[test]
fn child_states_are_pinned() {
    // (seed, child index, SHA rounds) → state. 1999 is the last child
    // of a b0 = 2000 root; 24 rounds is fig16's coarsest granularity.
    let pins = [
        (316, 0, 1, "86699693a469c9f0bf2fa25826aae20762628ee9"),
        (316, 1999, 1, "733da7c41ca559388a7b571034456778d2bbbde3"),
        (316, 3, 24, "12e6da41f0ca3eb189684fcad8e085b658909d2d"),
        (559, 0, 1, "b63c43350c21b0f898ed60699806cecbe61e5dec"),
        (559, 1999, 1, "90059bd8d9d773a0e367209b73aa8ba050d36553"),
        (559, 3, 24, "f26462c923842d9189e268a6e490d2bdd82746e5"),
    ];
    for (seed, index, rounds, want) in pins {
        assert_eq!(
            hex(&RngState::from_seed(seed).spawn(index, rounds)),
            want,
            "seed {seed} child {index} rounds {rounds}"
        );
    }
}

#[test]
fn sibling_pairs_are_pinned() {
    // Recorded at the commit before the two-lane kernel landed, one
    // `spawn` per state: (first index, SHA rounds) → both siblings.
    let pins = [
        (
            0,
            1,
            [
                "86699693a469c9f0bf2fa25826aae20762628ee9",
                "d2c5d7ef552d6cda5e7335e74e4d10e6c2c580e5",
            ],
        ),
        (
            1998,
            24,
            [
                "eddf810b16917c86a39a267dd480052a99f4964a",
                "aceb7b929d4251c7e60f4feec4c440a83810cd11",
            ],
        ),
    ];
    for (index, rounds, want) in pins {
        let pair = RngState::from_seed(316).spawn_pair(index, rounds);
        assert_eq!(
            [hex(&pair[0]), hex(&pair[1])],
            want,
            "seed 316 children {index} and {}, rounds {rounds}",
            index + 1
        );
    }
}

#[test]
fn t3sim_s_tree_is_pinned() {
    assert_eq!(
        search(&presets::t3sim_s()),
        SearchStats {
            nodes: 22_235,
            leaves: 11_367,
            max_depth: 158,
        }
    );
}
