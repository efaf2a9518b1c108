//! Named workloads: the paper's input trees and scaled-down analogues.
//!
//! Table I of the paper defines two binomial trees: **T3XXL**
//! (2,793,220,501 nodes, used up to 128 ranks) and **T3WL**
//! (157,063,495,159 nodes, used from 1,024 to 8,192 ranks). Searching
//! 10⁹–10¹¹ nodes inside a discrete-event simulation is possible but
//! pointless for reproducing the paper's *shape* — what matters is the
//! binomial regime `q → (1/m)⁻` that creates wildly unbalanced subtrees
//! and sustained steal pressure. The `T3SIM_*` presets keep the paper's
//! `b0 = 2000`, `m = 2` and push `q` toward 0.5 to scale expected size,
//! exactly the knob the UTS authors used to scale from T3 to T3XXL to
//! T3WL.
//!
//! A [`Workload`] also carries the *simulated cost of one node*: the
//! paper measures "UTS is able to process an average of 970,000 nodes
//! per second" on a K node, i.e. ≈1,031 ns/node at one SHA round.

use crate::tree::{GeoShape, TreeSpec};

/// Simulated time to process one tree node at `gen_rounds = 1`,
/// calibrated to the paper's 970,000 nodes/s on the K Computer.
pub const K_NODE_NS: u64 = 1_031;

/// A fully specified UTS run: shape, seed, granularity and cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Tree shape parameters.
    pub spec: TreeSpec,
    /// Root seed (`r` in Table I).
    pub seed: i32,
    /// SHA evaluations per node creation (Figure 16 granularity knob).
    pub gen_rounds: u32,
    /// Simulated nanoseconds to process one node at one SHA round.
    pub base_node_ns: u64,
}

impl Workload {
    /// Simulated cost of processing one node, scaling linearly with the
    /// granularity knob: each extra SHA round adds one round's worth of
    /// compute.
    #[inline]
    pub fn node_ns(&self) -> u64 {
        self.base_node_ns * self.gen_rounds as u64
    }

    /// Same workload with a different granularity (Figure 16 sweeps
    /// this from 1 to 24).
    pub fn with_gen_rounds(mut self, rounds: u32) -> Self {
        assert!(rounds > 0, "granularity must be at least one round");
        self.gen_rounds = rounds;
        self
    }
}

fn binomial(name: &'static str, seed: i32, b0: u32, m: u32, q: f64) -> Workload {
    Workload {
        name,
        spec: TreeSpec::Binomial { b0, m, q },
        seed,
        gen_rounds: 1,
        base_node_ns: K_NODE_NS,
    }
}

/// Paper Table I parameters for T3XXL (`b0=2000, m=2, q=0.499995`,
/// seed 316), which the paper uses for its 8–128 rank runs.
///
/// Upstream realizes 2,793,220,501 nodes; **this implementation
/// realizes 7,212,005** (leaves 3,607,002, depth 3,596). Near-critical
/// binomial trees have heavy-tailed realized sizes that depend on the
/// exact RNG bit stream, and our SHA-1 state construction is not
/// bit-identical to the C `brg_sha1` wrapper. The tree regime — same
/// `b0`, `m`, `q`, hence the same imbalance statistics — is preserved,
/// which is what the load-balancing study needs. See EXPERIMENTS.md.
pub fn t3xxl() -> Workload {
    binomial("T3XXL", 316, 2000, 2, 0.499995)
}

/// Paper Table I parameters for T3WL (`b0=2000, m=2, q=0.4999995`,
/// seed 559), the paper's 1,024–8,192 rank input.
///
/// Upstream realizes 157,063,495,159 nodes; **this implementation
/// realizes 24,578,855** (leaves 12,290,427, depth 11,953) — see
/// [`t3xxl`] for why realized sizes differ. Conveniently, this makes
/// the paper's large-scale input directly searchable inside the
/// simulator.
pub fn t3wl() -> Workload {
    binomial("T3WL", 559, 2000, 2, 0.4999995)
}

/// A geometric tree with linear thinning, in the spirit of the upstream
/// UTS sample tree T1. Sizes differ from upstream because our geometric
/// shape constants are not bit-identical to the C implementation; the
/// paper's experiments use binomial trees only, so nothing downstream
/// depends on matching upstream geometric sizes.
pub fn t1() -> Workload {
    Workload {
        name: "T1",
        spec: TreeSpec::Geometric {
            b0: 4.0,
            gen_mx: 10,
            shape: GeoShape::Linear,
        },
        seed: 19,
        gen_rounds: 1,
        base_node_ns: K_NODE_NS,
    }
}

/// A binomial tree with the upstream UTS sample-tree T3 parameters
/// (`b0=2000, m=8, q=0.124875`, seed 42).
pub fn t3() -> Workload {
    binomial("T3", 42, 2000, 8, 0.124875)
}

/// Scaled T3-family tree, extra small: expected ≈ 4 k nodes.
/// Same binomial regime as T3XXL with the size knob turned down.
pub fn t3sim_xs() -> Workload {
    binomial("T3SIM-XS", 316, 200, 2, 0.475)
}

/// Scaled T3-family tree, small: expected ≈ 25 k nodes.
pub fn t3sim_s() -> Workload {
    binomial("T3SIM-S", 316, 500, 2, 0.49)
}

/// Scaled T3-family tree, medium: expected ≈ 200 k nodes.
pub fn t3sim_m() -> Workload {
    binomial("T3SIM-M", 316, 2000, 2, 0.49)
}

/// Scaled T3-family tree, large: expected ≈ 2 M nodes.
pub fn t3sim_l() -> Workload {
    binomial("T3SIM-L", 316, 2000, 2, 0.499)
}

/// Scaled T3-family tree, extra large: expected ≈ 10 M nodes.
pub fn t3sim_xl() -> Workload {
    binomial("T3SIM-XL", 316, 2000, 2, 0.4998)
}

/// A hybrid tree (geometric crown, binomial fringe) in the spirit of
/// the upstream T4 sample: bushy near the root, then near-critical
/// chains below — a different imbalance profile than pure binomial.
/// Realizes 11,725,499 nodes (depth 425) under this implementation.
pub fn t4sim() -> Workload {
    Workload {
        name: "T4SIM",
        spec: TreeSpec::Hybrid {
            b0: 6.0,
            gen_mx: 16,
            shape: GeoShape::Linear,
            shift_depth: 0.5,
            m: 2,
            q: 0.49,
        },
        seed: 1,
        gen_rounds: 1,
        base_node_ns: K_NODE_NS,
    }
}

/// All presets, for table generation.
pub fn all() -> Vec<Workload> {
    vec![
        t1(),
        t3(),
        t4sim(),
        t3xxl(),
        t3wl(),
        t3sim_xs(),
        t3sim_s(),
        t3sim_m(),
        t3sim_l(),
        t3sim_xl(),
    ]
}

/// Look a preset up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Workload> {
    all()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trees_match_table_one() {
        let xxl = t3xxl();
        match xxl.spec {
            TreeSpec::Binomial { b0, m, q } => {
                assert_eq!((b0, m), (2000, 2));
                assert!((q - 0.499995).abs() < 1e-12);
            }
            _ => panic!("T3XXL must be binomial"),
        }
        assert_eq!(xxl.seed, 316);
        let wl = t3wl();
        assert_eq!(wl.seed, 559);
    }

    #[test]
    fn sim_presets_are_subcritical_and_ordered() {
        let sizes: Vec<f64> = [t3sim_xs(), t3sim_s(), t3sim_m(), t3sim_l(), t3sim_xl()]
            .iter()
            .map(|w| {
                let per = w
                    .spec
                    .expected_binomial_subtree()
                    .expect("sim presets are subcritical");
                match w.spec {
                    TreeSpec::Binomial { b0, .. } => b0 as f64 * per,
                    _ => unreachable!(),
                }
            })
            .collect();
        for pair in sizes.windows(2) {
            assert!(pair[0] < pair[1], "presets must grow: {sizes:?}");
        }
    }

    #[test]
    fn node_cost_scales_with_granularity() {
        let w = t3sim_s();
        assert_eq!(w.node_ns(), K_NODE_NS);
        assert_eq!(w.with_gen_rounds(8).node_ns(), 8 * K_NODE_NS);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("t3xxl").expect("exists").name, "T3XXL");
        assert_eq!(by_name("T3SIM-S").expect("exists").name, "T3SIM-S");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn all_presets_pass_check() {
        for w in all() {
            w.spec.check().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_granularity_rejected() {
        t1().with_gen_rounds(0);
    }
}
