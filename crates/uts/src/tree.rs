//! Tree node representation and child generation.
//!
//! A UTS tree is *implicit*: a node is just its random state plus its
//! depth, and "each node in the tree contains all the information
//! required to generate its children" (paper §II). This module defines
//! the node type and the tree-shape specifications (binomial,
//! geometric, hybrid) that map a node to its child count.

use crate::rng::{RngState, RAND_RANGE, STATE_WIRE_BYTES};

/// One work item: a tree node awaiting expansion.
///
/// `Default` (zero state, height 0) is a placeholder used only to
/// pre-initialize container slots; it never appears in a real tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Node {
    /// Splittable random state identifying this node.
    pub state: RngState,
    /// Depth below the root (root = 0).
    pub height: u32,
}

/// Serialized wire size of a node: state + height. Used by the
/// simulator to account steal-message transfer time.
pub const NODE_WIRE_BYTES: usize = STATE_WIRE_BYTES + 4;

/// Shape function of geometric trees: how the expected branching factor
/// varies with depth (UTS `geoshape_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoShape {
    /// Constant branching factor up to the depth cutoff.
    Fixed,
    /// Branching factor decreases linearly, reaching zero at `gen_mx`.
    Linear,
    /// Branching factor oscillates with depth (period `gen_mx`).
    Cyclic,
}

/// A tree-shape specification: everything needed to expand any node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeSpec {
    /// Binomial tree: the root has `b0` children; every other node has
    /// `m` children with probability `q` and none otherwise. Expected
    /// subtree size below each root child is `1 / (1 − m·q)` for
    /// `m·q < 1`, so `q → (1/m)⁻` produces deep, wildly unbalanced
    /// trees (paper §II: "subtrees will vary greatly in size").
    Binomial {
        /// Root branching factor.
        b0: u32,
        /// Non-root branching factor (children on success).
        m: u32,
        /// Probability a non-root node has children.
        q: f64,
    },
    /// Geometric tree: each node's child count is geometrically
    /// distributed with a depth-dependent mean `b(d)` shaped by
    /// `shape`; no node deeper than `gen_mx` has children.
    Geometric {
        /// Branching factor at the root.
        b0: f64,
        /// Depth horizon.
        gen_mx: u32,
        /// Shape of `b(d)`.
        shape: GeoShape,
    },
    /// Hybrid: geometric above `shift_depth × gen_mx`, binomial below.
    Hybrid {
        /// Geometric branching factor at the root.
        b0: f64,
        /// Depth horizon of the geometric part.
        gen_mx: u32,
        /// Shape of the geometric part.
        shape: GeoShape,
        /// Fraction of `gen_mx` at which to switch to binomial.
        shift_depth: f64,
        /// Binomial branching factor below the shift.
        m: u32,
        /// Binomial success probability below the shift.
        q: f64,
    },
}

impl TreeSpec {
    /// Build the root node for `seed`.
    pub fn root(&self, seed: i32) -> Node {
        Node {
            state: RngState::from_seed(seed),
            height: 0,
        }
    }

    /// Number of children of `node` under this specification.
    ///
    /// Deterministic: derived entirely from the node's state and depth.
    pub fn num_children(&self, node: &Node) -> u32 {
        match *self {
            TreeSpec::Binomial { b0, m, q } => {
                if node.height == 0 {
                    b0
                } else {
                    binomial_children(node, m, q)
                }
            }
            TreeSpec::Geometric { b0, gen_mx, shape } => {
                geometric_children(node, b0, gen_mx, shape)
            }
            TreeSpec::Hybrid {
                b0,
                gen_mx,
                shape,
                shift_depth,
                m,
                q,
            } => {
                let shift = (shift_depth * gen_mx as f64) as u32;
                if node.height < shift {
                    geometric_children(node, b0, gen_mx, shape)
                } else {
                    binomial_children(node, m, q)
                }
            }
        }
    }

    /// Expand `node`: decide its child count once and hand the
    /// children to `sink` in index order, doing `gen_rounds` SHA
    /// evaluations per child (the granularity knob of Figure 16).
    /// Returns the number of children.
    ///
    /// Children are hashed two siblings at a time
    /// ([`RngState::spawn_pair`]), an odd last one alone; every state is
    /// the one [`RngState::spawn`] gives for its index.
    pub fn expand(&self, node: &Node, gen_rounds: u32, mut sink: impl FnMut(Node)) -> u32 {
        let n = self.num_children(node);
        let height = node.height + 1;
        for first in (0..n - n % 2).step_by(2) {
            for state in node.state.spawn_pair(first, gen_rounds) {
                sink(Node { state, height });
            }
        }
        if n % 2 == 1 {
            let state = node.state.spawn(n - 1, gen_rounds);
            sink(Node { state, height });
        }
        n
    }

    /// Generate the children of `node` into `out` (cleared first):
    /// [`expand`](Self::expand) with a `Vec` as the sink.
    pub fn children_into(&self, node: &Node, gen_rounds: u32, out: &mut Vec<Node>) -> u32 {
        out.clear();
        self.expand(node, gen_rounds, |child| out.push(child))
    }

    /// Validate parameters (probabilities in range, non-divergence is
    /// *not* required — UTS trees may be supercritical, but we reject
    /// plainly meaningless inputs).
    pub fn check(&self) -> Result<(), String> {
        match *self {
            TreeSpec::Binomial { b0, m, q } => {
                if !(0.0..=1.0).contains(&q) {
                    return Err(format!("binomial q={q} outside [0,1]"));
                }
                if b0 == 0 {
                    return Err("binomial b0 must be positive".into());
                }
                if m == 0 && q > 0.0 {
                    return Err("binomial m=0 with q>0 is degenerate".into());
                }
                Ok(())
            }
            TreeSpec::Geometric { b0, gen_mx, .. } => {
                if b0 <= 0.0 {
                    return Err(format!("geometric b0={b0} must be positive"));
                }
                if gen_mx == 0 {
                    return Err("geometric gen_mx must be positive".into());
                }
                Ok(())
            }
            TreeSpec::Hybrid {
                b0,
                gen_mx,
                shift_depth,
                q,
                ..
            } => {
                if b0 <= 0.0 || gen_mx == 0 {
                    return Err("hybrid geometric part invalid".into());
                }
                if !(0.0..=1.0).contains(&shift_depth) {
                    return Err(format!("hybrid shift_depth={shift_depth} outside [0,1]"));
                }
                if !(0.0..=1.0).contains(&q) {
                    return Err(format!("hybrid q={q} outside [0,1]"));
                }
                Ok(())
            }
        }
    }

    /// Expected subtree size per root child for binomial trees
    /// (`1/(1−m·q)`), `None` for supercritical or non-binomial specs.
    /// Used to size experiments.
    pub fn expected_binomial_subtree(&self) -> Option<f64> {
        match *self {
            TreeSpec::Binomial { m, q, .. } => {
                let mq = m as f64 * q;
                (mq < 1.0).then(|| 1.0 / (1.0 - mq))
            }
            _ => None,
        }
    }
}

/// Binomial child count: `m` with probability `q`, else 0 (UTS
/// `uts_numChildren_bin`): draw the node's 31-bit value and compare
/// against `q` scaled to that range.
fn binomial_children(node: &Node, m: u32, q: f64) -> u32 {
    let v = node.state.rand() as f64;
    if v < q * RAND_RANGE {
        m
    } else {
        0
    }
}

/// Geometric child count with depth-dependent mean (UTS
/// `uts_numChildren_geo`).
fn geometric_children(node: &Node, b0: f64, gen_mx: u32, shape: GeoShape) -> u32 {
    let depth = node.height;
    if depth >= gen_mx {
        return 0;
    }
    let d = depth as f64;
    let h = gen_mx as f64;
    let b_i = match shape {
        GeoShape::Fixed => b0,
        GeoShape::Linear => b0 * (1.0 - d / h),
        GeoShape::Cyclic => {
            if d > 5.0 * h {
                0.0
            } else {
                b0 * (2.0f64).powf((std::f64::consts::TAU * d / h).sin())
            }
        }
    };
    if b_i <= 0.0 {
        return 0;
    }
    // Geometric distribution with mean b_i: p = 1/(1+b_i);
    // X = floor(ln(1-u) / ln(1-p)).
    let p = 1.0 / (1.0 + b_i);
    let u = node.state.to_prob();
    ((1.0 - u).ln() / (1.0 - p).ln()).floor() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(q: f64) -> TreeSpec {
        TreeSpec::Binomial { b0: 4, m: 2, q }
    }

    #[test]
    fn binomial_root_has_b0_children() {
        let spec = bin(0.2);
        let root = spec.root(1);
        assert_eq!(spec.num_children(&root), 4);
    }

    #[test]
    fn binomial_children_are_m_or_zero() {
        let spec = bin(0.4);
        let root = spec.root(19);
        let mut kids = Vec::new();
        spec.children_into(&root, 1, &mut kids);
        let mut seen_m = false;
        let mut seen_zero = false;
        // Walk a few levels to observe both outcomes.
        let mut frontier = kids.clone();
        for _ in 0..8 {
            let mut next = Vec::new();
            for n in &frontier {
                let c = spec.num_children(n);
                assert!(c == 0 || c == 2, "unexpected child count {c}");
                if c == 2 {
                    seen_m = true;
                } else {
                    seen_zero = true;
                }
                let mut buf = Vec::new();
                spec.children_into(n, 1, &mut buf);
                next.extend(buf);
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        assert!(seen_m && seen_zero, "q=0.4 should show both outcomes");
    }

    #[test]
    fn binomial_extremes() {
        let always = bin(1.0);
        let never = bin(0.0);
        let root = always.root(3);
        let mut kids = Vec::new();
        always.children_into(&root, 1, &mut kids);
        for k in &kids {
            assert_eq!(always.num_children(k), 2, "q=1 must always branch");
            assert_eq!(never.num_children(k), 0, "q=0 must never branch");
        }
    }

    #[test]
    fn children_are_depth_incremented_and_distinct() {
        let spec = bin(0.5);
        let root = spec.root(42);
        let mut kids = Vec::new();
        spec.children_into(&root, 1, &mut kids);
        assert_eq!(kids.len(), 4);
        for k in &kids {
            assert_eq!(k.height, 1);
        }
        let mut states: Vec<_> = kids.iter().map(|k| *k.state.bytes()).collect();
        states.sort();
        states.dedup();
        assert_eq!(states.len(), 4, "sibling states must differ");
    }

    #[test]
    fn geometric_respects_depth_cutoff() {
        let spec = TreeSpec::Geometric {
            b0: 4.0,
            gen_mx: 3,
            shape: GeoShape::Fixed,
        };
        let deep = Node {
            state: RngState::from_seed(1),
            height: 3,
        };
        assert_eq!(spec.num_children(&deep), 0);
    }

    #[test]
    fn geometric_linear_thins_with_depth() {
        let spec_at = |h: u32| {
            // Average over many sibling states at the given height.
            let root = RngState::from_seed(99);
            let mut total = 0u64;
            let n = 500;
            for i in 0..n {
                let node = Node {
                    state: root.spawn(i, 1),
                    height: h,
                };
                total += TreeSpec::Geometric {
                    b0: 8.0,
                    gen_mx: 10,
                    shape: GeoShape::Linear,
                }
                .num_children(&node) as u64;
            }
            total as f64 / n as f64
        };
        let shallow = spec_at(1);
        let deep = spec_at(8);
        assert!(
            shallow > deep + 1.0,
            "linear shape should thin: depth1 {shallow} vs depth8 {deep}"
        );
    }

    #[test]
    fn hybrid_switches_regimes() {
        let spec = TreeSpec::Hybrid {
            b0: 4.0,
            gen_mx: 10,
            shape: GeoShape::Fixed,
            shift_depth: 0.5,
            m: 7,
            q: 1.0,
        };
        let below = Node {
            state: RngState::from_seed(5),
            height: 6,
        };
        // Below the shift with q=1: always exactly m children.
        assert_eq!(spec.num_children(&below), 7);
    }

    #[test]
    fn expected_subtree_math() {
        let spec = TreeSpec::Binomial {
            b0: 2000,
            m: 2,
            q: 0.499995,
        };
        let e = spec.expected_binomial_subtree().expect("subcritical");
        assert!(
            (e - 100_000.0).abs() < 1.0,
            "T3XXL subtree mean ~1e5, got {e}"
        );
        let sup = TreeSpec::Binomial {
            b0: 1,
            m: 2,
            q: 0.6,
        };
        assert!(sup.expected_binomial_subtree().is_none());
    }

    #[test]
    fn check_rejects_bad_parameters() {
        assert!(bin(1.5).check().is_err());
        assert!(TreeSpec::Binomial {
            b0: 0,
            m: 2,
            q: 0.5
        }
        .check()
        .is_err());
        assert!(TreeSpec::Geometric {
            b0: -1.0,
            gen_mx: 5,
            shape: GeoShape::Fixed
        }
        .check()
        .is_err());
        assert!(bin(0.5).check().is_ok());
    }

    #[test]
    fn expansion_equals_a_per_child_spawn_loop() {
        let parent = |seed: i32, height: u32| Node {
            state: RngState::from_seed(seed),
            height,
        };
        // Every parity and both ends of the pair loop: the root of a
        // binomial tree has exactly `b0` children.
        let mut cases: Vec<(TreeSpec, Node)> = [0, 1, 2, 3, 8, 2_000, 2_001]
            .into_iter()
            .map(|b0| (TreeSpec::Binomial { b0, m: 2, q: 0.4 }, parent(316, 0)))
            .collect();
        let geometric = TreeSpec::Geometric {
            b0: 6.0,
            gen_mx: 10,
            shape: GeoShape::Linear,
        };
        let hybrid = TreeSpec::Hybrid {
            b0: 5.0,
            gen_mx: 10,
            shape: GeoShape::Fixed,
            shift_depth: 0.5,
            m: 3,
            q: 0.6,
        };
        for seed in 0..40 {
            cases.push((geometric, parent(seed, 2)));
            // Both sides of the hybrid's switch at depth 5.
            cases.push((hybrid, parent(seed, 3)));
            cases.push((hybrid, parent(seed, 7)));
        }
        let mut counts = std::collections::BTreeSet::new();
        for (spec, node) in cases {
            for rounds in [1, 3] {
                let want: Vec<Node> = (0..spec.num_children(&node))
                    .map(|i| Node {
                        state: node.state.spawn(i, rounds),
                        height: node.height + 1,
                    })
                    .collect();
                let mut sunk = Vec::new();
                let n = spec.expand(&node, rounds, |child| sunk.push(child));
                assert_eq!(n as usize, want.len(), "{spec:?} at {node:?}");
                assert_eq!(sunk, want, "{spec:?} at {node:?}, {rounds} rounds");
                // `children_into` is the same routine and clears first.
                let mut out = vec![node; 3];
                assert_eq!(spec.children_into(&node, rounds, &mut out), n);
                assert_eq!(out, want);
                counts.insert(n);
            }
        }
        // The random specs must have exercised more than the empty case.
        assert!(counts.len() > 8, "child counts seen: {counts:?}");
    }

    #[test]
    fn gen_rounds_alter_subtree_identity() {
        let spec = bin(0.5);
        let root = spec.root(7);
        let mut r1 = Vec::new();
        let mut r4 = Vec::new();
        spec.children_into(&root, 1, &mut r1);
        spec.children_into(&root, 4, &mut r4);
        assert_eq!(r1.len(), r4.len());
        assert_ne!(r1[0].state, r4[0].state, "rounds are part of tree identity");
    }
}
