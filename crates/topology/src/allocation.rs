//! Physical node allocation policies.
//!
//! On the K Computer the job scheduler owns physical placement: the
//! paper notes it "tends to distribute nodes in a 3D rectangle
//! minimizing the average number of hops between processes".
//! [`AllocationPolicy::CompactRectangle`] reproduces that behaviour;
//! the alternatives exist for ablation experiments (what happens to the
//! victim-selection strategies when the allocation is a long strip or a
//! random scatter).

use crate::machine::{Machine, NodeId};

/// How a job's nodes are chosen from the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// A near-cubic box of Tofu cubes, as the K scheduler produces.
    CompactRectangle,
    /// Nodes taken in dense id order — a long, thin strip along `x`.
    /// Worst-case average distance; used by ablations.
    LinearStrip,
    /// A deterministic pseudo-random scatter across the whole machine
    /// (seeded), modelling a fragmented machine. Used by ablations.
    Scattered {
        /// Seed of the deterministic shuffle.
        seed: u64,
    },
    /// Fill *every* cube of the machine with the same leading intra-cube
    /// slots (`count / cube_count` of them). The placement is then
    /// invariant under torus translation, which lets the distance-skewed
    /// victim selector share one offset-alias table across all ranks.
    /// Pair with [`Machine::torus_for_nodes`] to size the machine.
    TorusFill,
}

/// A set of physical nodes granted to one job, in allocation order.
///
/// Allocation order is meaningful: rank-mapping policies assign MPI
/// ranks to nodes in this order, so `nodes[0]` hosts the lowest ranks.
#[derive(Debug, Clone)]
pub struct JobAllocation {
    nodes: Vec<NodeId>,
}

impl JobAllocation {
    /// Allocate `count` nodes from `machine` under `policy`.
    ///
    /// # Panics
    /// Panics if `count` is zero or exceeds the machine size.
    pub fn allocate(machine: &Machine, count: u32, policy: AllocationPolicy) -> Self {
        assert!(count > 0, "cannot allocate zero nodes");
        assert!(
            count <= machine.node_count(),
            "requested {count} nodes but machine has {}",
            machine.node_count()
        );
        let nodes = match policy {
            AllocationPolicy::CompactRectangle => compact_rectangle(machine, count),
            AllocationPolicy::LinearStrip => (0..count).map(NodeId).collect(),
            AllocationPolicy::Scattered { seed } => scattered(machine, count, seed),
            AllocationPolicy::TorusFill => torus_fill(machine, count),
        };
        debug_assert_eq!(nodes.len(), count as usize);
        Self { nodes }
    }

    /// Number of allocated nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the allocation is empty (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node hosting slot `i` of the allocation.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// All allocated nodes in allocation order.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// Choose a near-cubic box of cubes covering `count` nodes, then emit
/// nodes cube by cube in a locality-preserving order.
fn compact_rectangle(machine: &Machine, count: u32) -> Vec<NodeId> {
    let (mx, my, mz) = machine.dims();
    let cubes_needed = count.div_ceil(crate::coord::NODES_PER_CUBE);
    let (bx, by, bz) = best_box(cubes_needed, (mx, my, mz));
    let mut nodes = Vec::with_capacity(count as usize);
    'outer: for z in 0..bz {
        for y in 0..by {
            for x in 0..bx {
                for b in 0..crate::coord::CUBE_B {
                    for a in 0..crate::coord::CUBE_A {
                        for c in 0..crate::coord::CUBE_C {
                            nodes.push(
                                machine.node_id(crate::coord::TofuCoord::new(x, y, z, a, b, c)),
                            );
                            if nodes.len() == count as usize {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
    }
    nodes
}

/// Find box dimensions (in cubes) with `bx*by*bz >= cubes` minimizing
/// the box's "diameter" `bx+by+bz` (a proxy for average hops), breaking
/// ties toward balanced shapes, subject to machine extents.
fn best_box(cubes: u32, max: (u16, u16, u16)) -> (u16, u16, u16) {
    let mut best: Option<((u16, u16, u16), u32, u32)> = None;
    for bx in 1..=max.0 {
        // Early prune: even the full remaining area cannot cover.
        if (bx as u32) * (max.1 as u32) * (max.2 as u32) < cubes {
            continue;
        }
        for by in 1..=max.1 {
            if (bx as u32) * (by as u32) * (max.2 as u32) < cubes {
                continue;
            }
            let bz_needed = cubes.div_ceil((bx as u32) * (by as u32));
            if bz_needed > max.2 as u32 {
                continue;
            }
            let bz = bz_needed as u16;
            let perim = bx as u32 + by as u32 + bz as u32;
            let waste = (bx as u32) * (by as u32) * (bz as u32) - cubes;
            let cand = ((bx, by, bz), perim, waste);
            best = Some(match best {
                None => cand,
                Some(cur) => {
                    if (perim, waste) < (cur.1, cur.2) {
                        cand
                    } else {
                        cur
                    }
                }
            });
        }
    }
    best.expect("machine large enough checked by caller").0
}

/// Give every cube of the machine the same `count / cube_count` leading
/// intra-cube slots, cube by cube in dense id order.
fn torus_fill(machine: &Machine, count: u32) -> Vec<NodeId> {
    let cubes = machine.node_count() / crate::coord::NODES_PER_CUBE;
    assert!(
        count.is_multiple_of(cubes),
        "TorusFill needs a node count ({count}) divisible by the \
         machine's cube count ({cubes}); size the machine with \
         Machine::torus_for_nodes"
    );
    let per_cube = count / cubes;
    let mut nodes = Vec::with_capacity(count as usize);
    for cube in 0..cubes {
        for slot in 0..per_cube {
            nodes.push(NodeId(cube * crate::coord::NODES_PER_CUBE + slot));
        }
    }
    nodes
}

/// Deterministic Fisher–Yates scatter using SplitMix64.
fn scattered(machine: &Machine, count: u32, seed: u64) -> Vec<NodeId> {
    let mut all: Vec<NodeId> = machine.nodes().collect();
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n = all.len();
    for i in 0..(count as usize).min(n - 1) {
        let j = i + (next() % (n - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(count as usize);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_allocation_has_right_size_and_unique_nodes() {
        let m = Machine::small();
        for count in [1u32, 11, 12, 13, 100, 576] {
            let a = JobAllocation::allocate(&m, count, AllocationPolicy::CompactRectangle);
            assert_eq!(a.len(), count as usize);
            let mut seen = a.nodes().to_vec();
            seen.sort();
            seen.dedup();
            assert_eq!(
                seen.len(),
                count as usize,
                "duplicate nodes for count {count}"
            );
        }
    }

    #[test]
    fn compact_is_denser_than_strip_on_k() {
        let m = Machine::k_computer();
        let compact = JobAllocation::allocate(&m, 1024, AllocationPolicy::CompactRectangle);
        let strip = JobAllocation::allocate(&m, 1024, AllocationPolicy::LinearStrip);
        let average_hops = |a: &JobAllocation| {
            let nodes = a.nodes();
            let (mut total, mut pairs) = (0u64, 0u64);
            for (i, &x) in nodes.iter().enumerate() {
                for &y in &nodes[i + 1..] {
                    total += u64::from(m.hops(x, y));
                    pairs += 1;
                }
            }
            total as f64 / pairs as f64
        };
        let ch = average_hops(&compact);
        let sh = average_hops(&strip);
        assert!(
            ch < sh,
            "compact allocation should have lower average hops ({ch} vs {sh})"
        );
    }

    #[test]
    fn best_box_is_balanced() {
        // 86 cubes (1024 nodes); expect something near 4x4x6, not 1x1x86.
        let (bx, by, bz) = best_box(86, (24, 18, 16));
        assert!((bx as u32) * (by as u32) * (bz as u32) >= 86);
        assert!(bx.max(by).max(bz) <= 8, "box too elongated: {bx}x{by}x{bz}");
    }

    #[test]
    fn scattered_is_deterministic_per_seed() {
        let m = Machine::small();
        let a = JobAllocation::allocate(&m, 64, AllocationPolicy::Scattered { seed: 7 });
        let b = JobAllocation::allocate(&m, 64, AllocationPolicy::Scattered { seed: 7 });
        let c = JobAllocation::allocate(&m, 64, AllocationPolicy::Scattered { seed: 8 });
        assert_eq!(a.nodes(), b.nodes());
        assert_ne!(a.nodes(), c.nodes());
        let mut uniq = a.nodes().to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 64);
    }

    #[test]
    #[should_panic(expected = "cannot allocate zero nodes")]
    fn rejects_zero_allocation() {
        JobAllocation::allocate(&Machine::small(), 0, AllocationPolicy::LinearStrip);
    }

    #[test]
    #[should_panic(expected = "machine has")]
    fn rejects_oversized_allocation() {
        JobAllocation::allocate(&Machine::one_cube(), 13, AllocationPolicy::LinearStrip);
    }
}
