//! A placed job: machine + allocation + rank mapping + latency model.
//!
//! [`Job`] is the interface the simulator and the work-stealing runtime
//! consume: it answers "where does rank *i* live", "how far is rank *i*
//! from rank *j*" (the paper's `e(i, j)`), and "how long does a
//! `bytes`-sized message from *i* to *j* take".
//!
//! Per-rank coordinates are cached at construction so that the O(N²)
//! weight computation of the distance-skewed victim selector stays
//! cheap even at 8,192 ranks.

use crate::allocation::{AllocationPolicy, JobAllocation};
use crate::coord::{TofuCoord, NODES_PER_CUBE};
use crate::latency::{LatencyModel, LatencyParams};
use crate::machine::{Machine, NodeId};
use crate::mapping::{Rank, RankMapping};
use std::sync::OnceLock;

/// Certificate that a placed job is invariant under torus translation:
/// every cube of the machine hosts the *same* intra-cube slot set, and
/// every occupied node hosts the same number of ranks. Under this
/// symmetry the Euclidean distance `e(i, j)` depends only on the
/// observer's intra-cube slot, the cube-coordinate offset, and the
/// target's intra-cube slot — so one alias table per observer slot
/// class serves every rank (see the distance-skewed victim selector).
#[derive(Debug, Clone)]
pub struct TorusSymmetry {
    /// Occupied intra-cube slot indices (ascending), identical in every
    /// cube. At most [`NODES_PER_CUBE`] entries.
    pub slots: Vec<u16>,
    /// Ranks hosted by every occupied node (uniform across the job).
    pub ppn: u32,
    /// All ranks, grouped `[cube][slot][k]`: the rank at
    /// `(cube_idx * slots.len() + slot_pos) * ppn + k`, with ranks
    /// ascending within each node cell. `cube_idx` is the machine's
    /// dense cube index (x fastest, then y, then z).
    pub ranks: Vec<Rank>,
    /// For each rank: its `(cube_idx, slot_pos, k)` position in the
    /// grouping above.
    pub rank_cell: Vec<(u32, u32, u32)>,
}

/// A job placed on a machine, ready to be simulated.
#[derive(Debug, Clone)]
pub struct Job {
    machine: Machine,
    mapping: RankMapping,
    latency: LatencyModel,
    /// Physical node of each rank.
    rank_nodes: Vec<NodeId>,
    /// Cached coordinate of each rank's node.
    rank_coords: Vec<TofuCoord>,
    /// Lazily computed torus-translation symmetry certificate.
    symmetry: OnceLock<Option<TorusSymmetry>>,
}

impl Job {
    /// Place a job: allocate `n_nodes` nodes under `alloc_policy`, then
    /// map `mapping.rank_count(n_nodes)` ranks onto them.
    pub fn place(
        machine: Machine,
        n_nodes: u32,
        alloc_policy: AllocationPolicy,
        mapping: RankMapping,
        latency: LatencyParams,
    ) -> Self {
        let alloc = JobAllocation::allocate(&machine, n_nodes, alloc_policy);
        mapping.check(&alloc).expect("invalid mapping");
        let slots = mapping.slots(n_nodes);
        let rank_nodes: Vec<NodeId> = slots.iter().map(|&s| alloc.node(s)).collect();
        let rank_coords = rank_nodes.iter().map(|&n| machine.coord(n)).collect();
        Self {
            machine,
            mapping,
            latency: LatencyModel::new(latency),
            rank_nodes,
            rank_coords,
            symmetry: OnceLock::new(),
        }
    }

    /// Convenience: a compact-rectangle job on a machine sized to fit,
    /// with default latencies — the common case in examples and tests.
    pub fn compact(n_nodes: u32, mapping: RankMapping) -> Self {
        let machine = if n_nodes <= Machine::k_computer().node_count() {
            Machine::k_computer()
        } else {
            Machine::with_capacity(n_nodes)
        };
        Self::place(
            machine,
            n_nodes,
            AllocationPolicy::CompactRectangle,
            mapping,
            LatencyParams::default(),
        )
    }

    /// Number of ranks in the job.
    #[inline]
    pub fn n_ranks(&self) -> u32 {
        self.rank_nodes.len() as u32
    }

    /// Number of distinct physical nodes used.
    pub fn n_nodes(&self) -> u32 {
        let mut nodes = self.rank_nodes.clone();
        nodes.sort();
        nodes.dedup();
        nodes.len() as u32
    }

    /// The machine this job runs on.
    #[inline]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The rank mapping in force.
    #[inline]
    pub fn mapping(&self) -> RankMapping {
        self.mapping
    }

    /// Physical node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.rank_nodes[rank as usize]
    }

    /// Tofu coordinate of `rank`'s node.
    #[inline]
    pub fn coord_of(&self, rank: Rank) -> TofuCoord {
        self.rank_coords[rank as usize]
    }

    /// True iff the two ranks share a physical node.
    #[inline]
    pub fn same_node(&self, i: Rank, j: Rank) -> bool {
        self.rank_nodes[i as usize] == self.rank_nodes[j as usize]
    }

    /// The paper's `e(i, j)`: Euclidean distance between the ranks'
    /// nodes in 6-D Tofu space (0.0 when they share a node).
    #[inline]
    pub fn euclidean(&self, i: Rank, j: Rank) -> f64 {
        (self.euclidean_sq(i, j) as f64).sqrt()
    }

    /// `e(i, j)²`, exact in integers.
    #[inline]
    pub fn euclidean_sq(&self, i: Rank, j: Rank) -> u64 {
        self.rank_coords[i as usize]
            .euclidean_sq(&self.rank_coords[j as usize], self.machine.dims())
    }

    /// Network hops between the ranks' nodes.
    #[inline]
    pub fn hops(&self, i: Rank, j: Rank) -> u32 {
        self.rank_coords[i as usize].hops(&self.rank_coords[j as usize], self.machine.dims())
    }

    /// One-way message latency in nanoseconds from rank `i` to rank `j`
    /// for a `bytes`-sized payload.
    #[inline]
    pub fn latency_ns(&self, i: Rank, j: Rank, bytes: usize) -> u64 {
        self.latency.latency_ns(
            &self.machine,
            self.rank_coords[i as usize],
            self.rank_coords[j as usize],
            bytes,
        )
    }

    /// The latency model in force.
    #[inline]
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The job's torus-translation symmetry certificate, if it has one
    /// (computed once, cached). Present iff every cube of the machine
    /// hosts the same non-empty intra-cube slot set and every occupied
    /// node hosts the same number of ranks — the precondition for
    /// sharing one distance-skew alias table per slot class.
    pub fn torus_symmetry(&self) -> Option<&TorusSymmetry> {
        self.symmetry
            .get_or_init(|| self.detect_symmetry())
            .as_ref()
    }

    fn detect_symmetry(&self) -> Option<TorusSymmetry> {
        let n = self.n_ranks();
        if n < 2 {
            return None;
        }
        let (dx, dy, dz) = self.machine.dims();
        let cubes = dx as u32 * dy as u32 * dz as u32;
        // Ranks hosted per node, dense over the machine.
        let mut per_node = vec![0u32; self.machine.node_count() as usize];
        for nd in &self.rank_nodes {
            per_node[nd.index()] += 1;
        }
        // Slot set and ppn of cube 0 set the pattern.
        let slots: Vec<u16> = (0..NODES_PER_CUBE)
            .filter(|&s| per_node[s as usize] > 0)
            .map(|s| s as u16)
            .collect();
        if slots.is_empty() {
            return None;
        }
        let ppn = per_node[slots[0] as usize];
        // Every cube must repeat it exactly.
        for cube in 0..cubes {
            for s in 0..NODES_PER_CUBE {
                let expect = if slots.contains(&(s as u16)) { ppn } else { 0 };
                if per_node[(cube * NODES_PER_CUBE + s) as usize] != expect {
                    return None;
                }
            }
        }
        debug_assert_eq!(cubes * slots.len() as u32 * ppn, n);
        // Group ranks into [cube][slot][k] cells, ascending within each.
        let cells = (cubes as usize) * slots.len();
        let mut ranks = vec![0 as Rank; n as usize];
        let mut rank_cell = vec![(0u32, 0u32, 0u32); n as usize];
        let mut cursor = vec![0u32; cells];
        let mut slot_pos = [u32::MAX; NODES_PER_CUBE as usize];
        for (pos, &s) in slots.iter().enumerate() {
            slot_pos[s as usize] = pos as u32;
        }
        for rank in 0..n {
            let node = self.rank_nodes[rank as usize].0;
            let cube = node / NODES_PER_CUBE;
            let pos = slot_pos[(node % NODES_PER_CUBE) as usize];
            let cell = cube as usize * slots.len() + pos as usize;
            let k = cursor[cell];
            cursor[cell] += 1;
            ranks[cell * ppn as usize + k as usize] = rank;
            rank_cell[rank as usize] = (cube, pos, k);
        }
        Some(TorusSymmetry {
            slots,
            ppn,
            ranks,
            rank_cell,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_one_job_has_n_ranks_on_n_nodes() {
        let job = Job::compact(128, RankMapping::OneToOne);
        assert_eq!(job.n_ranks(), 128);
        assert_eq!(job.n_nodes(), 128);
        for i in 0..127 {
            assert!(!job.same_node(i, i + 1));
        }
    }

    #[test]
    fn grouped_job_shares_nodes_in_blocks() {
        let job = Job::compact(16, RankMapping::Grouped { ppn: 8 });
        assert_eq!(job.n_ranks(), 128);
        assert_eq!(job.n_nodes(), 16);
        assert!(job.same_node(0, 7));
        assert!(!job.same_node(7, 8));
        assert_eq!(job.euclidean(0, 7), 0.0);
    }

    #[test]
    fn round_robin_job_separates_neighbours() {
        let job = Job::compact(16, RankMapping::RoundRobin { ppn: 8 });
        assert_eq!(job.n_ranks(), 128);
        // Rank i and i+16 share a node; i and i+1 never do.
        assert!(job.same_node(0, 16));
        for i in 0..127 {
            assert!(!job.same_node(i, i + 1), "ranks {i},{} colocated", i + 1);
        }
    }

    #[test]
    fn latency_respects_colocation() {
        let job = Job::compact(16, RankMapping::Grouped { ppn: 8 });
        let close = job.latency_ns(0, 1, 64);
        let far = job.latency_ns(0, 127, 64);
        assert!(
            close < far,
            "same-node {close} should beat cross-node {far}"
        );
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_diagonal() {
        let job = Job::compact(64, RankMapping::OneToOne);
        for i in (0..64).step_by(7) {
            assert_eq!(job.euclidean(i, i), 0.0);
            for j in (0..64).step_by(11) {
                assert_eq!(job.euclidean(i, j), job.euclidean(j, i));
                assert_eq!(job.hops(i, j), job.hops(j, i));
            }
        }
    }

    #[test]
    fn torus_fill_job_is_symmetric_and_compact_is_not() {
        let machine = crate::Machine::torus_for_nodes(96);
        let job = Job::place(
            machine,
            96,
            AllocationPolicy::TorusFill,
            RankMapping::OneToOne,
            LatencyParams::default(),
        );
        let sym = job.torus_symmetry().expect("TorusFill is symmetric");
        assert_eq!(sym.ppn, 1);
        assert_eq!(sym.ranks.len(), 96);
        let cubes = 96 / sym.slots.len() as u32;
        // Every rank's cell round-trips through the grouping.
        for rank in 0..96u32 {
            let (cube, pos, k) = sym.rank_cell[rank as usize];
            assert!(cube < cubes);
            let idx =
                (cube as usize * sym.slots.len() + pos as usize) * sym.ppn as usize + k as usize;
            assert_eq!(sym.ranks[idx], rank);
        }
        // A compact sub-box of the K machine has no such symmetry.
        let compact = Job::compact(96, RankMapping::OneToOne);
        assert!(compact.torus_symmetry().is_none());
    }

    #[test]
    fn torus_fill_symmetry_survives_grouped_mapping() {
        let machine = crate::Machine::torus_for_nodes(48);
        let job = Job::place(
            machine,
            48,
            AllocationPolicy::TorusFill,
            RankMapping::Grouped { ppn: 4 },
            LatencyParams::default(),
        );
        let sym = job.torus_symmetry().expect("uniform ppn keeps symmetry");
        assert_eq!(sym.ppn, 4);
        assert_eq!(sym.ranks.len(), 192);
        // Ranks within one node cell are ascending.
        let (cube, pos, k) = sym.rank_cell[5];
        assert_eq!(k, 1, "grouped mapping packs ranks 4..8 on node 1");
        let base = (cube as usize * sym.slots.len() + pos as usize) * 4;
        assert!(sym.ranks[base..base + 4].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn compact_falls_back_to_bigger_machine() {
        // More nodes than the K Computer: must still place.
        let job = Job::compact(90_000, RankMapping::OneToOne);
        assert_eq!(job.n_ranks(), 90_000);
    }
}
