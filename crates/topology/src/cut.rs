//! The locality cut: where a placed job may be split for parallel
//! simulation, and how far apart in time the pieces are.
//!
//! A conservative parallel simulation advances its shards independently
//! inside windows no wider than the cheapest message that can pass
//! *between two shards*. The latency ladder `node < blade < cube < rack
//! < inter-rack` makes that bound a property of where the job is cut:
//! shards made of whole racks can only exchange inter-rack messages,
//! shards made of whole cubes nothing cheaper than a same-rack one, and
//! so on. [`Job::locality_cut`] picks the class, numbers its units so
//! that consecutive indices are physical neighbours, and reads the
//! bound off [`LatencyParams::min_crossing_ns`](crate::LatencyParams::min_crossing_ns).

use crate::job::Job;
use crate::mapping::Rank;

/// The hardware unit a job is cut along, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutClass {
    /// Whole racks (8 cubes along `z`); only inter-rack messages cross.
    Rack,
    /// Whole 2×3×2 cubes.
    Cube,
    /// Whole blades of four nodes.
    Blade,
    /// Single nodes: the finest cut that keeps a node's ranks (and its
    /// NIC state) together.
    Node,
}

impl CutClass {
    /// Every class, coarsest first — the order [`Job::locality_cut`]
    /// tries them in.
    pub const COARSEST_FIRST: [CutClass; 4] = [
        CutClass::Rack,
        CutClass::Cube,
        CutClass::Blade,
        CutClass::Node,
    ];

    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CutClass::Rack => "rack",
            CutClass::Cube => "cube",
            CutClass::Blade => "blade",
            CutClass::Node => "node",
        }
    }

    /// How many low bits of a node's locality key (see
    /// [`Job::locality_cut`]) lie below its unit of this class.
    fn key_shift(self) -> u32 {
        match self {
            CutClass::Rack => 64,
            CutClass::Cube => 48,
            CutClass::Blade => 32,
            CutClass::Node => 0,
        }
    }
}

/// A placed job cut along one hardware class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalityCut {
    /// The class the job is cut along.
    pub class: CutClass,
    /// Unit of each rank, dense in `0..n_units`. Consecutive indices
    /// are physical neighbours (racks column by column, cubes within a
    /// rack, blades within a cube), so a contiguous index range is a
    /// contiguous slab of the machine.
    pub unit_of_rank: Vec<u32>,
    /// Number of units of `class` the job occupies.
    pub n_units: u32,
    /// No message between ranks of different units takes less than this
    /// ([`LatencyParams::min_crossing_ns`](crate::LatencyParams::min_crossing_ns)
    /// of `class`).
    pub lookahead_ns: u64,
}

impl Job {
    /// Cut the job along the coarsest class — rack, cube, blade, node —
    /// in which it occupies at least `min_units` units (along nodes if
    /// none does). A function of the placement alone, so anything
    /// derived from it is the same for every host and thread count.
    pub fn locality_cut(&self, min_units: u32) -> LocalityCut {
        // Locality key of a rank's node, most significant first:
        // y, x, rack along z, z, blade (16 bits each), node id (32).
        // Each class's unit is a prefix of it, so sorting by the key
        // makes the units of every class contiguous runs, rack columns
        // first: racks stride `dx·dy` cubes apart in node-id order and
        // would not be.
        let mut ranks: Vec<(u128, Rank)> = (0..self.n_ranks())
            .map(|rank| {
                let c = self.coord_of(rank);
                let (_, _, rack_z) = self.machine().rack_of(c);
                let key = [c.y, c.x, rack_z, c.z, c.b]
                    .into_iter()
                    .fold(0u128, |key, part| key << 16 | part as u128);
                (key << 32 | self.node_of(rank).0 as u128, rank)
            })
            .collect();
        ranks.sort_unstable();
        // Units of `class` the job occupies: one per run of equal prefixes.
        let units_of = |class: CutClass| {
            let shift = class.key_shift();
            let steps = ranks
                .windows(2)
                .filter(|w| w[0].0 >> shift != w[1].0 >> shift);
            1 + steps.count() as u32
        };
        let class = CutClass::COARSEST_FIRST
            .into_iter()
            .find(|&class| units_of(class) >= min_units)
            .unwrap_or(CutClass::Node);
        let shift = class.key_shift();
        let mut unit_of_rank = vec![0u32; ranks.len()];
        let mut unit = 0u32;
        for (i, &(key, rank)) in ranks.iter().enumerate() {
            if i > 0 && ranks[i - 1].0 >> shift != key >> shift {
                unit += 1;
            }
            unit_of_rank[rank as usize] = unit;
        }
        LocalityCut {
            class,
            unit_of_rank,
            n_units: unit + 1,
            lookahead_ns: self.latency_model().params().min_crossing_ns(class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocationPolicy, LatencyParams, Machine, RankMapping};

    fn torus_filled(n_nodes: u32) -> Job {
        Job::place(
            Machine::torus_for_nodes(n_nodes),
            n_nodes,
            AllocationPolicy::TorusFill,
            RankMapping::OneToOne,
            LatencyParams::default(),
        )
    }

    #[test]
    fn coarsest_class_with_enough_units_wins() {
        // 4,096 torus-filled nodes: 8×8×8 cubes, one rack per (x, y).
        let job = torus_filled(4096);
        let cut = job.locality_cut(16);
        assert_eq!((cut.class, cut.n_units), (CutClass::Rack, 64));
        assert_eq!(cut.lookahead_ns, 8_400);
        // 64 torus-filled nodes are 2×2×2 cubes of 8: 4 racks, 8 cubes,
        // 16 blades.
        let job = torus_filled(64);
        let cut = job.locality_cut(16);
        assert_eq!((cut.class, cut.n_units), (CutClass::Blade, 16));
        // Nothing reaches the threshold on 8 nodes: cut along nodes.
        let job = Job::compact(8, RankMapping::Grouped { ppn: 8 });
        let cut = job.locality_cut(16);
        assert_eq!((cut.class, cut.n_units), (CutClass::Node, 8));
        assert_eq!(cut.lookahead_ns, 1_400);
    }

    #[test]
    fn consecutive_rack_units_are_columns_not_node_id_neighbours() {
        let job = torus_filled(4096);
        let cut = job.locality_cut(16);
        // Unit index is (y, x) row-major on the 8×8 rack grid.
        for rank in 0..job.n_ranks() {
            let c = job.coord_of(rank);
            assert_eq!(cut.unit_of_rank[rank as usize], c.y as u32 * 8 + c.x as u32);
        }
    }
}
