//! Communication latency model.
//!
//! The paper's central observation is that "not every steal attempt
//! takes the same time": messages between processes on the same node,
//! the same blade, the same cube, the same rack, or across racks
//! traverse different transports. This module assigns a deterministic
//! point-to-point latency to each (source node, destination node,
//! message size) triple.
//!
//! The defaults are calibrated to the K Computer's published numbers
//! (Tofu link latency in the microsecond range, ~5 GB/s per link) and,
//! more importantly, preserve the *ordering* the paper relies on:
//! `node < blade < cube < rack < inter-rack`, with inter-rack latency
//! growing with hop count ("a communication between two processes can
//! go through more than 10 hops").

use crate::coord::TofuCoord;
use crate::cut::CutClass;
use crate::machine::Machine;

/// Locality class of a point-to-point link, coarsest to finest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Both ranks on the same physical node (shared-memory transport).
    SameNode,
    /// Same blade of four nodes (dedicated board-level transport).
    SameBlade,
    /// Same 2×3×2 cube.
    SameCube,
    /// Same rack (8 cubes, 96 nodes).
    SameRack,
    /// Different racks; latency grows with hop count.
    InterRack,
}

impl LinkClass {
    /// Classify the link between two node coordinates.
    pub fn classify(machine: &Machine, from: TofuCoord, to: TofuCoord) -> Self {
        if from.same_node(&to) {
            LinkClass::SameNode
        } else if from.same_blade(&to) {
            LinkClass::SameBlade
        } else if from.same_cube(&to) {
            LinkClass::SameCube
        } else if machine.rack_of(from) == machine.rack_of(to) {
            LinkClass::SameRack
        } else {
            LinkClass::InterRack
        }
    }
}

/// Parameters of the latency model. All times in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyParams {
    /// Shared-memory message latency between two ranks on one node.
    pub same_node_ns: u64,
    /// Base latency on a blade-internal link.
    pub same_blade_ns: u64,
    /// Base latency inside one cube.
    pub same_cube_ns: u64,
    /// Base latency inside one rack.
    pub same_rack_ns: u64,
    /// Base latency between racks, before the per-hop term.
    pub inter_rack_ns: u64,
    /// Added per network hop (router traversal).
    pub per_hop_ns: u64,
    /// Link bandwidth in bytes per nanosecond (5.0 = 5 GB/s).
    pub bytes_per_ns: f64,
    /// Fixed software (MPI stack) overhead added to every message.
    pub software_overhead_ns: u64,
}

impl Default for LatencyParams {
    fn default() -> Self {
        // Base values sit in the microsecond range of Tofu MPI
        // latencies. The per-hop cost folds in the effective cost of
        // router traversals *and* the contention a long path suffers on
        // a loaded machine (which we do not model explicitly); the
        // paper observes paths of "more than 10 hops", so distant
        // steals land in the 5–10 µs range — several times the
        // same-blade cost, which is the contrast the skewed victim
        // selection exploits.
        Self {
            same_node_ns: 600,
            same_blade_ns: 1_000,
            same_cube_ns: 1_300,
            same_rack_ns: 1_700,
            inter_rack_ns: 3_000,
            per_hop_ns: 5_000,
            bytes_per_ns: 5.0,
            software_overhead_ns: 400,
        }
    }
}

impl LatencyParams {
    /// A flat network: every pair of distinct nodes is equidistant.
    /// Used by the `ablation_flat_network` experiment — under this model
    /// distance-skewed victim selection degenerates to uniform random,
    /// so any performance gap must vanish.
    pub fn flat(latency_ns: u64) -> Self {
        Self {
            same_node_ns: latency_ns,
            same_blade_ns: latency_ns,
            same_cube_ns: latency_ns,
            same_rack_ns: latency_ns,
            inter_rack_ns: latency_ns,
            per_hop_ns: 0,
            bytes_per_ns: 5.0,
            software_overhead_ns: 400,
        }
    }

    /// A lower bound on the latency of any message between two
    /// *different units* of `class`: the cheapest link class such a
    /// message can use, plus the fixed software overhead (the
    /// size-dependent transfer term only adds to it). Two racks are at
    /// least one hop apart, and [`check`](Self::check) orders the base
    /// latencies, so no coarser link undercuts the one named here.
    /// This is the conservative lookahead of a parallel simulation
    /// whose shards are whole units of `class`: a cross-shard message
    /// sent at time `t` arrives no earlier than `t + min_crossing_ns`.
    pub fn min_crossing_ns(&self, class: CutClass) -> u64 {
        let base = match class {
            CutClass::Rack => self.inter_rack_ns + self.per_hop_ns,
            CutClass::Cube => self.same_rack_ns,
            CutClass::Blade => self.same_cube_ns,
            CutClass::Node => self.same_blade_ns,
        };
        base + self.software_overhead_ns
    }

    /// Validate internal consistency (ordering and positivity).
    pub fn check(&self) -> Result<(), String> {
        if self.bytes_per_ns <= 0.0 {
            return Err("bandwidth must be positive".into());
        }
        if self.same_node_ns > self.same_blade_ns
            || self.same_blade_ns > self.same_cube_ns
            || self.same_cube_ns > self.same_rack_ns
            || self.same_rack_ns > self.inter_rack_ns
        {
            return Err(
                "latency classes must be ordered node<=blade<=cube<=rack<=inter-rack".into(),
            );
        }
        Ok(())
    }
}

/// Deterministic latency model over a [`Machine`].
#[derive(Debug, Clone)]
pub struct LatencyModel {
    params: LatencyParams,
}

impl LatencyModel {
    /// Build a model from parameters.
    ///
    /// # Panics
    /// Panics if the parameters are inconsistent (see
    /// [`LatencyParams::check`]).
    pub fn new(params: LatencyParams) -> Self {
        if let Err(e) = params.check() {
            panic!("invalid latency parameters: {e}");
        }
        Self { params }
    }

    /// The model's parameters.
    pub fn params(&self) -> &LatencyParams {
        &self.params
    }

    /// One-way latency in nanoseconds for a `bytes`-sized message from
    /// node `from` to node `to`.
    pub fn latency_ns(
        &self,
        machine: &Machine,
        from: TofuCoord,
        to: TofuCoord,
        bytes: usize,
    ) -> u64 {
        let p = &self.params;
        let class = LinkClass::classify(machine, from, to);
        let base = match class {
            LinkClass::SameNode => p.same_node_ns,
            LinkClass::SameBlade => p.same_blade_ns,
            LinkClass::SameCube => p.same_cube_ns,
            LinkClass::SameRack => p.same_rack_ns,
            LinkClass::InterRack => {
                let hops = from.hops(&to, machine.dims()) as u64;
                p.inter_rack_ns + p.per_hop_ns * hops
            }
        };
        let transfer = (bytes as f64 / p.bytes_per_ns) as u64;
        base + transfer + p.software_overhead_ns
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::new(LatencyParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::NodeId;

    fn coord(m: &Machine, id: u32) -> TofuCoord {
        m.coord(NodeId(id))
    }

    #[test]
    fn classes_are_ordered_by_latency() {
        let m = Machine::new(2, 2, 16);
        let model = LatencyModel::default();
        let origin = coord(&m, 0);
        let blade_mate = TofuCoord::new(0, 0, 0, 1, 0, 0);
        let cube_mate = TofuCoord::new(0, 0, 0, 0, 2, 0);
        let rack_mate = TofuCoord::new(0, 0, 1, 0, 0, 0);
        let far = TofuCoord::new(1, 1, 8, 0, 0, 0);
        let l = |to| model.latency_ns(&m, origin, to, 64);
        assert!(l(origin) < l(blade_mate));
        assert!(l(blade_mate) < l(cube_mate));
        assert!(l(cube_mate) < l(rack_mate));
        assert!(l(rack_mate) < l(far));
    }

    #[test]
    fn inter_rack_latency_grows_with_hops() {
        let m = Machine::new(8, 8, 16);
        let model = LatencyModel::default();
        let origin = coord(&m, 0);
        let near = TofuCoord::new(1, 0, 8, 0, 0, 0);
        let far = TofuCoord::new(4, 4, 8, 0, 0, 0);
        assert!(model.latency_ns(&m, origin, near, 64) < model.latency_ns(&m, origin, far, 64));
    }

    #[test]
    fn larger_messages_take_longer() {
        let m = Machine::small();
        let model = LatencyModel::default();
        let a = coord(&m, 0);
        let b = coord(&m, 40);
        assert!(
            model.latency_ns(&m, a, b, 16) < model.latency_ns(&m, a, b, 1 << 20),
            "1 MiB message should be slower than 16 B"
        );
    }

    #[test]
    fn flat_network_is_flat() {
        let m = Machine::new(8, 8, 16);
        let model = LatencyModel::new(LatencyParams::flat(1_500));
        let a = coord(&m, 0);
        let near = coord(&m, 1);
        let far = TofuCoord::new(4, 4, 8, 1, 2, 1);
        assert_eq!(
            model.latency_ns(&m, a, near, 64),
            model.latency_ns(&m, a, far, 64)
        );
    }

    #[test]
    fn crossing_bounds_follow_the_ladder() {
        let p = LatencyParams::default();
        assert_eq!(p.min_crossing_ns(CutClass::Rack), 8_400);
        assert_eq!(p.min_crossing_ns(CutClass::Cube), 2_100);
        assert_eq!(p.min_crossing_ns(CutClass::Blade), 1_700);
        assert_eq!(p.min_crossing_ns(CutClass::Node), 1_400);
        let flat = LatencyParams::flat(1_000);
        for class in CutClass::COARSEST_FIRST {
            assert_eq!(flat.min_crossing_ns(class), 1_400);
        }
    }

    #[test]
    fn classify_matches_structure() {
        let m = Machine::new(2, 2, 16);
        let o = TofuCoord::new(0, 0, 0, 0, 0, 0);
        assert_eq!(LinkClass::classify(&m, o, o), LinkClass::SameNode);
        assert_eq!(
            LinkClass::classify(&m, o, TofuCoord::new(0, 0, 0, 1, 0, 1)),
            LinkClass::SameBlade
        );
        assert_eq!(
            LinkClass::classify(&m, o, TofuCoord::new(0, 0, 0, 0, 1, 0)),
            LinkClass::SameCube
        );
        assert_eq!(
            LinkClass::classify(&m, o, TofuCoord::new(0, 0, 7, 0, 0, 0)),
            LinkClass::SameRack
        );
        assert_eq!(
            LinkClass::classify(&m, o, TofuCoord::new(0, 0, 8, 0, 0, 0)),
            LinkClass::InterRack
        );
    }

    #[test]
    #[should_panic(expected = "invalid latency parameters")]
    fn rejects_unordered_params() {
        let params = LatencyParams {
            same_node_ns: 5_000,
            ..LatencyParams::default()
        };
        LatencyModel::new(params);
    }
}
