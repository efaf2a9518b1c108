//! Dimension-ordered routing and link-load analysis.
//!
//! The simulator charges end-to-end latencies without tracking
//! individual links; this module provides the complementary *offline*
//! view: the actual sequence of links a Tofu message traverses under
//! dimension-ordered routing (X, then Y, then Z, then the intra-cube
//! axes), and an accumulator for per-link traffic. It quantifies the
//! aggregate hop-load argument behind the skewed victim selection: a
//! strategy that shortens average steal distance reduces total
//! link-seconds of traffic, which is what relieves contention on a
//! loaded machine.

use crate::coord::TofuCoord;
use crate::machine::Machine;
use std::cmp::Reverse;
use std::collections::HashMap;

/// One directed link of the torus: a node coordinate plus the axis the
/// message leaves along (+/−).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Source node of this hop.
    pub from: TofuCoord,
    /// Axis index: 0..3 = x, y, z; 3..6 = a, b, c.
    pub axis: u8,
    /// Direction along the axis (true = increasing, possibly wrapping).
    pub positive: bool,
}

/// Enumerate the links of the dimension-ordered route from `src` to
/// `dst`, taking the shorter way around each torus axis.
pub fn route(machine: &Machine, src: TofuCoord, dst: TofuCoord) -> Vec<Link> {
    let mut links = Vec::new();
    walk_route(machine, src, dst, |link| links.push(link));
    links
}

/// Visit the links of [`route`] in order without collecting them.
fn walk_route(machine: &Machine, src: TofuCoord, dst: TofuCoord, mut visit: impl FnMut(Link)) {
    let dims = machine.dims();
    let mut cur = src;
    // Torus axes: choose direction by shorter wrap.
    type Get = fn(&TofuCoord) -> u16;
    type GetMut = fn(&mut TofuCoord) -> &mut u16;
    let torus_axes: [(u8, u16, Get, GetMut); 3] = [
        (0, dims.0, |c| c.x, |c| &mut c.x),
        (1, dims.1, |c| c.y, |c| &mut c.y),
        (2, dims.2, |c| c.z, |c| &mut c.z),
    ];
    for (axis, extent, get, get_mut) in torus_axes {
        while get(&cur) != get(&dst) {
            let p = get(&cur);
            let q = get(&dst);
            let forward = (q + extent - p) % extent;
            let backward = (p + extent - q) % extent;
            let positive = forward <= backward;
            visit(Link {
                from: cur,
                axis,
                positive,
            });
            let slot = get_mut(&mut cur);
            *slot = if positive {
                (p + 1) % extent
            } else {
                (p + extent - 1) % extent
            };
        }
    }
    // Mesh (intra-cube) axes: direct walk.
    let mesh_axes: [(u8, Get, GetMut); 3] = [
        (3, |c| c.a, |c| &mut c.a),
        (4, |c| c.b, |c| &mut c.b),
        (5, |c| c.c, |c| &mut c.c),
    ];
    for (axis, get, get_mut) in mesh_axes {
        while get(&cur) != get(&dst) {
            let positive = get(&cur) < get(&dst);
            visit(Link {
                from: cur,
                axis,
                positive,
            });
            let slot = get_mut(&mut cur);
            *slot = if positive { *slot + 1 } else { *slot - 1 };
        }
    }
    debug_assert_eq!(cur, dst, "route must land on the destination");
}

/// Accumulated traffic per link, in arbitrary units (e.g. bytes or
/// message counts).
#[derive(Debug, Default, Clone)]
pub struct LinkLoad {
    loads: HashMap<Link, u64>,
    total: u64,
}

impl LinkLoad {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `amount` units of traffic along the route from `src` to
    /// `dst`. Returns the hop count.
    pub fn add_route(
        &mut self,
        machine: &Machine,
        src: TofuCoord,
        dst: TofuCoord,
        amount: u64,
    ) -> usize {
        let mut hops = 0;
        walk_route(machine, src, dst, |link| {
            *self.loads.entry(link).or_insert(0) += amount;
            hops += 1;
        });
        self.total += amount * hops as u64;
        hops
    }

    /// Total link-units charged (traffic × hops).
    pub fn total_link_units(&self) -> u64 {
        self.total
    }

    /// Number of distinct links touched.
    pub fn links_used(&self) -> usize {
        self.loads.len()
    }

    /// The heaviest `n` links, descending; ties in their `Debug` order.
    pub fn hottest(&self, n: usize) -> Vec<(Link, u64)> {
        let mut v: Vec<(Link, u64)> = self.loads.iter().map(|(l, &u)| (*l, u)).collect();
        v.sort_by_cached_key(|&(link, units)| (Reverse(units), format!("{link:?}")));
        v.truncate(n);
        v
    }

    /// Max-to-mean load ratio: 1.0 = perfectly spread, large = hotspot.
    pub fn hotspot_factor(&self) -> f64 {
        if self.loads.is_empty() {
            return 0.0;
        }
        let max = *self.loads.values().max().expect("non-empty") as f64;
        let mean = self.total as f64 / self.loads.len() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u16, y: u16, z: u16) -> TofuCoord {
        TofuCoord::new(x, y, z, 0, 0, 0)
    }

    #[test]
    fn route_length_matches_hop_count() {
        let m = Machine::small(); // 4 x 3 x 4 cubes
        let pairs = [
            (c(0, 0, 0), c(3, 2, 1)),
            (c(1, 1, 1), TofuCoord::new(1, 1, 1, 1, 2, 1)),
            (c(2, 0, 3), c(2, 0, 3)),
        ];
        for (a, b) in pairs {
            let links = route(&m, a, b);
            assert_eq!(
                links.len() as u32,
                a.hops(&b, m.dims()),
                "route {a:?} -> {b:?}"
            );
        }
    }

    #[test]
    fn route_takes_short_way_around_torus() {
        let m = Machine::new(8, 1, 1);
        let links = route(&m, c(0, 0, 0), c(7, 0, 0));
        assert_eq!(links.len(), 1, "0 -> 7 wraps backwards in one hop");
        assert!(!links[0].positive);
    }

    #[test]
    fn dimension_order_is_x_then_y_then_z() {
        let m = Machine::small();
        let links = route(&m, c(0, 0, 0), c(2, 1, 1));
        let axes: Vec<u8> = links.iter().map(|l| l.axis).collect();
        assert_eq!(axes, vec![0, 0, 1, 2]);
    }

    #[test]
    fn link_load_accounts_traffic_times_hops() {
        let m = Machine::small();
        let mut load = LinkLoad::new();
        let hops = load.add_route(&m, c(0, 0, 0), c(2, 0, 0), 10);
        assert_eq!(hops, 2);
        assert_eq!(load.total_link_units(), 20);
        assert_eq!(load.links_used(), 2);
        // Overlapping route doubles the shared first link.
        load.add_route(&m, c(0, 0, 0), c(1, 0, 0), 10);
        let hottest = load.hottest(1);
        assert_eq!(hottest[0].1, 20);
        assert!(load.hotspot_factor() > 1.0);
    }

    #[test]
    fn skewed_traffic_reduces_link_units() {
        // The aggregate-load argument in miniature: nearest-neighbour
        // traffic costs fewer link-units than all-pairs traffic.
        let m = Machine::small();
        let mut near = LinkLoad::new();
        let mut far = LinkLoad::new();
        for x in 0..4u16 {
            near.add_route(&m, c(x, 0, 0), c((x + 1) % 4, 0, 0), 1);
            far.add_route(&m, c(x, 0, 0), c((x + 2) % 4, 1, 2), 1);
        }
        assert!(near.total_link_units() < far.total_link_units());
    }

    #[test]
    fn empty_load_is_calm() {
        let load = LinkLoad::new();
        assert_eq!(load.hotspot_factor(), 0.0);
        assert_eq!(load.links_used(), 0);
        assert!(load.hottest(5).is_empty());
    }
}
