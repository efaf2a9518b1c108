//! # dws-topology
//!
//! A model of the K Computer's Tofu interconnect — the physical
//! substrate of Perarnau & Sato, *Victim Selection and Distributed Work
//! Stealing Performance: A Case Study* (IPDPS 2014).
//!
//! The paper's experiments run on the real machine; this crate stands in
//! for it. It captures exactly the structure the paper's argument needs:
//!
//! - the 6-D coordinate space `(x, y, z, a, b, c)` with a 3-D torus of
//!   2×3×2 cubes ([`coord`], [`machine`]);
//! - the job scheduler's compact-rectangle node allocation
//!   ([`allocation`]);
//! - the three rank-placement strategies of Figure 2 — 1/N, 8RR, 8G
//!   ([`mapping`]);
//! - a latency model ordered `node < blade < cube < rack < inter-rack`
//!   with per-hop growth ([`latency`]);
//! - the locality cut a parallel simulation may shard the job along,
//!   with the lookahead that cut buys ([`cut`]);
//! - and a [`Job`] facade combining them, exposing the Euclidean
//!   distance `e(i, j)` that the skewed victim selector weights by.
//!
//! ## Example
//!
//! ```
//! use dws_topology::{Job, RankMapping};
//!
//! let job = Job::compact(64, RankMapping::OneToOne);
//! assert_eq!(job.n_ranks(), 64);
//! // Rank 0 is closer to rank 1 than to rank 63 in a compact allocation.
//! assert!(job.euclidean(0, 1) <= job.euclidean(0, 63));
//! ```

#![deny(missing_docs)]

pub mod allocation;
pub mod coord;
pub mod cut;
pub mod job;
pub mod latency;
pub mod machine;
pub mod mapping;
pub mod routing;

pub use allocation::{AllocationPolicy, JobAllocation};
pub use coord::TofuCoord;
pub use cut::{CutClass, LocalityCut};
pub use job::{Job, TorusSymmetry};
pub use latency::{LatencyModel, LatencyParams, LinkClass};
pub use machine::{Machine, NodeId};
pub use mapping::{Rank, RankMapping};
pub use routing::{route, Link, LinkLoad};
