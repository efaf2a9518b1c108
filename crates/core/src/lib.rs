//! # dws-core
//!
//! Distributed work stealing with pluggable victim selection — the
//! primary contribution of Perarnau & Sato, *Victim Selection and
//! Distributed Work Stealing Performance: A Case Study* (IPDPS 2014),
//! rebuilt as a library.
//!
//! The scheduler mirrors the public MPI implementation of UTS the paper
//! studies: chunked work stacks with a private working chunk, steal
//! requests serviced at polling points (no work-first principle), and
//! token-ring termination detection. On top of that substrate sit the
//! paper's three victim-selection strategies and two steal
//! granularities:
//!
//! | paper name       | this crate |
//! |------------------|-----------|
//! | Reference        | [`VictimPolicy::RoundRobin`] |
//! | Rand             | [`VictimPolicy::Uniform`] |
//! | Tofu             | [`VictimPolicy::DistanceSkewed`] |
//! | (one chunk)      | [`StealAmount::OneChunk`] |
//! | … Half           | [`StealAmount::Half`] |
//!
//! ## Example: the paper's headline comparison, in miniature
//!
//! ```
//! use dws_core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
//! use dws_uts::presets;
//!
//! let tree = presets::t3sim_xs();
//! let reference = run_experiment(&ExperimentConfig::new(tree.clone(), 16));
//! let tofu_half = run_experiment(
//!     &ExperimentConfig::new(tree, 16)
//!         .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
//!         .with_steal(StealAmount::Half),
//! );
//! // Both count the same tree...
//! assert_eq!(reference.total_nodes, tofu_half.total_nodes);
//! // ...and report comparable metrics.
//! assert!(tofu_half.perf.speedup() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod health;
pub mod network;
pub mod runner;
pub mod scheduler;
pub mod stack;
pub mod termination;
pub mod victim;

pub use alias::AliasTable;
pub use health::{Gate, HealthTracker, VictimHealth};
pub use network::NicContendedNetwork;
pub use runner::{
    run_experiment, run_experiment_streamed, shard_plan, CutReport, ExperimentConfig,
    ExperimentResult, FaultReport, StreamingSetup, StreamingSpec, STREAMING_FLAGS,
};
pub use scheduler::{FaultToleranceCfg, Msg, StealAmount, Worker};
pub use stack::ChunkedStack;
pub use termination::{Colour, TerminationState, Token, TokenAction};
pub use victim::{
    skew_weight, OffsetAliasSet, VictimContext, VictimPolicy, VictimSelector, FALLBACK_LIMIT,
};
