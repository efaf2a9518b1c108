//! # dws-simnet
//!
//! A deterministic discrete-event simulator standing in for MPI on a
//! large machine. The paper ran on up to 8,192 nodes of the K Computer;
//! this crate lets the same per-rank scheduler logic run at that scale
//! on one host, with communication delays supplied by the
//! `dws-topology` latency model.
//!
//! The programming model is deliberately MPI-shaped:
//!
//! - each rank is an [`Actor`] with message and timer callbacks;
//! - messages between a (source, destination) pair never overtake each
//!   other (MPI's pairwise ordering guarantee);
//! - message *arrival* is separate from *handling* — a faithful
//!   work-stealing process buffers arrivals and polls, exactly like the
//!   reference `mpi_workstealing.c`;
//! - everything is reproducible from a single seed, latency jitter
//!   included, and every rank reads one global clock.
//!
//! ## Layout
//!
//! [`engine`] holds [`Simulation`], its run loop, and the public traits
//! and configurations. Private modules hold the layers below it: `event`
//! (the event key and a shard's queue), `shard` (per-rank state, the
//! shard core that routes and sends, [`Ctx`], the window's dispatch loop
//! and the one builder that deals ranks into shards), `exchange` (the
//! window verdict, the plan slots and the plan digest) and `stream`
//! (snapshots and abort budgets).
//!
//! ## Example: two ranks exchanging a message
//!
//! ```
//! use dws_simnet::{Actor, ConstantLatency, Ctx, Rank, SimConfig, Simulation};
//!
//! struct Echo { got: u32 }
//! impl Actor for Echo {
//!     type Msg = u32;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
//!         if ctx.me() == 0 { ctx.send(1, 4, 42); }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: Rank, msg: u32) {
//!         self.got = msg;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _token: u64) {}
//! }
//!
//! let actors = vec![Echo { got: 0 }, Echo { got: 0 }];
//! let mut sim = Simulation::new(actors, ConstantLatency(1_000), SimConfig::default());
//! let report = sim.run();
//! assert_eq!(sim.actor(1).got, 42);
//! assert_eq!(report.end_time.ns(), 1_000);
//! ```
//!
//! ## Parallel execution
//!
//! The engine has one run loop. [`Simulation::configure_parallel`]
//! shards the ranks across worker threads and bounds the conservative
//! lookahead windows time advances in; without it the simulation is
//! one shard on the calling thread. The schedule is bit-identical for
//! any shard and thread count, configured or not:
//!
//! ```
//! use dws_simnet::{Actor, ConstantLatency, Ctx, ParallelConfig, Rank, SimConfig, Simulation};
//!
//! struct Relay;
//! impl Actor for Relay {
//!     type Msg = u32;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
//!         if ctx.me() == 0 { ctx.send(1, 4, 3); }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: Rank, msg: u32) {
//!         if msg > 0 {
//!             let next = (ctx.me() + 1) % ctx.n_ranks();
//!             ctx.send(next, 4, msg - 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _token: u64) {}
//! }
//!
//! let run = |threads: u32| {
//!     let mut sim = Simulation::new(
//!         (0..4).map(|_| Relay).collect(),
//!         ConstantLatency(1_000),
//!         SimConfig::default(),
//!     );
//!     // Lookahead = the minimum cross-shard latency (1_000 ns here).
//!     sim.configure_parallel(ParallelConfig::new(threads, 1_000));
//!     sim.run()
//! };
//! assert_eq!(run(1), run(2));
//! ```

#![deny(missing_docs)]

pub mod abort;
mod barrier;
pub mod engine;
mod event;
mod exchange;
pub mod fault;
pub mod observer;
pub mod profiler;
pub mod rng;
mod shard;
mod stream;
pub mod time;

pub use abort::{install_sigterm_hook, sigterm_requested, write_flight_dump};
pub use engine::{
    Actor, ConstantLatency, Ctx, LatencyFn, LiveStats, NetworkModel, ParallelConfig, PureNetwork,
    Rank, RunReport, SimConfig, Simulation, StreamingCfg,
};
pub use fault::{Brownout, Crash, CrashDomain, FaultPlan, FaultStats, Partition};
pub use observer::{
    EventKind, EventRecord, FlightRecorder, NetTrace, PairTally, Recorders, Recordings,
};
pub use profiler::{allocation_count, CountingAlloc, Phase, PhaseTimes, ShardProfile};
pub use rng::DetRng;
pub use time::{parse_duration_ns, SimTime, MS, SEC, US};
