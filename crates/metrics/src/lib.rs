//! # dws-metrics
//!
//! The measurement side of the reproduction: the paper's
//! scheduling-latency metric and the per-run statistics its figures are
//! drawn from.
//!
//! - [`trace`] — lightweight activity traces (active ⇄ idle
//!   transitions on the global clock), merged from the engine's
//!   per-shard logs in `(time, rank)` order;
//! - [`occupancy`] — the one occupancy fold ([`OnlineAccounting`]), fed
//!   live at window barriers or once from a retained trace, and the
//!   [`OccupancyCurve`] it finishes into: `Wmax`, occupancy `O(t)`, and
//!   the starting/ending latencies `SL(x)` / `EL(x)` of §III;
//! - [`steal_stats`] — failed steals, search time, and work-discovery
//!   sessions (§V-A);
//! - [`span`] — causal per-steal-attempt span records, the compact
//!   [`SpanLog`] they are kept in (one per shard while the engine
//!   records) and the run's merged [`SpanTrace`];
//! - [`critpath`] — happens-before reconstruction and critical-path
//!   extraction: tiles the makespan into contiguous attributed
//!   segments that sum to the measured makespan exactly;
//! - [`blame`] — blame reports over the critical path: component
//!   totals, per-rank waterfalls, Coz-style what-if virtual speedups,
//!   and the text view behind `dws why`;
//! - [`histogram`] — log-bucketed latency histograms (p50/p90/p99/max)
//!   for steal round trips, message delivery, backoff depth and
//!   session durations;
//! - [`export`] — dependency-free JSON, Chrome trace-event output and
//!   machine-readable run reports;
//! - [`streaming`] — the periodic [`Snapshot`] JSONL stream;
//! - [`report`] — efficiency/speedup math, text tables, CSV output and
//!   terminal ASCII charts for regenerating the paper's figures;
//! - [`perflab`] — benchmark records ([`BenchRecord`]),
//!   repeated-trial 95% confidence intervals, and noise-aware
//!   cross-run regression diffing for `dws diff`.
//!
//! ## Example: computing a starting latency
//!
//! ```
//! use dws_metrics::{ActivityTrace, OccupancyCurve, OnlineAccounting};
//!
//! // Transitions go in (time, rank) order, as the engine's merge has them.
//! let mut trace = ActivityTrace::new(2);
//! trace.record(0, 0, true);      // rank 0 active at t=0
//! trace.record(1, 50, true);     // rank 1 gets work at t=50
//! trace.record(0, 100, false);
//! trace.record(1, 100, false);
//! // One fold over the trace, closed at the run's end.
//! let curve = OccupancyCurve::from_trace(&trace, 100);
//! // 100% occupancy is first reached at t=50 of a 100ns run: SL = 50%.
//! assert_eq!(curve.starting_latency(1.0), Some(0.5));
//!
//! // The same fold fed live, as the engine does at window barriers.
//! let mut live = OnlineAccounting::new(2);
//! for t in trace.transitions() {
//!     live.record(t.rank, t.at_ns, t.active);
//! }
//! assert_eq!(live.finish(100).starting_latency(1.0), Some(0.5));
//! ```

#![warn(missing_docs)]

pub mod blame;
pub mod critpath;
pub mod export;
pub mod histogram;
pub mod lifestory;
pub mod occupancy;
pub mod perflab;
pub mod report;
pub mod span;
pub mod steal_stats;
pub mod streaming;
pub mod summary;
pub mod trace;

pub use blame::{BlameReport, WhatIf, BLAME_SCHEMA_VERSION};
pub use critpath::{rank_waterfall, Component, CriticalPath, RankWaterfall, Segment};
pub use export::JsonValue;
pub use histogram::{Histogram, LatencyHistograms};
pub use occupancy::{OccupancyCurve, OnlineAccounting};
pub use perflab::{
    BenchMetric, BenchRecord, MetricDelta, Polarity, ProfileReport, Verdict, BENCH_SCHEMA_VERSION,
};
pub use report::{ascii_chart, render_table, write_csv, Perf};
pub use span::{trace_id, SpanIter, SpanKind, SpanLog, SpanRecord, SpanTrace};
pub use steal_stats::{RunStats, StealStats};
pub use streaming::{ShardSnap, Snapshot, SNAPSHOT_SCHEMA_VERSION};
pub use summary::Summary;
pub use trace::{ActivityTrace, Transition};
