//! Streaming telemetry: the snapshot cadence, the rows each shard
//! publishes at a mark and worker 0 drains into one snapshot, and the
//! emergency-abort budgets.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dws_metrics::{OnlineAccounting, ShardSnap, Snapshot, Transition};

use crate::abort;
use crate::engine::{Actor, LiveStats};
use crate::observer::FlightRecorder;
use crate::profiler::Phase;
use crate::shard::Shard;

/// Configuration for the streaming telemetry subsystem
/// ([`Recorders::streaming`](crate::Recorders::streaming)): snapshot
/// cadence, the per-shard flight-recorder ring, and the emergency-abort
/// budgets.
///
/// Cadence is expressed in *simulated* time — a pure function of the
/// deterministic schedule — so the set of window barriers that emit a
/// snapshot is identical for every thread count.
/// Wall-clock is only ever *read* when a snapshot is being written
/// (for `wall_ms` / `events_per_sec`), never consulted for control
/// flow, except by the explicitly wall-clock abort budgets.
#[derive(Debug, Clone)]
pub struct StreamingCfg {
    /// Emit a snapshot at each multiple of this much simulated time.
    pub snapshot_every_sim_ns: u64,
    /// Echo each snapshot's one-line rendering to stderr (the
    /// `dws run --live` terminal view).
    pub live: bool,
    /// Per-shard flight-recorder capacity in events; 0 disables the
    /// ring.
    pub flight_ring: usize,
    /// Where to write the flight dump on panic, budget overrun, or
    /// SIGTERM. `None` disables dumping (the ring still records).
    pub flight_dump_path: Option<std::path::PathBuf>,
    /// Abort the run (with a dump) once this much wall time has
    /// elapsed.
    pub wall_budget: Option<Duration>,
    /// Abort the run (with a dump) once the process peak RSS exceeds
    /// this many bytes. Checked every few windows via `/proc`.
    pub rss_budget_bytes: Option<u64>,
}

impl Default for StreamingCfg {
    fn default() -> Self {
        Self {
            snapshot_every_sim_ns: 1_000_000, // one simulated ms
            live: false,
            flight_ring: 1024,
            flight_dump_path: None,
            wall_budget: None,
            rss_budget_bytes: None,
        }
    }
}

/// Windows between RSS budget probes (`/proc` reads are cheap but not
/// free; windows are often microseconds of host time).
const RSS_CHECK_EVERY_WINDOWS: u32 = 32;

/// Snapshot cadence threshold. Every worker steps its own copy from
/// published schedule state, so all threads agree on which windows
/// emit without extra coordination.
#[derive(Clone, Copy)]
pub(crate) struct Cadence {
    every_sim_ns: u64,
    /// Next simulated-time snapshot threshold.
    next_sim: u64,
}

impl Cadence {
    /// Whether the window ending at `end_ns` crosses a snapshot
    /// threshold. Pure function of schedule state.
    pub(crate) fn due(&self, end_ns: u64) -> bool {
        end_ns >= self.next_sim
    }

    /// Advance the threshold after emitting at `end_ns` to the next
    /// mark of the fixed grid `k · every`, so how far a window
    /// overshot one mark never moves the next. Window ends are
    /// schedule-deterministic, so the emission points are identical for
    /// every thread count.
    pub(crate) fn advance(&mut self, end_ns: u64) {
        let every = self.every_sim_ns.max(1);
        self.next_sim = (end_ns / every).saturating_add(1).saturating_mul(every);
    }
}

/// Live state of an attached streaming subsystem.
pub(crate) struct StreamState {
    cfg: StreamingCfg,
    pub(crate) accounting: OnlineAccounting,
    sink: Option<Box<dyn Write + Send>>,
    seq: u64,
    pub(crate) cadence: Cadence,
    run_started: Instant,
    last_emit: Instant,
    last_events: u64,
    rss_countdown: u32,
    /// SIGTERM generation when the run started; only signals arriving
    /// after that count as an abort request for this run.
    sigterm_base: u64,
}

impl StreamState {
    pub(crate) fn new(cfg: StreamingCfg, sink: Option<Box<dyn Write + Send>>, ranks: u32) -> Self {
        let now = Instant::now();
        Self {
            cadence: Cadence {
                every_sim_ns: cfg.snapshot_every_sim_ns,
                next_sim: cfg.snapshot_every_sim_ns,
            },
            cfg,
            accounting: OnlineAccounting::new(ranks),
            sink,
            seq: 0,
            run_started: now,
            last_emit: now,
            last_events: 0,
            rss_countdown: 0,
            sigterm_base: abort::sigterm_generation(),
        }
    }

    /// Fold every shard's published activity into the accounting, take
    /// their rows and live stats, and write the snapshot they make with
    /// `events` processed (and the `--live` stderr line). Worker 0 calls
    /// this after a mark's extra barrier. Reads the wall clock
    /// (observation only).
    pub(crate) fn snapshot(&mut self, events: u64, pubs: &[Mutex<ShardPub>]) -> Snapshot {
        let mut shards = Vec::with_capacity(pubs.len());
        let mut live = LiveStats::default();
        for slot in pubs {
            let mut p = slot.lock().expect("publish slot poisoned");
            self.accounting.record_all(&p.activity);
            p.activity.clear();
            shards.extend(p.snap.take());
            live.absorb(&p.live);
        }
        self.accounting.fold();
        let now = Instant::now();
        let wall_ms = now.duration_since(self.run_started).as_millis() as u64;
        let dt = now.duration_since(self.last_emit).as_secs_f64();
        let events_per_sec = if dt > 0.0 {
            events.saturating_sub(self.last_events) as f64 / dt
        } else {
            0.0
        };
        self.last_emit = now;
        self.last_events = events;
        let snap = Snapshot {
            schema: dws_metrics::SNAPSHOT_SCHEMA_VERSION,
            seq: self.seq,
            n_ranks: self.accounting.n_ranks(),
            wall_ms,
            sim_ns: shards.iter().map(|s| s.now_ns).max().unwrap_or(0),
            events,
            events_per_sec,
            queue_depth: shards.iter().map(|s| s.queue_depth).sum(),
            ready_chunks: live.ready_chunks,
            steals_ok: live.steals_ok,
            steals_empty: live.steals_empty,
            quarantined: live.quarantined,
            active_workers: self.accounting.current_workers(),
            w_max: self.accounting.w_max(),
            shards,
        };
        if let Some(sink) = &mut self.sink {
            let _ = writeln!(sink, "{}", snap.to_json());
            let _ = sink.flush();
        }
        if self.cfg.live {
            eprintln!("{}", snap.progress_line());
        }
        self.seq += 1;
        snap
    }

    /// Closing snapshot: every streamed run call ends with one forced
    /// emission carrying the final totals, so even a run shorter than
    /// the snapshot cadence leaves at least one line in the stream.
    /// Every shard publishes as at a mark, with nothing inbound: the
    /// run has put what the exchange cells held back into the queues.
    /// The end time is the schedule-derived maximum shard clock, so the
    /// line is identical across thread counts. An aborted run also
    /// writes its flight dump, with this snapshot.
    pub(crate) fn close<A: Actor>(
        &mut self,
        shards: &mut [Shard<A>],
        pubs: &[Mutex<ShardPub>],
        abort_why: Option<&str>,
    ) {
        for (shard, slot) in shards.iter_mut().zip(pubs) {
            publish_rows(shard, slot, 0);
        }
        let snap = self.snapshot(shards.iter().map(|s| s.core.events).sum(), pubs);
        self.cadence.advance(snap.sim_ns);
        if let (Some(reason), Some(path)) = (abort_why, &self.cfg.flight_dump_path) {
            let _ = abort::write_flight_dump(path, reason, &flight_rings(shards), Some(&snap));
        }
    }

    /// Check the emergency-abort conditions: SIGTERM, wall budget,
    /// RSS budget (throttled). Returns the abort reason, if any.
    pub(crate) fn abort_reason(&mut self) -> Option<&'static str> {
        if abort::sigterm_generation() > self.sigterm_base {
            return Some("sigterm");
        }
        if let Some(budget) = self.cfg.wall_budget {
            if self.run_started.elapsed() >= budget {
                return Some("wall_budget");
            }
        }
        if let Some(limit) = self.cfg.rss_budget_bytes {
            if self.rss_countdown == 0 {
                self.rss_countdown = RSS_CHECK_EVERY_WINDOWS;
                if dws_metrics::perflab::peak_rss_bytes().is_some_and(|rss| rss > limit) {
                    return Some("rss_budget");
                }
            }
            self.rss_countdown -= 1;
        }
        None
    }
}

/// One shard's published contribution to a snapshot.
#[derive(Default)]
pub(crate) struct ShardPub {
    activity: Vec<Transition>,
    snap: Option<ShardSnap>,
    live: LiveStats,
}

/// Publish `shard`'s part of a snapshot into its slot: the activity
/// transitions it recorded since the last mark, its row — counting
/// `inbound` events waiting for it in the exchange cells as queued —
/// and its summed live stats.
pub(crate) fn publish_rows<A: Actor>(shard: &mut Shard<A>, slot: &Mutex<ShardPub>, inbound: usize) {
    let mut p = slot.lock().expect("publish slot poisoned");
    let core = &mut shard.core;
    let (busy_ns, wait_ns) = core.rec.as_mut().map_or((0, 0), |rec| {
        rec.drain_activity(|new| p.activity.extend_from_slice(new));
        (rec.busy_ns, rec.phases.get(Phase::Barrier).1)
    });
    p.snap = Some(ShardSnap {
        shard: core.id as u32,
        now_ns: core.now.ns(),
        windows: core.windows,
        events: core.events,
        queue_depth: (core.queue.len() + inbound) as u64,
        busy_ns,
        wait_ns,
    });
    p.live = LiveStats::default();
    for actor in &shard.actors {
        p.live.absorb(&actor.live_stats());
    }
}

/// Every shard's flight ring, in shard order.
pub(crate) fn flight_rings<A: Actor>(shards: &[Shard<A>]) -> Vec<Arc<FlightRecorder>> {
    shards
        .iter()
        .filter_map(|s| s.core.rec.as_ref()?.flight.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_marks_stay_on_the_grid_whatever_the_window_overshoot() {
        let mut cadence = Cadence {
            every_sim_ns: 1_000,
            next_sim: 1_000,
        };
        // A window ending 399 ns past the mark does not push the next
        // mark out by that much.
        assert!(cadence.due(1_399));
        cadence.advance(1_399);
        assert_eq!(cadence.next_sim, 2_000);
        // One window may cross several marks: one emission, next mark
        // the first still ahead.
        cadence.advance(4_000);
        assert_eq!(cadence.next_sim, 5_000);
    }
}
