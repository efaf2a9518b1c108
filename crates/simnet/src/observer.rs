//! Everything the engine records while it runs, behind one recorder
//! per shard with four switches: the activity log (occupancy's input),
//! causal spans with the [`NetTrace`] riding along, a
//! [`FlightRecorder`] ring of the shard's last K events (on with
//! streaming), and the profiler's host time. One [`Recorders`] value
//! names them, given once to
//! [`Simulation::record`](crate::Simulation::record) in either order with
//! [`configure_parallel`](crate::Simulation::configure_parallel); one
//! [`Recordings`] from
//! [`Simulation::take_recordings`](crate::Simulation::take_recordings)
//! hands back what they recorded. Each event site (send, delivery,
//! timer, fault outcome, activity, span) makes one call, one branch when
//! nothing records, and no recorder touches a timer, message or RNG
//! draw.

use crate::engine::StreamingCfg;
use crate::profiler::{Phase, PhaseTimes, ShardProfile};
use crate::time::SimTime;
use dws_metrics::{Histogram, OccupancyCurve, SpanLog, SpanRecord, Transition};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One observed engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A message was handed to the network.
    Sent {
        /// Sender rank.
        from: u32,
        /// Destination rank.
        to: u32,
        /// Wire size.
        bytes: u32,
        /// Scheduled delivery time.
        deliver_at: SimTime,
    },
    /// A message was delivered to its destination actor.
    Delivered {
        /// Sender rank.
        from: u32,
        /// Destination rank.
        to: u32,
    },
    /// A timer fired.
    Timer {
        /// Owning rank.
        rank: u32,
        /// Token passed at arming time.
        token: u64,
    },
    /// Fault injection dropped a message outright.
    Dropped {
        /// Sender rank.
        from: u32,
        /// Destination rank.
        to: u32,
        /// True if the loss came from a brownout window rather than
        /// the random drop probability.
        brownout: bool,
    },
    /// A message was lost crossing a network-partition cut.
    Partitioned {
        /// Sender rank.
        from: u32,
        /// Destination rank (on the far side of the cut).
        to: u32,
    },
    /// Fault injection duplicated a message; the copy rides one tick
    /// behind the original.
    Duplicated {
        /// Sender rank.
        from: u32,
        /// Destination rank.
        to: u32,
    },
    /// Fault injection stretched a message's latency by a spike.
    Delayed {
        /// Sender rank.
        from: u32,
        /// Destination rank.
        to: u32,
        /// Extra nanoseconds added on top of the modelled latency.
        spike_ns: u64,
    },
    /// An event addressed to a crashed rank was discarded.
    CrashLost {
        /// The dead rank.
        rank: u32,
        /// True for a timer, false for a message delivery.
        timer: bool,
    },
}

/// A timestamped event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// When the event happened (send time / delivery time / fire time).
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// Flight-recorder ring: the last K canonical engine events of one
/// shard, readable from *any* thread at any moment.
///
/// This is the crash observability primitive: each shard's driver
/// thread records into its own ring with relaxed atomic stores (single
/// writer, wait-free, no locks), and a dump path — the panic hook, a
/// budget-overrun abort, or SIGTERM — decodes whatever is present at
/// that instant. A record is four words, so a concurrent reader can
/// observe a *torn* slot (half old record, half new); the decoder
/// validates the discriminant and drops anything unintelligible rather
/// than synchronize the hot path. Overhead when attached is four
/// relaxed stores per observed event; when not attached, one branch.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[[AtomicU64; 4]]>,
    /// Total records ever written (monotone; `head % cap` is the next
    /// slot).
    head: AtomicU64,
}

/// Discriminant values of the flight-ring encoding (word 1, top byte).
const FLIGHT_SENT: u64 = 1;
const FLIGHT_DELIVERED: u64 = 2;
const FLIGHT_TIMER: u64 = 3;
const FLIGHT_DROPPED: u64 = 4;
const FLIGHT_PARTITIONED: u64 = 5;
const FLIGHT_DUPLICATED: u64 = 6;
const FLIGHT_DELAYED: u64 = 7;
const FLIGHT_CRASH_LOST: u64 = 8;

/// Encode one record into four words: `[at_ns, disc|flag|bytes,
/// from<<32|to, aux]`.
fn flight_encode(rec: &EventRecord) -> [u64; 4] {
    let at = rec.at.ns();
    let (disc, flag, bytes, from, to, aux) = match rec.kind {
        EventKind::Sent {
            from,
            to,
            bytes,
            deliver_at,
        } => (FLIGHT_SENT, 0, bytes, from, to, deliver_at.ns()),
        EventKind::Delivered { from, to } => (FLIGHT_DELIVERED, 0, 0, from, to, 0),
        EventKind::Timer { rank, token } => (FLIGHT_TIMER, 0, 0, rank, 0, token),
        EventKind::Dropped { from, to, brownout } => {
            (FLIGHT_DROPPED, brownout as u64, 0, from, to, 0)
        }
        EventKind::Partitioned { from, to } => (FLIGHT_PARTITIONED, 0, 0, from, to, 0),
        EventKind::Duplicated { from, to } => (FLIGHT_DUPLICATED, 0, 0, from, to, 0),
        EventKind::Delayed { from, to, spike_ns } => (FLIGHT_DELAYED, 0, 0, from, to, spike_ns),
        EventKind::CrashLost { rank, timer } => (FLIGHT_CRASH_LOST, timer as u64, 0, rank, 0, 0),
    };
    [
        at,
        (disc << 56) | (flag << 48) | bytes as u64,
        ((from as u64) << 32) | to as u64,
        aux,
    ]
}

/// Decode four words back into a record; `None` for an invalid (torn
/// or never-written) slot.
fn flight_decode(w: [u64; 4]) -> Option<EventRecord> {
    let disc = w[1] >> 56;
    let flag = (w[1] >> 48) & 0xFF != 0;
    let bytes = (w[1] & 0xFFFF_FFFF) as u32;
    let from = (w[2] >> 32) as u32;
    let to = (w[2] & 0xFFFF_FFFF) as u32;
    let kind = match disc {
        FLIGHT_SENT => EventKind::Sent {
            from,
            to,
            bytes,
            deliver_at: SimTime(w[3]),
        },
        FLIGHT_DELIVERED => EventKind::Delivered { from, to },
        FLIGHT_TIMER => EventKind::Timer {
            rank: from,
            token: w[3],
        },
        FLIGHT_DROPPED => EventKind::Dropped {
            from,
            to,
            brownout: flag,
        },
        FLIGHT_PARTITIONED => EventKind::Partitioned { from, to },
        FLIGHT_DUPLICATED => EventKind::Duplicated { from, to },
        FLIGHT_DELAYED => EventKind::Delayed {
            from,
            to,
            spike_ns: w[3],
        },
        FLIGHT_CRASH_LOST => EventKind::CrashLost {
            rank: from,
            timer: flag,
        },
        _ => return None,
    };
    Some(EventRecord {
        at: SimTime(w[0]),
        kind,
    })
}

impl FlightRecorder {
    /// A ring holding the last `cap` events.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "flight ring capacity must be positive");
        let slots = (0..cap)
            .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Record one event (single-writer hot path: four relaxed stores).
    #[inline]
    pub fn record(&self, rec: &EventRecord) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        let w = flight_encode(rec);
        for (cell, word) in slot.iter().zip(w) {
            cell.store(word, Ordering::Relaxed);
        }
        self.head.store(h + 1, Ordering::Release);
    }

    /// Events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Decode the retained window, oldest first. Safe to call from a
    /// different thread than the writer (the panic hook does); slots
    /// caught mid-write decode to `None` and are skipped.
    pub fn dump(&self) -> Vec<EventRecord> {
        let h = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let retained = h.min(cap);
        let mut out = Vec::with_capacity(retained as usize);
        for i in 0..retained {
            let idx = ((h - retained + i) % cap) as usize;
            let slot = &self.slots[idx];
            let mut w = [0u64; 4];
            for (word, cell) in w.iter_mut().zip(slot.iter()) {
                *word = cell.load(Ordering::Relaxed);
            }
            if let Some(rec) = flight_decode(w) {
                out.push(rec);
            }
        }
        out
    }
}

/// Per-pair traffic tally of a [`NetTrace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTally {
    /// Messages scheduled from this source to this destination.
    pub messages: u64,
    /// Total wire bytes across those messages.
    pub bytes: u64,
}

/// Network-level trace the engine feeds when spans are recorded: a
/// delivery-latency histogram plus a sparse (source, destination)
/// traffic matrix. Recording happens at send time, once the delivery
/// is scheduled, so the measured latency includes FIFO pushback,
/// contention, jitter and injected spikes; dropped messages never
/// appear.
#[derive(Debug, Clone, Default)]
pub struct NetTrace {
    delivery_ns: Histogram,
    pairs: HashMap<(u32, u32), PairTally>,
}

impl NetTrace {
    /// Record one scheduled delivery.
    #[inline]
    pub fn record(&mut self, from: u32, to: u32, bytes: u64, latency_ns: u64) {
        self.delivery_ns.record(latency_ns);
        let t = self.pairs.entry((from, to)).or_default();
        t.messages += 1;
        t.bytes += bytes;
    }

    /// The send→arrival latency distribution.
    pub fn delivery_histogram(&self) -> &Histogram {
        &self.delivery_ns
    }

    /// The traffic matrix, as `((from, to), tally)` pairs in
    /// unspecified order; sort before presenting.
    pub fn pair_tallies(&self) -> impl Iterator<Item = (&(u32, u32), &PairTally)> {
        self.pairs.iter()
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.delivery_ns.count()
    }

    /// Fold another trace into this one (histogram bins add, pair
    /// tallies sum). Commutative and associative, so merging per-shard
    /// traces in any order yields the same totals.
    pub fn merge(&mut self, other: &NetTrace) {
        self.delivery_ns.merge(&other.delivery_ns);
        for (k, t) in other.pairs.iter() {
            let e = self.pairs.entry(*k).or_default();
            e.messages += t.messages;
            e.bytes += t.bytes;
        }
    }
}

/// What a run records, given to
/// [`Simulation::record`](crate::Simulation::record) once, before the
/// first run. The default records nothing.
#[derive(Default)]
pub struct Recorders {
    /// Keep every [`Ctx::record_activity`](crate::Ctx::record_activity)
    /// transition for [`Recordings::activity`].
    pub activity: bool,
    /// Keep every [`Ctx::record_span`](crate::Ctx::record_span) record
    /// and the network trace, for [`Recordings::spans`] and
    /// [`Recordings::net`].
    pub spans: bool,
    /// Time engine phases and windows on the host clock, per shard,
    /// for [`Recordings::profile`]; actors time their own phases with
    /// [`Ctx::phase_start`](crate::Ctx::phase_start).
    pub profiler: bool,
    /// Streaming telemetry and its JSONL snapshot sink: occupancy
    /// folded live, snapshots, the flight rings and the abort budgets.
    pub streaming: Option<(StreamingCfg, Option<Box<dyn Write + Send>>)>,
}

/// What a run recorded, handed over by move by
/// [`Simulation::take_recordings`](crate::Simulation::take_recordings).
/// Each log is one per shard in shard order: a rank lives in one
/// shard, so its records sit in one log in the order it wrote them,
/// and a shard dispatches in `(time, rank)` order, so each log is
/// sorted that way apart from the `on_start` batch at time zero.
#[derive(Debug, Default)]
pub struct Recordings {
    /// Activity logs, when [`Recorders::activity`] was set.
    pub activity: Option<Vec<Vec<Transition>>>,
    /// Span logs, encoded ([`SpanLog`]), when [`Recorders::spans`] was
    /// set.
    pub spans: Option<Vec<SpanLog>>,
    /// The shards' network traces summed into one, when
    /// [`Recorders::spans`] was set. Histogram bins and pair tallies
    /// add, so the sum is the same for every shard count.
    pub net: Option<NetTrace>,
    /// The streaming fold's occupancy at the run's end (O(ranks), no
    /// step list), when the run streamed.
    pub occupancy: Option<OccupancyCurve>,
    /// Each shard's host-time profile, when [`Recorders::profiler`]
    /// was set.
    pub profile: Option<Vec<ShardProfile>>,
}

/// One shard's recorder, built from [`Recorders`] at the first run;
/// a shard that records nothing has none.
pub(crate) struct Recorder {
    /// Activity in dispatch order, kept for the taker when
    /// `keep_activity`; streaming reads the part past
    /// `activity_streamed` at each window barrier.
    activity: Option<Vec<Transition>>,
    keep_activity: bool,
    activity_streamed: usize,
    /// Causal spans in dispatch order, encoded, and the network trace.
    spans: Option<(SpanLog, NetTrace)>,
    pub(crate) flight: Option<Arc<FlightRecorder>>,
    /// Whether phase regions read the host clock (the run profiles).
    pub(crate) profile: bool,
    /// Whether windows read the host clock (the run profiles or
    /// streams: snapshots report busy and wait time).
    window_clocks: bool,
    /// Host time per phase; its barrier row is the shard's wait.
    pub(crate) phases: PhaseTimes,
    /// Host time spent starting the shard's actors and running its
    /// windows.
    pub(crate) busy_ns: u64,
}

impl Recorder {
    /// The recorder `r` gives one shard; `None` when it records nothing.
    pub(crate) fn for_shard(r: &Recorders) -> Option<Self> {
        let streaming = r.streaming.as_ref().map(|(cfg, _)| cfg);
        if !r.activity && !r.spans && !r.profiler && streaming.is_none() {
            return None;
        }
        let ring = streaming.map_or(0, |cfg| cfg.flight_ring);
        Some(Self {
            activity: (r.activity || streaming.is_some()).then(Vec::new),
            keep_activity: r.activity,
            activity_streamed: 0,
            spans: r.spans.then(Default::default),
            flight: (ring > 0).then(|| Arc::new(FlightRecorder::new(ring))),
            profile: r.profiler,
            window_clocks: r.profiler || streaming.is_some(),
            phases: PhaseTimes::default(),
            busy_ns: 0,
        })
    }

    /// Start timing a phase region: the host clock when the run
    /// profiles, else `None` and no clock is read.
    #[inline]
    pub(crate) fn phase_start(&self) -> Option<Instant> {
        self.profile.then(Instant::now)
    }

    /// Start a window clock: the host clock when the run profiles or
    /// streams, else `None` and no clock is read.
    #[inline]
    pub(crate) fn window_start(&self) -> Option<Instant> {
        self.window_clocks.then(Instant::now)
    }

    /// A message was scheduled for delivery at `deliver_at`,
    /// `latency_ns` after it departed: into the flight ring and the
    /// network trace, timed as one trace-record region.
    #[inline]
    pub(crate) fn sent(
        &mut self,
        at: SimTime,
        from: u32,
        to: u32,
        bytes: u32,
        deliver_at: SimTime,
        latency_ns: u64,
    ) {
        if self.flight.is_none() && self.spans.is_none() {
            return;
        }
        let t0 = self.phase_start();
        if let Some(flight) = &self.flight {
            let kind = EventKind::Sent {
                from,
                to,
                bytes,
                deliver_at,
            };
            flight.record(&EventRecord { at, kind });
        }
        if let Some((_, net)) = &mut self.spans {
            net.record(from, to, u64::from(bytes), latency_ns);
        }
        self.phases.stop(Phase::TraceRecord, t0);
    }

    /// Any other engine event (delivery, timer, fault outcome): into
    /// the flight ring.
    #[inline]
    pub(crate) fn event(&mut self, at: SimTime, kind: EventKind) {
        if let Some(flight) = &self.flight {
            let t0 = self.phase_start();
            flight.record(&EventRecord { at, kind });
            self.phases.stop(Phase::TraceRecord, t0);
        }
    }

    #[inline]
    pub(crate) fn activity(&mut self, t: Transition) {
        if let Some(log) = &mut self.activity {
            let t0 = self.profile.then(Instant::now);
            log.push(t);
            self.phases.stop(Phase::TraceRecord, t0);
        }
    }

    #[inline]
    pub(crate) fn span(&mut self, rec: SpanRecord) {
        if let Some((log, _)) = &mut self.spans {
            let t0 = self.profile.then(Instant::now);
            log.push(rec);
            self.phases.stop(Phase::TraceRecord, t0);
        }
    }

    /// Hand the activity recorded since the last call to `sink`, the
    /// streaming fold's input: a kept log moves its cursor past it, a
    /// streaming-only log is emptied.
    pub(crate) fn drain_activity(&mut self, sink: impl FnOnce(&[Transition])) {
        if let Some(log) = &mut self.activity {
            sink(&log[self.activity_streamed..]);
            if self.keep_activity {
                self.activity_streamed = log.len();
            } else {
                log.clear();
            }
        }
    }

    /// Move this shard's logs into `out`.
    pub(crate) fn hand_over(self, out: &mut Recordings) {
        if let Some(log) = self.activity.filter(|_| self.keep_activity) {
            out.activity.get_or_insert_with(Vec::new).push(log);
        }
        if let Some((log, net)) = self.spans {
            out.spans.get_or_insert_with(Vec::new).push(log);
            match &mut out.net {
                Some(total) => total.merge(&net),
                None => out.net = Some(net),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_ring_round_trips_every_kind() {
        let kinds = [
            EventKind::Sent {
                from: 3,
                to: 9,
                bytes: 128,
                deliver_at: SimTime(777),
            },
            EventKind::Delivered { from: 3, to: 9 },
            EventKind::Timer { rank: 5, token: 42 },
            EventKind::Dropped {
                from: 1,
                to: 2,
                brownout: true,
            },
            EventKind::Dropped {
                from: 1,
                to: 2,
                brownout: false,
            },
            EventKind::Partitioned { from: 0, to: 7 },
            EventKind::Duplicated { from: 4, to: 6 },
            EventKind::Delayed {
                from: 2,
                to: 3,
                spike_ns: 5_000,
            },
            EventKind::CrashLost {
                rank: 11,
                timer: true,
            },
        ];
        let ring = FlightRecorder::new(16);
        for (i, kind) in kinds.iter().enumerate() {
            ring.record(&EventRecord {
                at: SimTime(i as u64 * 10),
                kind: *kind,
            });
        }
        let dumped = ring.dump();
        assert_eq!(dumped.len(), kinds.len());
        for (rec, kind) in dumped.iter().zip(kinds.iter()) {
            assert_eq!(rec.kind, *kind);
        }
        assert_eq!(ring.total_recorded(), kinds.len() as u64);
    }

    #[test]
    fn flight_ring_keeps_only_the_latest_window() {
        let ring = FlightRecorder::new(4);
        for t in 0..10u64 {
            ring.record(&EventRecord {
                at: SimTime(t),
                kind: EventKind::Timer { rank: 0, token: t },
            });
        }
        let at: Vec<u64> = ring.dump().iter().map(|r| r.at.ns()).collect();
        assert_eq!(at, vec![6, 7, 8, 9]);
        assert_eq!(ring.total_recorded(), 10);
    }

    #[test]
    fn flight_ring_skips_unwritten_and_invalid_slots() {
        let ring = FlightRecorder::new(8);
        assert!(ring.dump().is_empty());
        // A torn/garbage slot (bad discriminant) is dropped, not
        // misdecoded.
        assert!(flight_decode([1, 0, 0, 0]).is_none());
        assert!(flight_decode([1, 99u64 << 56, 0, 0]).is_none());
    }

    #[test]
    fn net_trace_tallies_pairs_and_latency() {
        let mut nt = NetTrace::default();
        nt.record(0, 1, 100, 1_000);
        nt.record(0, 1, 50, 3_000);
        nt.record(2, 0, 8, 500);
        assert_eq!(nt.messages(), 3);
        assert_eq!(nt.delivery_histogram().max(), 3_000);
        let mut pairs: Vec<_> = nt.pair_tallies().map(|(k, v)| (*k, *v)).collect();
        pairs.sort_by_key(|(k, _)| *k);
        assert_eq!(
            pairs,
            vec![
                (
                    (0, 1),
                    PairTally {
                        messages: 2,
                        bytes: 150
                    }
                ),
                (
                    (2, 0),
                    PairTally {
                        messages: 1,
                        bytes: 8
                    }
                ),
            ]
        );
    }
}
