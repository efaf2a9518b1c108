//! The discrete-event simulation engine.
//!
//! A [`Simulation`] hosts one [`Actor`] per rank. Two event kinds
//! exist: message deliveries and timers. Actors react to events
//! through a [`Ctx`] handle that lets them send messages (delayed by
//! the pluggable network model), arm timers, query the clock, and draw
//! deterministic random numbers.
//!
//! Design decisions that matter for fidelity:
//!
//! - **Determinism.** Events are ordered by the shard-count-invariant
//!   key `(time, destination rank, source rank, per-source sequence
//!   number)`. All randomness flows from per-rank streams derived from
//!   one seed. Two runs of the same configuration produce identical
//!   results — *including* runs that shard the ranks across worker
//!   threads (see below).
//! - **MPI-like non-overtaking.** Deliveries between a given (source,
//!   destination) pair never reorder, even when a small message follows
//!   a large one — matching MPI's pairwise ordering guarantee that the
//!   UTS implementation relies on.
//! - **Arrival is not handling.** `on_message` fires when the message
//!   *arrives*. A faithful MPI process polls: the work-stealing actor in
//!   `dws-core` buffers arrivals and services them at its polling
//!   points, exactly like the reference `mpi_workstealing.c`.
//! - **One clock.** Every rank reads the global clock ([`Ctx::now`])
//!   and the activity trace is recorded on it
//!   ([`Ctx::record_activity`]), so it needs none of the skew
//!   correction the paper applied to its traces.
//!
//! # One run loop
//!
//! The engine is a conservative parallel-discrete-event simulator with
//! a single driver, [`Simulation::run_parallel_with_limits`]: ranks are
//! partitioned into shards, each shard owns a private event queue and a
//! replica of the network model, and simulated time advances in
//! lookahead windows `[T, T + W)` where `W` is a lower bound on
//! cross-shard message latency. Events generated for another shard
//! always land at or after the window boundary, so exchanging them at a
//! barrier preserves the global event order exactly. Because the event
//! key and every random stream are functions of ranks — never of shard
//! layout — the schedule is bit-identical for any shard and thread
//! count. A simulation that never calls
//! [`Simulation::configure_parallel`] is the same object with one
//! shard, one thread and no lookahead bound: a lone shard has no
//! cross-shard send to bound, so each run call plans a single window.
//! Worker 0 always runs on the calling thread, so a one-thread run
//! spawns nothing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dws_metrics::{OnlineAccounting, ShardSnap, Snapshot, SpanKind, SpanRecord, Transition};

use crate::abort;
use crate::barrier::WindowBarrier;
use crate::fault::{FaultPlan, FaultStats};
use crate::observer::{EventKind as ObsKind, FlightRecorder, Recorder, Recorders, Recordings};
use crate::profiler::{Phase, ShardProfile};
use crate::rng::DetRng;
use crate::time::SimTime;

/// Multiplicative hasher for the (source, destination) FIFO map: the
/// keys are rank pairs the engine packs itself, and the map is probed
/// once per send, where SipHash overhead is measurable. Dead pairs are
/// swept out (see `ShardCore::fifo`), so it stays small enough to cache.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PairHasher only hashes u64 keys");
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing: one multiply, strong high bits.
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
}

type PairMap<V> = HashMap<u64, V, BuildHasherDefault<PairHasher>>;

/// Smallest `ShardCore::fifo` length that triggers a dead-entry sweep.
const FIFO_SWEEP_MIN: usize = 1024;

/// Rank index of an actor (re-exported convention shared with
/// `dws-topology`).
pub type Rank = u32;

/// Salt XOR-ed into the seed for the per-rank network-jitter streams,
/// keeping them disjoint from the actor streams.
const NET_STREAM_SALT: u64 = 0x6A09_E667_F3BC_C908;
/// Salt XOR-ed into the seed for the per-rank fault-draw streams.
const FAULT_STREAM_SALT: u64 = 0xBB67_AE85_84CA_A73B;

/// Latency oracle: one-way delay in nanoseconds for a message.
///
/// `now_ns` is the send time: stateful models (e.g. per-node NIC
/// serialization) need it to compute queueing waits. Pure models ignore
/// it. For use with [`Simulation::new`] the implementation must also be
/// `Clone + Send`, because parallel execution replicates the model per
/// shard; stateful contended models should implement [`NetworkModel`]
/// directly instead.
pub trait LatencyFn {
    /// Delay for a `bytes`-sized message from `from` to `to` sent at
    /// `now_ns`.
    fn latency_ns(&self, from: Rank, to: Rank, bytes: usize, now_ns: u64) -> u64;
}

/// Flat latency: every message takes the same time. Useful in tests and
/// in the flat-network ablation.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency(pub u64);

impl LatencyFn for ConstantLatency {
    fn latency_ns(&self, _from: Rank, _to: Rank, _bytes: usize, _now_ns: u64) -> u64 {
        self.0
    }
}

impl<F> LatencyFn for F
where
    F: Fn(Rank, Rank, usize) -> u64,
{
    fn latency_ns(&self, from: Rank, to: Rank, bytes: usize, _now_ns: u64) -> u64 {
        self(from, to, bytes)
    }
}

/// The engine's view of the interconnect, split into an egress half
/// (evaluated on the sender's shard at send time) and an ingress half
/// (evaluated on the destination's shard in arrival order).
///
/// The split is what lets contention models run sharded: transmit-side
/// state is keyed by the *sender's* node and receive-side state by the
/// *destination's* node, so each shard only ever touches the state of
/// the nodes it owns and the evaluation order of each half is
/// shard-count-invariant.
pub trait NetworkModel: Send {
    /// Nanoseconds from `depart_ns` until the message *arrives* at the
    /// destination NIC: transmit queueing plus wire latency. May mutate
    /// sender-side state; calls arrive in the sender shard's
    /// deterministic send order.
    fn egress_ns(&mut self, from: Rank, to: Rank, bytes: usize, depart_ns: u64) -> u64;

    /// Nanoseconds from arrival (`arrival_ns`) until the destination
    /// NIC has admitted the message and the actor may handle it.
    /// Called once per delivery, in arrival order, on the destination's
    /// shard. The default is zero (no receive-side contention).
    fn ingress_ns(&mut self, _to: Rank, _bytes: usize, _arrival_ns: u64) -> u64 {
        0
    }

    /// A fresh replica for another shard. Replicas partition the work:
    /// each one only ever sees the sends and arrivals of its own
    /// shard's ranks, so per-node state never needs cross-shard
    /// synchronization (provided ranks of one node share a shard).
    fn replicate(&self) -> Box<dyn NetworkModel>;
}

/// Adapter lifting a pure [`LatencyFn`] into a [`NetworkModel`] with
/// zero ingress cost.
#[derive(Debug, Clone)]
pub struct PureNetwork<L>(pub L);

impl<L> NetworkModel for PureNetwork<L>
where
    L: LatencyFn + Clone + Send + 'static,
{
    fn egress_ns(&mut self, from: Rank, to: Rank, bytes: usize, depart_ns: u64) -> u64 {
        self.0.latency_ns(from, to, bytes, depart_ns)
    }

    fn replicate(&self) -> Box<dyn NetworkModel> {
        Box::new(self.clone())
    }
}

/// A simulated process.
pub trait Actor {
    /// Message type exchanged between actors.
    type Msg;

    /// Called once at time zero, before any event.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a message from `from` arrives at this actor.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: Rank, msg: Self::Msg);

    /// Called when a timer armed with [`Ctx::set_timer`] fires; `token`
    /// is the value passed when arming.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64);

    /// Read-only vital signs for the streaming snapshot stream
    /// ([`Recorders::streaming`]). Called between windows,
    /// never during event dispatch, so it cannot affect the schedule.
    /// The default reports nothing; schedulers override it.
    fn live_stats(&self) -> LiveStats {
        LiveStats::default()
    }
}

/// Per-actor vital signs aggregated into each streaming [`Snapshot`].
/// All counters are cumulative; the engine sums them across ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Work units currently queued and ready to execute.
    pub ready_chunks: u64,
    /// Successful steals completed so far.
    pub steals_ok: u64,
    /// Empty-handed steal replies received so far.
    pub steals_empty: u64,
    /// Times this actor quarantined a victim so far.
    pub quarantined: u64,
}

impl LiveStats {
    /// Accumulate another actor's stats into this one.
    pub fn absorb(&mut self, other: &LiveStats) {
        self.ready_chunks += other.ready_chunks;
        self.steals_ok += other.steals_ok;
        self.steals_empty += other.steals_empty;
        self.quarantined += other.quarantined;
    }
}

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; all per-rank and network randomness derives from it.
    pub seed: u64,
    /// Multiplicative latency jitter: each delivery is stretched by a
    /// uniform factor in `[1, 1 + jitter)`. Zero disables jitter.
    pub latency_jitter: f64,
    /// Fault-injection schedule. The default plan injects nothing and
    /// leaves the event schedule byte-identical to a fault-free build.
    pub fault: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0xD157_1A11,
            latency_jitter: 0.0,
            fault: FaultPlan::default(),
        }
    }
}

/// Sharding parameters for [`Simulation::configure_parallel`].
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of worker threads for
    /// [`run_parallel_with_limits`](Simulation::run_parallel_with_limits).
    /// Clamped to at least 1 and capped at the shard count. Thread
    /// count never affects the shard layout (or any run artifact): with
    /// `M` shards on `T` threads, thread `t` owns the contiguous run of
    /// shards `g` with `g·T/M == t` for the whole run.
    pub threads: u32,
    /// Conservative lookahead window width: a lower bound on the
    /// latency of any cross-shard message. The engine asserts the bound
    /// at send time; a violation is a model/shard-map bug, not a race.
    /// Clamped to at least 1 ns.
    pub lookahead_ns: u64,
    /// Optional explicit rank→shard map (length = rank count); the
    /// shard count is `max(entry) + 1`, independent of `threads`.
    /// `None` shards ranks into `threads` contiguous equal blocks.
    /// Contention models require all ranks of a physical node to share
    /// a shard; callers with a topology must derive the map from it.
    pub shard_of: Option<Vec<u32>>,
}

impl ParallelConfig {
    /// Contiguous-block sharding over `threads` shards with the given
    /// lookahead bound.
    pub fn new(threads: u32, lookahead_ns: u64) -> Self {
        Self {
            threads,
            lookahead_ns,
            shard_of: None,
        }
    }

    /// Replace the default contiguous sharding with an explicit map.
    pub fn with_shard_map(mut self, shard_of: Vec<u32>) -> Self {
        self.shard_of = Some(shard_of);
        self
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Time of the last processed event.
    pub end_time: SimTime,
    /// Total events processed (deliveries + timers).
    pub events: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Timers fired.
    pub timers: u64,
    /// True if a time/event limit or a streaming abort stopped the run
    /// before the event queue drained.
    pub halted: bool,
}

/// Configuration for the streaming telemetry subsystem
/// ([`Recorders::streaming`]): snapshot cadence, the per-shard
/// flight-recorder ring, and the emergency-abort budgets.
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
struct Cadence {
    every_sim_ns: u64,
    /// Next simulated-time snapshot threshold.
    next_sim: u64,
}

impl Cadence {
    /// Whether the window ending at `end_ns` crosses a snapshot
    /// threshold. Pure function of schedule state.
    fn due(&self, end_ns: u64) -> bool {
        end_ns >= self.next_sim
    }

    /// Advance the threshold after emitting at `end_ns` to the next
    /// mark of the fixed grid `k · every`, so how far a window
    /// overshot one mark never moves the next. Window ends are
    /// schedule-deterministic, so the emission points are identical for
    /// every thread count.
    fn advance(&mut self, end_ns: u64) {
        let every = self.every_sim_ns.max(1);
        self.next_sim = (end_ns / every).saturating_add(1).saturating_mul(every);
    }
}

/// Live state of an attached streaming subsystem.
struct StreamState {
    cfg: StreamingCfg,
    accounting: OnlineAccounting,
    sink: Option<Box<dyn Write + Send>>,
    seq: u64,
    cadence: Cadence,
    run_started: Instant,
    last_emit: Instant,
    last_events: u64,
    rss_countdown: u32,
    /// SIGTERM generation when the run started; only signals arriving
    /// after that count as an abort request for this run.
    sigterm_base: u64,
}

impl StreamState {
    fn new(cfg: StreamingCfg, sink: Option<Box<dyn Write + Send>>, n_ranks: u32) -> Self {
        let now = Instant::now();
        Self {
            cadence: Cadence {
                every_sim_ns: cfg.snapshot_every_sim_ns,
                next_sim: cfg.snapshot_every_sim_ns,
            },
            cfg,
            accounting: OnlineAccounting::new(n_ranks),
            sink,
            seq: 0,
            run_started: now,
            last_emit: now,
            last_events: 0,
            rss_countdown: 0,
            sigterm_base: abort::sigterm_generation(),
        }
    }

    /// Assemble a snapshot from the folded accounting plus published
    /// per-shard rows and live stats. Reads the wall clock
    /// (observation only).
    fn make_snapshot(&mut self, events: u64, shards: Vec<ShardSnap>, live: LiveStats) -> Snapshot {
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
        Snapshot {
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
        }
    }

    /// Write one snapshot line (and the `--live` stderr line).
    fn emit(&mut self, snap: &Snapshot) {
        if let Some(sink) = &mut self.sink {
            let _ = writeln!(sink, "{}", snap.to_json());
            let _ = sink.flush();
        }
        if self.cfg.live {
            eprintln!("{}", snap.progress_line());
        }
        self.seq += 1;
    }

    /// Check the emergency-abort conditions: SIGTERM, wall budget,
    /// RSS budget (throttled). Returns the abort reason, if any.
    fn abort_reason(&mut self) -> Option<&'static str> {
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
struct ShardPub {
    activity: Vec<Transition>,
    snap: Option<ShardSnap>,
    live: LiveStats,
}

/// Fold every shard's published activity into the streaming
/// accounting and take their snapshot rows and live stats (worker 0,
/// after a mark's extra barrier).
fn drain_published(st: &mut StreamState, pubs: &[Mutex<ShardPub>]) -> (Vec<ShardSnap>, LiveStats) {
    let mut snaps = Vec::with_capacity(pubs.len());
    let mut live = LiveStats::default();
    for slot in pubs {
        let mut p = slot.lock().expect("publish slot poisoned");
        st.accounting.record_all(&p.activity);
        p.activity.clear();
        snaps.extend(p.snap.take());
        live.absorb(&p.live);
    }
    st.accounting.fold();
    (snaps, live)
}

/// Publish `shard`'s part of a snapshot into its slot: the activity
/// transitions it recorded since the last mark, its row — counting
/// `inbound` events waiting for it in the exchange cells as queued —
/// and its summed live stats.
fn publish_rows<A: Actor>(shard: &mut Shard<A>, slot: &Mutex<ShardPub>, inbound: usize) {
    let mut p = slot.lock().expect("publish slot poisoned");
    if let Some(rec) = &mut shard.core.rec {
        rec.drain_activity(|new| p.activity.extend_from_slice(new));
    }
    p.snap = Some(shard_snap(&shard.core, inbound));
    p.live = shard.live_stats();
}

/// Book one barrier crossing that kept a worker `waited` host ns to
/// its shards `own`: split evenly, with the remainder and the crossing
/// on the first, so the shards' waits sum to every wait exactly.
fn book_wait<A: Actor>(own: &mut [Shard<A>], waited: u64) {
    let n = own.len() as u64;
    for (i, shard) in own.iter_mut().enumerate() {
        if let Some(rec) = &mut shard.core.rec {
            let first = u64::from(i == 0);
            let ns = waited / n + first * (waited % n);
            rec.phases.add(Phase::Barrier, first, ns);
        }
    }
}

/// Snapshot row for one shard's current engine state; `inbound` events
/// bound for it sit in the exchange cells.
fn shard_snap<M>(core: &ShardCore<M>, inbound: usize) -> ShardSnap {
    let (busy_ns, wait_ns) = core.rec.as_ref().map_or((0, 0), |rec| {
        (rec.busy_ns, rec.phases.get(Phase::Barrier).1)
    });
    ShardSnap {
        shard: core.id as u32,
        now_ns: core.now.ns(),
        windows: core.windows,
        events: core.events,
        queue_depth: (core.queue.len() + inbound) as u64,
        busy_ns,
        wait_ns,
    }
}

enum EventKind<M> {
    Deliver {
        bytes: u32,
        /// True once receive-side NIC admission has been charged; the
        /// engine re-enqueues un-admitted deliveries at their admitted
        /// time when the model reports a positive ingress delay.
        admitted: bool,
        msg: M,
    },
    Timer {
        token: u64,
    },
}

/// An event keyed for shard-count-invariant ordering: `(time, dst,
/// src, sseq)`. `sseq` is a per-source-rank counter, so the key is
/// unique and depends only on per-rank histories — never on shard
/// layout or global send interleaving. Outboxes and exchange cells
/// carry whole events; a shard's queue splits them into an
/// [`EventKey`] and a payload slot ([`EventQueue`]).
struct Event<M> {
    time: SimTime,
    dst: Rank,
    src: Rank,
    sseq: u64,
    kind: EventKind<M>,
}

/// A queued event's canonical key plus the slab slot holding its
/// payload: 32 bytes, two to a cache line, whatever the message type.
/// The derived order is `(time, dst, src, sseq)` — the only ordering
/// definition in the engine — and `slot` never decides it, because the
/// key before it is unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: SimTime,
    dst: Rank,
    src: Rank,
    sseq: u64,
    slot: u32,
}

/// One shard's pending events: a binary min-heap of [`EventKey`]s over
/// a payload slab with a free list. The heap sifts keys only, and a
/// popped event's slot is reused by the next push, so steady state
/// allocates nothing. Any exact priority queue over a unique key pops
/// the identical sequence, so this layout cannot move an event.
struct EventQueue<M> {
    heap: BinaryHeap<Reverse<EventKey>>,
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> EventQueue<M> {
    fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            slab: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    #[inline]
    fn push(&mut self, ev: Event<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev.kind);
                slot
            }
            None => {
                self.slab.push(Some(ev.kind));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(EventKey {
            time: ev.time,
            dst: ev.dst,
            src: ev.src,
            sseq: ev.sseq,
            slot,
        }));
    }

    /// Earliest pending event time.
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.0.time)
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<M>> {
        let Reverse(k) = self.heap.pop()?;
        let kind = self.slab[k.slot as usize]
            .take()
            .expect("queued key without a payload");
        self.free.push(k.slot);
        Some(Event {
            time: k.time,
            dst: k.dst,
            src: k.src,
            sseq: k.sseq,
            kind,
        })
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// FNV-1a basis/prime for the window-plan digest.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Mix one value into an FNV-1a running hash.
#[inline]
fn fnv1a(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-rank deterministic state. Every stream is a function of the
/// master seed and the rank alone, which is what makes the schedule
/// independent of how ranks are sharded.
struct RankState {
    rng: DetRng,
    net_rng: DetRng,
    fault_rng: DetRng,
    /// Next per-source sequence number (events this rank creates).
    sseq: u64,
}

impl RankState {
    #[inline]
    fn next_sseq(&mut self) -> u64 {
        let s = self.sseq;
        self.sseq += 1;
        s
    }
}

/// Read-only context every shard shares during a run; one field of
/// [`Simulation`], borrowed beside the mutably borrowed shards.
struct Shared {
    n_ranks: u32,
    /// Rank → (shard, slot-within-shard).
    rank_loc: Vec<(u32, u32)>,
    crash_at: Vec<Option<u64>>,
    fault: FaultPlan,
    fault_active: bool,
    jitter: f64,
    /// Lower bound on cross-shard message latency. `u64::MAX` (no
    /// bound: a lone shard has no cross-shard send) until
    /// [`Simulation::configure_parallel`] sets one.
    lookahead_ns: u64,
}

#[inline]
fn crashed_at(crash_at: &[Option<u64>], rank: Rank, at: SimTime) -> bool {
    crash_at[rank as usize].is_some_and(|t| at.ns() >= t)
}

/// Mutable per-shard engine state: event queue, FIFO map, network
/// replica, counters, and the shard's recorder.
struct ShardCore<M> {
    id: usize,
    now: SimTime,
    /// Pending events, minimum canonical key first.
    queue: EventQueue<M>,
    /// Earliest delivery time still free per (from, to) pair, one tick
    /// past its last scheduled delivery, to enforce MPI non-overtaking.
    /// Only pairs with a local sender appear. No send is scheduled
    /// before `now`, so an entry at or before `now` is dead; `send`
    /// sweeps those out when the map reaches `fifo_sweep_at` entries.
    fifo: PairMap<SimTime>,
    fifo_sweep_at: usize,
    net: Box<dyn NetworkModel>,
    delivered: u64,
    timers: u64,
    messages_sent: u64,
    /// Events processed (deliveries + timers + crash-lost), cumulative.
    events: u64,
    fault_stats: FaultStats,
    /// Everything the shard records; `None` when nothing does.
    rec: Option<Recorder>,
    /// Events destined for other shards, exchanged at window barriers.
    outboxes: Vec<Vec<Event<M>>>,
    /// Destination shards whose outbox became non-empty since the last
    /// exchange — the exchange walks this list instead of scanning all
    /// M outboxes, keeping the per-window cost proportional to actual
    /// cross-shard traffic rather than O(shards²).
    dirty_out: Vec<u32>,
    windows: u64,
}

impl<M> ShardCore<M> {
    /// A fresh core for shard `id` of `n_shards`, owning `ranks` ranks,
    /// recording nothing.
    fn new(id: usize, n_shards: usize, ranks: usize, net: Box<dyn NetworkModel>) -> Self {
        Self {
            id,
            now: SimTime::ZERO,
            // Runs hold one or two pending events per rank (DESIGN
            // §10.1): room for two means the queue rarely regrows.
            queue: EventQueue::with_capacity(2 * ranks),
            fifo: PairMap::default(),
            fifo_sweep_at: FIFO_SWEEP_MIN,
            net,
            delivered: 0,
            timers: 0,
            messages_sent: 0,
            events: 0,
            fault_stats: FaultStats::default(),
            rec: None,
            outboxes: (0..n_shards).map(|_| Vec::new()).collect(),
            dirty_out: Vec::new(),
            windows: 0,
        }
    }

    /// Start timing a phase region: the host clock when the run
    /// profiles, else `None` and no clock is read.
    #[inline]
    fn phase_start(&self) -> Option<Instant> {
        self.rec.as_ref().and_then(Recorder::phase_start)
    }

    /// Book the region started at `t0` to `phase` in the shard's
    /// recorder.
    #[inline]
    fn phase_stop(&mut self, phase: Phase, t0: Option<Instant>) {
        if let Some(rec) = &mut self.rec {
            rec.phases.stop(phase, t0);
        }
    }

    /// Start a window clock: the host clock when the run profiles or
    /// streams, else `None` and no clock is read.
    #[inline]
    fn window_start(&self) -> Option<Instant> {
        self.rec.as_ref().and_then(Recorder::window_start)
    }

    /// Book the host time since `b0` as the shard's busy time.
    fn book_busy(&mut self, b0: Option<Instant>) {
        if let (Some(b0), Some(rec)) = (b0, &mut self.rec) {
            rec.busy_ns += b0.elapsed().as_nanos() as u64;
        }
    }

    #[inline]
    fn push_local(&mut self, ev: Event<M>) {
        self.queue.push(ev);
    }

    /// Enqueue locally or hand off to the destination shard's outbox,
    /// asserting the conservative lookahead bound for the latter.
    fn route(&mut self, shared: &Shared, ev: Event<M>) {
        let dst_shard = shared.rank_loc[ev.dst as usize].0 as usize;
        if dst_shard == self.id {
            self.push_local(ev);
        } else {
            assert!(
                ev.time.ns() >= self.now.ns().saturating_add(shared.lookahead_ns),
                "cross-shard event at {} violates the lookahead bound ({} ns past {}): \
                 the network model's minimum cross-shard latency is below the configured \
                 lookahead, or ranks sharing contended node state were split across shards",
                ev.time.ns(),
                shared.lookahead_ns,
                self.now.ns(),
            );
            if self.outboxes[dst_shard].is_empty() {
                self.dirty_out.push(dst_shard as u32);
            }
            self.outboxes[dst_shard].push(ev);
        }
    }

    /// Record a delivery, timer or fault outcome, now.
    #[inline]
    fn log_event(&mut self, kind: ObsKind) {
        if let Some(rec) = &mut self.rec {
            rec.event(self.now, kind);
        }
    }
}

impl<M: Clone> ShardCore<M> {
    // The argument list mirrors the wire-level tuple of a message
    // (route, size, service delay, payload); bundling it into a struct
    // would just rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        shared: &Shared,
        state: &mut RankState,
        from: Rank,
        to: Rank,
        bytes: usize,
        extra_delay_ns: u64,
        msg: M,
    ) {
        let depart_ns = self.now.ns() + extra_delay_ns;
        let mut spike_ns = 0u64;
        let mut duplicate = false;
        if shared.fault_active {
            let t0 = self.phase_start();
            // Fixed draw order — drop, spike, dup — one draw each per
            // send, from the *sender's* fault stream, so the fault
            // schedule is a pure function of the seed and each rank's
            // own send history, independent of shard layout.
            let u_drop = state.fault_rng.next_f64();
            let u_spike = state.fault_rng.next_f64();
            let u_dup = state.fault_rng.next_f64();
            if shared.fault.in_brownout(from, depart_ns) || shared.fault.in_brownout(to, depart_ns)
            {
                self.fault_stats.brownout_drops += 1;
                self.messages_sent += 1;
                self.phase_stop(Phase::FaultEval, t0);
                self.log_event(ObsKind::Dropped {
                    from,
                    to,
                    brownout: true,
                });
                return;
            }
            // Partition cuts are window-based like brownouts and consume
            // no RNG draws — the three draws above already happened, so
            // the surviving traffic's fault schedule is unchanged by
            // adding a partition to the plan.
            if shared.fault.partitioned(from, to, depart_ns) {
                self.fault_stats.partition_drops += 1;
                self.messages_sent += 1;
                self.phase_stop(Phase::FaultEval, t0);
                self.log_event(ObsKind::Partitioned { from, to });
                return;
            }
            if u_drop < shared.fault.drop_prob {
                self.fault_stats.dropped += 1;
                self.messages_sent += 1;
                self.phase_stop(Phase::FaultEval, t0);
                self.log_event(ObsKind::Dropped {
                    from,
                    to,
                    brownout: false,
                });
                return;
            }
            if u_spike < shared.fault.spike_prob {
                spike_ns = shared.fault.spike_ns(state.fault_rng.next_f64());
                self.fault_stats.spiked += 1;
            }
            duplicate = u_dup < shared.fault.dup_prob;
            self.phase_stop(Phase::FaultEval, t0);
            if spike_ns > 0 {
                self.log_event(ObsKind::Delayed { from, to, spike_ns });
            }
        }
        let mut delay = self.net.egress_ns(from, to, bytes, depart_ns);
        if shared.jitter > 0.0 {
            let stretch = 1.0 + shared.jitter * state.net_rng.next_f64();
            delay = (delay as f64 * stretch) as u64;
        }
        delay += spike_ns;
        let key = ((from as u64) << 32) | to as u64;
        let natural = self.now + extra_delay_ns + delay;
        if self.fifo.len() >= self.fifo_sweep_at {
            // The next sweep waits for as many inserts as this one keeps
            // and the table shrinks with it: amortised O(1) per send.
            self.fifo.retain(|_, free| *free > self.now);
            self.fifo_sweep_at = (2 * self.fifo.len()).max(FIFO_SWEEP_MIN);
            self.fifo.shrink_to(self.fifo_sweep_at);
        }
        let free = self.fifo.entry(key).or_default();
        let at = natural.max(*free);
        *free = at + 1;
        self.messages_sent += 1;
        if let Some(rec) = &mut self.rec {
            // Network latency as experienced by the message: scheduled
            // arrival minus departure, so FIFO pushback and spikes are
            // included (receive-side NIC admission is charged later).
            rec.sent(self.now, from, to, bytes as u32, at, at.ns() - depart_ns);
        }
        let sseq = state.next_sseq();
        if duplicate {
            // The duplicate rides one tick behind the original and is
            // exempt from FIFO ordering: it is a fault, not a message.
            self.fault_stats.duplicated += 1;
            self.log_event(ObsKind::Duplicated { from, to });
            let dup = Event {
                time: at + 1,
                dst: to,
                src: from,
                sseq: state.next_sseq(),
                kind: EventKind::Deliver {
                    bytes: bytes as u32,
                    admitted: false,
                    msg: msg.clone(),
                },
            };
            self.route(shared, dup);
        }
        self.route(
            shared,
            Event {
                time: at,
                dst: to,
                src: from,
                sseq,
                kind: EventKind::Deliver {
                    bytes: bytes as u32,
                    admitted: false,
                    msg,
                },
            },
        );
    }
}

/// Handle passed to actor callbacks.
pub struct Ctx<'a, M> {
    core: &'a mut ShardCore<M>,
    shared: &'a Shared,
    state: &'a mut RankState,
    me: Rank,
}

impl<M> Ctx<'_, M> {
    /// This actor's rank.
    #[inline]
    pub fn me(&self) -> Rank {
        self.me
    }

    /// Number of ranks in the simulation.
    #[inline]
    pub fn n_ranks(&self) -> u32 {
        self.shared.n_ranks
    }

    /// The global simulated clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Record an active/idle transition of this rank at the current
    /// *global* time, for [`Recorders::activity`] and streaming. One
    /// branch when nothing records; no timer, message or RNG draw
    /// depends on it, so the schedule is identical either way.
    #[inline]
    pub fn record_activity(&mut self, active: bool) {
        if let Some(rec) = &mut self.core.rec {
            rec.activity(Transition {
                rank: self.me,
                at_ns: self.core.now.ns(),
                active,
            });
        }
    }

    /// Start timing one of this actor's own phases, such as a victim
    /// draw: the host clock when the run profiles
    /// ([`Recorders::profiler`]), else `None` and no clock is read.
    /// Pair with [`phase_stop`](Self::phase_stop).
    #[inline]
    pub fn phase_start(&self) -> Option<Instant> {
        self.core.phase_start()
    }

    /// Book the region started at `t0` to `phase` in the shard's
    /// profile; `None` books nothing.
    #[inline]
    pub fn phase_stop(&mut self, phase: Phase, t0: Option<Instant>) {
        self.core.phase_stop(phase, t0);
    }

    /// Record one causal span of this rank at the current *global*
    /// time, for [`Recorders::spans`]. One branch when nothing records;
    /// no timer, message or RNG draw depends on it, so the schedule is
    /// identical with spans on or off.
    #[inline]
    pub fn record_span(&mut self, trace: u64, kind: SpanKind) {
        if let Some(rec) = &mut self.core.rec {
            rec.span(SpanRecord {
                at_ns: self.core.now.ns(),
                rank: self.me as usize,
                trace,
                kind,
            });
        }
    }

    /// Arm a timer to fire after `delay_ns`; `token` is returned to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        let at = self.core.now + delay_ns;
        // Timers are always shard-local: dst == src == me.
        let ev = Event {
            time: at,
            dst: self.me,
            src: self.me,
            sseq: self.state.next_sseq(),
            kind: EventKind::Timer { token },
        };
        self.core.push_local(ev);
    }

    /// Perfect failure detector: true if `rank` has crashed by now.
    ///
    /// Real systems approximate this with heartbeats and suspicion
    /// timeouts; the simulation exposes the oracle so recovery logic
    /// can be studied separately from detection accuracy.
    pub fn is_crashed(&self, rank: Rank) -> bool {
        crashed_at(&self.shared.crash_at, rank, self.core.now)
    }

    /// This rank's deterministic random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.state.rng
    }
}

impl<M: Clone> Ctx<'_, M> {
    /// Send `msg` (`bytes` long on the wire) to rank `to`.
    ///
    /// # Panics
    /// Panics if `to` is out of range or is the sender itself: the UTS
    /// protocol never self-sends, so a self-send is a scheduler bug.
    pub fn send(&mut self, to: Rank, bytes: usize, msg: M) {
        self.send_delayed(to, bytes, 0, msg);
    }

    /// Like [`send`](Self::send), but the message leaves the sender
    /// `extra_delay_ns` from now — modelling local processing that must
    /// complete before the message hits the wire (e.g. a victim working
    /// through a queue of steal requests one at a time).
    pub fn send_delayed(&mut self, to: Rank, bytes: usize, extra_delay_ns: u64, msg: M) {
        assert!(to < self.shared.n_ranks, "send to unknown rank {to}");
        assert!(to != self.me, "rank {to} attempted to send to itself");
        self.core.send(
            self.shared,
            self.state,
            self.me,
            to,
            bytes,
            extra_delay_ns,
            msg,
        );
    }
}

/// One shard: the ranks it owns (actors + per-rank state, in rank
/// order) plus its engine core.
struct Shard<A: Actor> {
    members: Vec<Rank>,
    actors: Vec<A>,
    states: Vec<RankState>,
    core: ShardCore<A::Msg>,
}

impl<A: Actor> Shard<A> {
    /// Live stats summed over the shard's actors.
    fn live_stats(&self) -> LiveStats {
        let mut live = LiveStats::default();
        for actor in &self.actors {
            live.absorb(&actor.live_stats());
        }
        live
    }

    fn start(&mut self, shared: &Shared) {
        for i in 0..self.members.len() {
            let rank = self.members[i];
            // A rank crashed at time zero never runs at all.
            if !(shared.fault_active && crashed_at(&shared.crash_at, rank, SimTime::ZERO)) {
                self.dispatch(shared, rank, Call::Start);
            }
        }
    }

    /// Process queued events with `time < end_ns` (and `time <=
    /// max_time_ns` when set), leaving later events queued.
    fn run_window(&mut self, shared: &Shared, end_ns: u64, max_time_ns: Option<u64>) {
        while let Some(t) = self.core.queue.peek_time() {
            let t = t.ns();
            if t >= end_ns || max_time_ns.is_some_and(|mt| t > mt) {
                break;
            }
            let ev = self.core.queue.pop().expect("peeked");
            self.process(shared, ev);
        }
        self.core.windows += 1;
    }

    fn process(&mut self, shared: &Shared, ev: Event<A::Msg>) {
        let Event {
            time,
            dst,
            src,
            sseq,
            kind,
        } = ev;
        match kind {
            EventKind::Deliver {
                bytes,
                admitted,
                msg,
            } => {
                if !admitted {
                    // Charge receive-side NIC admission in arrival
                    // order; a busy NIC defers the delivery to its
                    // admitted time without consuming an event.
                    let wait = self.core.net.ingress_ns(dst, bytes as usize, time.ns());
                    if wait > 0 {
                        self.core.push_local(Event {
                            time: time + wait,
                            dst,
                            src,
                            sseq,
                            kind: EventKind::Deliver {
                                bytes,
                                admitted: true,
                                msg,
                            },
                        });
                        return;
                    }
                }
                self.core.now = time;
                self.core.events += 1;
                if shared.fault_active && crashed_at(&shared.crash_at, dst, time) {
                    // The destination died before this arrived; the
                    // bytes hit a dead NIC.
                    self.core.fault_stats.crash_lost_deliveries += 1;
                    self.core.log_event(ObsKind::CrashLost {
                        rank: dst,
                        timer: false,
                    });
                } else {
                    self.core.delivered += 1;
                    self.core
                        .log_event(ObsKind::Delivered { from: src, to: dst });
                    self.dispatch(shared, dst, Call::Message { from: src, msg });
                }
            }
            EventKind::Timer { token } => {
                self.core.now = time;
                self.core.events += 1;
                if shared.fault_active && crashed_at(&shared.crash_at, dst, time) {
                    self.core.fault_stats.crash_lost_timers += 1;
                    self.core.log_event(ObsKind::CrashLost {
                        rank: dst,
                        timer: true,
                    });
                } else {
                    self.core.timers += 1;
                    self.core.log_event(ObsKind::Timer { rank: dst, token });
                    self.dispatch(shared, dst, Call::Timer { token });
                }
            }
        }
    }

    /// Run one actor callback for `rank`, timed as one dispatch.
    /// Inlined so each call site keeps only its own callback.
    #[inline(always)]
    fn dispatch(&mut self, shared: &Shared, rank: Rank, call: Call<A::Msg>) {
        let slot = shared.rank_loc[rank as usize].1 as usize;
        let t0 = self.core.phase_start();
        let mut ctx = Ctx {
            core: &mut self.core,
            shared,
            state: &mut self.states[slot],
            me: rank,
        };
        let actor = &mut self.actors[slot];
        match call {
            Call::Start => actor.on_start(&mut ctx),
            Call::Message { from, msg } => actor.on_message(&mut ctx, from, msg),
            Call::Timer { token } => actor.on_timer(&mut ctx, token),
        }
        self.core.phase_stop(Phase::Dispatch, t0);
    }
}

/// The actor callback one dispatch runs.
enum Call<M> {
    Start,
    Message { from: Rank, msg: M },
    Timer { token: u64 },
}

/// What the (identical, per-shard) window decision concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Stop the run; `limit` marks a time/event limit rather than a
    /// drained queue.
    Stop { limit: bool },
    /// Execute one more window ending (exclusively) at `end`.
    Window { end: u64 },
}

/// The shared stop/continue decision. Every shard computes this from
/// identically published values, so all shards always agree — the
/// driver needs no leader.
///
/// A window ends at `min_next + lookahead`: no event before
/// `min_next` exists and a cross-shard send lands at least `lookahead`
/// past its sender's clock, so nothing sent inside the window can land
/// inside it. `min_next` is a pure function of schedule state, so the
/// window plan is identical for every thread count.
fn decide(
    min_next: Option<u64>,
    events: u64,
    max_time_ns: Option<u64>,
    max_events: Option<u64>,
    lookahead_ns: u64,
) -> Verdict {
    if let Some(me) = max_events {
        if events >= me {
            return Verdict::Stop { limit: true };
        }
    }
    let t = match min_next {
        None => return Verdict::Stop { limit: false },
        Some(t) => t,
    };
    if let Some(mt) = max_time_ns {
        if t > mt {
            return Verdict::Stop { limit: true };
        }
    }
    Verdict::Window {
        end: t.saturating_add(lookahead_ns),
    }
}

/// Split `shards` into the runs `threads` worker threads own: thread
/// `t` gets the contiguous shards `g` with `g·T/M == t`, as one `&mut`
/// slice together with the index of its first shard. Ownership never
/// moves, so no two threads can ever reach the same shard. With
/// `1 <= T <= M` every run is non-empty.
fn split_by_thread<S>(mut rest: &mut [S], threads: usize) -> Vec<(usize, &mut [S])> {
    let m = rest.len();
    let mut runs = Vec::with_capacity(threads);
    let mut first = 0;
    for t in 0..threads {
        // `g·T/M <= t` exactly when `g < ⌈(t+1)·M/T⌉`.
        let end = ((t + 1) * m).div_ceil(threads);
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(end - first);
        runs.push((first, run));
        rest = tail;
        first = end;
    }
    runs
}

/// One shard's published window-plan inputs, one parity copy. The
/// driver keeps two copies per shard ([`GroupSlot`]s are
/// double-buffered by window parity): iteration `k` reads parity
/// `k & 1` and writes parity `(k + 1) & 1`, and the per-window barrier
/// fences each slot's reuse — a writer touches parity `p` again only
/// after every reader of `p` has passed the barrier in between.
struct GroupSlot {
    /// Earliest event the shard holds, queued or deposited for a peer
    /// (`u64::MAX` = none).
    min_next: AtomicU64,
    /// Cumulative events processed by the shard.
    events: AtomicU64,
}

impl GroupSlot {
    fn new() -> Self {
        Self {
            min_next: AtomicU64::new(u64::MAX),
            events: AtomicU64::new(0),
        }
    }
}

/// A discrete-event simulation over `n` actors.
pub struct Simulation<A: Actor> {
    shards: Vec<Shard<A>>,
    shared: Shared,
    /// Worker threads for the driver (≤ shard count); purely a host
    /// execution knob, never consulted by the schedule.
    exec_threads: u32,
    /// FNV-1a hash over the sequence of window end times (the window
    /// *plan*), plus the window count — schedule-invariant, so every
    /// thread count must derive the identical pair.
    plan_digest: u64,
    plan_windows: u64,
    started: bool,
    /// What to record, until the first run gives it to the shards.
    recorders: Option<Recorders>,
    streaming: Option<StreamState>,
}

impl<A: Actor> Simulation<A> {
    /// Build a simulation from per-rank actors, a latency oracle and a
    /// configuration.
    ///
    /// # Panics
    /// Panics if `actors` is empty or the fault plan fails validation.
    pub fn new<L>(actors: Vec<A>, latency: L, config: SimConfig) -> Self
    where
        L: LatencyFn + Clone + Send + 'static,
    {
        Self::with_network(actors, Box::new(PureNetwork(latency)), config)
    }

    /// Like [`new`](Self::new), but with an explicit (possibly
    /// stateful, contended) [`NetworkModel`].
    ///
    /// # Panics
    /// Panics if `actors` is empty or the fault plan fails validation.
    pub fn with_network(actors: Vec<A>, net: Box<dyn NetworkModel>, config: SimConfig) -> Self {
        assert!(!actors.is_empty(), "simulation needs at least one actor");
        let n = actors.len() as u32;
        if let Err(e) = config.fault.validate(n) {
            panic!("invalid fault plan: {e}");
        }
        let states: Vec<RankState> = (0..n)
            .map(|r| RankState {
                rng: DetRng::for_rank(config.seed, r),
                net_rng: DetRng::for_rank(config.seed ^ NET_STREAM_SALT, r),
                fault_rng: DetRng::for_rank(config.seed ^ FAULT_STREAM_SALT, r),
                sseq: 0,
            })
            .collect();
        let shard = Shard {
            members: (0..n).collect(),
            actors,
            states,
            core: ShardCore::new(0, 1, n as usize, net),
        };
        Self {
            shards: vec![shard],
            shared: Shared {
                n_ranks: n,
                rank_loc: (0..n).map(|r| (0, r)).collect(),
                crash_at: (0..n).map(|r| config.fault.crash_time(r)).collect(),
                fault_active: config.fault.is_active(),
                fault: config.fault,
                jitter: config.latency_jitter,
                lookahead_ns: u64::MAX,
            },
            exec_threads: 1,
            plan_digest: FNV_OFFSET,
            plan_windows: 0,
            started: false,
            recorders: None,
            streaming: None,
        }
    }

    /// Partition the ranks into `cfg`'s shards and bound the lookahead
    /// windows by `cfg.lookahead_ns`. Must be called before the first
    /// run and at most once, before or after [`record`](Self::record).
    /// The schedule is identical for every shard and
    /// thread count, and identical to the unconfigured one; what
    /// configuring changes is host execution and limit granularity
    /// (see [`run_parallel_with_limits`](Self::run_parallel_with_limits)).
    ///
    /// # Panics
    /// Panics if the simulation already ran, on a second call, or if an
    /// explicit shard map is malformed.
    pub fn configure_parallel(&mut self, cfg: ParallelConfig) {
        assert!(
            !self.started,
            "configure_parallel must be called before the first run"
        );
        assert!(
            self.shared.lookahead_ns == u64::MAX,
            "configure_parallel may only be called once"
        );
        let n = self.shared.n_ranks as usize;
        let threads = cfg.threads.max(1);
        let map: Vec<u32> = match cfg.shard_of {
            Some(m) => {
                assert_eq!(m.len(), n, "shard map length must equal rank count");
                m
            }
            None => (0..n)
                .map(|r| ((r as u64 * threads as u64) / n as u64) as u32)
                .collect(),
        };
        let n_shards = map.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut groups: Vec<Vec<Rank>> = vec![Vec::new(); n_shards];
        for (r, &s) in map.iter().enumerate() {
            groups[s as usize].push(r as Rank);
        }
        let groups: Vec<Vec<Rank>> = groups.into_iter().filter(|g| !g.is_empty()).collect();
        let s_count = groups.len();

        let old = self.shards.pop().expect("exactly one shard");
        let Shard {
            actors,
            states,
            core,
            ..
        } = old;
        let mut nets: Vec<Box<dyn NetworkModel>> =
            (1..s_count).map(|_| core.net.replicate()).collect();
        nets.insert(0, core.net);
        let mut actor_slots: Vec<Option<A>> = actors.into_iter().map(Some).collect();
        let mut state_slots: Vec<Option<RankState>> = states.into_iter().map(Some).collect();

        for (id, (members, net)) in groups.into_iter().zip(nets).enumerate() {
            let shard_actors: Vec<A> = members
                .iter()
                .map(|&r| actor_slots[r as usize].take().expect("each rank once"))
                .collect();
            let shard_states: Vec<RankState> = members
                .iter()
                .map(|&r| state_slots[r as usize].take().expect("each rank once"))
                .collect();
            for (slot, &r) in members.iter().enumerate() {
                self.shared.rank_loc[r as usize] = (id as u32, slot as u32);
            }
            let core = ShardCore::new(id, s_count, members.len(), net);
            self.shards.push(Shard {
                members,
                actors: shard_actors,
                states: shard_states,
                core,
            });
        }
        self.exec_threads = threads.min(s_count as u32).max(1);
        self.shared.lookahead_ns = cfg.lookahead_ns.max(1);
    }

    /// Closing snapshot: every streamed run call ends with one forced
    /// emission carrying the final totals, so even a run shorter than
    /// the snapshot cadence leaves at least one line in the stream. It
    /// first folds the activity the shards recorded since the last
    /// mark. The end time is the schedule-derived maximum shard clock,
    /// so the line is identical across thread counts. An aborted run
    /// also writes its flight dump, with this snapshot.
    fn stream_final(&mut self, abort_why: Option<&str>) {
        let Some(st) = self.streaming.as_mut() else {
            return;
        };
        for shard in self.shards.iter_mut() {
            if let Some(rec) = &mut shard.core.rec {
                rec.drain_activity(|new| st.accounting.record_all(new));
            }
        }
        st.accounting.fold();
        let events: u64 = self.shards.iter().map(|s| s.core.events).sum();
        // The run has put what was left in the exchange cells back
        // into the queues, so nothing is inbound.
        let rows: Vec<ShardSnap> = self.shards.iter().map(|s| shard_snap(&s.core, 0)).collect();
        let end_ns = rows.iter().map(|s| s.now_ns).max().unwrap_or(0);
        st.cadence.advance(end_ns);
        let mut live = LiveStats::default();
        for shard in &self.shards {
            live.absorb(&shard.live_stats());
        }
        let snap = st.make_snapshot(events, rows, live);
        st.emit(&snap);
        let dump_path = st.cfg.flight_dump_path.clone();
        if let (Some(reason), Some(path)) = (abort_why, dump_path) {
            let _ = abort::write_flight_dump(&path, reason, &self.flight_rings(), Some(&snap));
        }
    }

    /// The simulated clock: the latest shard clock.
    fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.core.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Sum the shards' counters into the run report.
    fn finish_run(&self, limit_hit: bool) -> RunReport {
        RunReport {
            end_time: self.now(),
            events: self.shards.iter().map(|s| s.core.events).sum(),
            messages: self.shards.iter().map(|s| s.core.delivered).sum(),
            timers: self.shards.iter().map(|s| s.core.timers).sum(),
            halted: limit_hit,
        }
    }

    /// Access an actor after (or during) a run — e.g. to harvest per-rank
    /// statistics.
    pub fn actor(&self, rank: Rank) -> &A {
        let (s, slot) = self.shared.rank_loc[rank as usize];
        &self.shards[s as usize].actors[slot as usize]
    }

    /// All actors, in rank order.
    pub fn actors(&self) -> Vec<&A> {
        (0..self.shared.n_ranks).map(|r| self.actor(r)).collect()
    }

    /// Number of messages handed to the network so far.
    pub fn messages_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.core.messages_sent).sum()
    }

    /// Counters for every fault injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for shard in &self.shards {
            total.absorb(&shard.core.fault_stats);
        }
        total
    }

    /// Ranks whose scheduled crash time has passed.
    pub fn crashed_ranks(&self) -> Vec<Rank> {
        let now = self.now();
        (0..self.shared.n_ranks)
            .filter(|&r| crashed_at(&self.shared.crash_at, r, now))
            .collect()
    }

    /// Name what the run records. Call once, before the first run, in
    /// either order with [`configure_parallel`](Self::configure_parallel):
    /// the first run gives each shard its recorder from `recorders`.
    /// With nothing on, every recording site costs one branch, and no
    /// recorder touches the schedule — every RNG stream and every other
    /// run artifact is byte-identical whatever records (enforced by
    /// property tests in `tests/`).
    ///
    /// # Panics
    /// Panics if the simulation already started.
    pub fn record(&mut self, recorders: Recorders) {
        assert!(!self.started, "record must be called before the first run");
        self.recorders = Some(recorders);
    }

    /// Give every shard its recorder and start streaming (first run).
    fn start_recorders(&mut self) {
        let Some(mut recorders) = self.recorders.take() else {
            return;
        };
        for shard in self.shards.iter_mut() {
            shard.core.rec = Recorder::for_shard(&recorders);
        }
        if let Some((cfg, sink)) = recorders.streaming.take() {
            if let Some(path) = &cfg.flight_dump_path {
                let rings = self.flight_rings();
                if !rings.is_empty() {
                    abort::register_panic_dump(path, &rings);
                }
                abort::install_sigterm_hook();
            }
            self.streaming = Some(StreamState::new(cfg, sink, self.shared.n_ranks));
        }
    }

    /// Every shard's flight ring, in shard order.
    fn flight_rings(&self) -> Vec<Arc<FlightRecorder>> {
        self.shards
            .iter()
            .filter_map(|s| s.core.rec.as_ref()?.flight.clone())
            .collect()
    }

    /// Hand over everything the run recorded, and stop recording. Call
    /// after the run; the streaming fold closes at the run's end time.
    pub fn take_recordings(&mut self) -> Recordings {
        let end_ns = self.now().ns();
        let stream = self.streaming.take();
        let mut out = Recordings::default();
        for shard in self.shards.iter_mut() {
            let Some(rec) = shard.core.rec.take() else {
                continue;
            };
            if rec.profile {
                out.profile.get_or_insert_with(Vec::new).push(ShardProfile {
                    shard: shard.core.id as u32,
                    ranks: shard.members.len() as u32,
                    events: shard.core.events,
                    windows: shard.core.windows,
                    busy_ns: rec.busy_ns,
                    phases: rec.phases,
                });
            }
            rec.hand_over(&mut out);
        }
        out.occupancy = stream.map(|st| st.accounting.finish(end_ns));
        out
    }

    /// The window plan executed so far, as `(fnv1a digest of the
    /// window-end sequence, window count)`. The plan is a pure function
    /// of schedule state and the lookahead bound, so for one
    /// configuration every shard and thread count must return the
    /// identical pair; the window-planner property tests assert it.
    pub fn window_plan(&self) -> (u64, u64) {
        (self.plan_digest, self.plan_windows)
    }
}

impl<A> Simulation<A>
where
    A: Actor + Send,
    A::Msg: Send,
{
    /// Run until the event queue drains or a streaming abort fires.
    pub fn run(&mut self) -> RunReport {
        self.run_parallel_with_limits(None, None)
    }

    /// [`run_parallel_with_limits`](Self::run_parallel_with_limits)
    /// under its historical serial name.
    pub fn run_with_limits(
        &mut self,
        max_time: Option<SimTime>,
        max_events: Option<u64>,
    ) -> RunReport {
        self.run_parallel_with_limits(max_time, max_events)
    }

    /// The engine's one run loop: execute lookahead windows until the
    /// event queues drain, a limit is reached or a streaming abort
    /// fires. A limit-stopped simulation resumes where it paused on
    /// the next call. `max_time` clips per event — no event past it is
    /// processed — while `max_events` is tested between windows, so an
    /// unconfigured simulation (one window per call) only honours it
    /// between calls.
    ///
    /// Worker 0 runs on the calling thread and workers `1..T` in a
    /// thread scope, so a one-thread run spawns nothing; the result is
    /// bit-identical for every thread count. The shards are split once,
    /// before any worker starts: worker `t` gets the `&mut` slice of
    /// shards `g` with `g·T/M == t` and keeps it for the whole call.
    ///
    /// Protocol: ONE barrier per window, and every channel between
    /// threads is double-buffered by window parity. Iteration `k`
    /// reads what window `k - 1` wrote into parity `k & 1` — the plan
    /// slots and the exchange cells — after the barrier, derives the
    /// identical verdict on every thread, runs the worker's own shards,
    /// and writes into the other parity. Cross-shard events travel
    /// through per-(source thread, destination shard) batch cells; a
    /// shard's published minimum covers what it deposited, so no
    /// pending event ever escapes the global minimum.
    pub fn run_parallel_with_limits(
        &mut self,
        max_time: Option<SimTime>,
        max_events: Option<u64>,
    ) -> RunReport {
        let first_run = !std::mem::replace(&mut self.started, true);
        if first_run {
            self.start_recorders();
        }
        let m = self.shards.len();
        let n_threads = self.exec_threads as usize;
        let mt = max_time.map(|t| t.ns());
        let (digest0, windows0) = (self.plan_digest, self.plan_windows);
        let slots: [Vec<GroupSlot>; 2] = [
            (0..m).map(|_| GroupSlot::new()).collect(),
            (0..m).map(|_| GroupSlot::new()).collect(),
        ];
        // Per-(source thread, destination shard) batch buffers, each
        // with a non-empty flag so owners skip the lock (and the clock)
        // for the common empty case. A parity's cells are written only
        // in the windows of that parity and drained whole after the
        // next barrier, so the flags are exact.
        type XchgRow<M> = Vec<Mutex<Vec<Event<M>>>>;
        let cells = || -> Vec<XchgRow<A::Msg>> {
            (0..n_threads)
                .map(|_| (0..m).map(|_| Mutex::new(Vec::new())).collect())
                .collect()
        };
        let flags = || -> Vec<Vec<AtomicBool>> {
            (0..n_threads)
                .map(|_| (0..m).map(|_| AtomicBool::new(false)).collect())
                .collect()
        };
        let xchg = [cells(), cells()];
        let xchg_flag = [flags(), flags()];
        let barrier = WindowBarrier::new(n_threads);
        // --- streaming telemetry scaffolding (empty when off) ---
        // Only worker 0 holds the stream state (it folds and writes);
        // the others see its cadence copy and the abort flag.
        let cadence0 = self.streaming.as_ref().map(|st| st.cadence);
        let snap_pubs: Vec<Mutex<ShardPub>> = (0..if cadence0.is_some() { m } else { 0 })
            .map(|_| Mutex::new(ShardPub::default()))
            .collect();
        let abort_flag = AtomicBool::new(false);
        let shared = &self.shared;
        // Deposit `shard`'s cross-shard sends into thread `tid`'s cells
        // of parity `par` (only dirty outboxes are touched), then
        // publish its plan inputs into `slot`: the earliest event it
        // holds, queued or deposited.
        let deposit_and_publish =
            |tid: usize, par: usize, shard: &mut Shard<A>, slot: &GroupSlot| {
                let mut min_next = shard.core.queue.peek_time().map_or(u64::MAX, SimTime::ns);
                if !shard.core.dirty_out.is_empty() {
                    let x0 = shard.core.phase_start();
                    let mut dirty = std::mem::take(&mut shard.core.dirty_out);
                    for &dst in &dirty {
                        let dst = dst as usize;
                        let out = &mut shard.core.outboxes[dst];
                        for ev in out.iter() {
                            min_next = min_next.min(ev.time.ns());
                        }
                        let mut cell = xchg[par][tid][dst].lock().expect("exchange cell poisoned");
                        if cell.is_empty() {
                            std::mem::swap(&mut *cell, out);
                        } else {
                            cell.append(out);
                        }
                        xchg_flag[par][tid][dst].store(true, Ordering::Release);
                    }
                    dirty.clear();
                    shard.core.dirty_out = dirty;
                    shard.core.phase_stop(Phase::Exchange, x0);
                }
                slot.min_next.store(min_next, Ordering::SeqCst);
                slot.events.store(shard.core.events, Ordering::SeqCst);
            };
        // One worker over its own shards `first..first + own.len()`;
        // every thread runs an identical copy and returns the identical
        // `(plan digest, windows, limit hit)`, and worker 0 the abort
        // reason. `stream` is `Some` on worker 0 of a streamed run.
        let worker = |tid: usize,
                      first: usize,
                      own: &mut [Shard<A>],
                      mut stream: Option<&mut StreamState>| {
            let mut sense = false;
            let (mut digest, mut windows) = (digest0, windows0);
            let mut cadence = cadence0;
            let mut par = 0usize;
            let mut end_prev: Option<u64> = None;
            // Prologue: the first run call starts the worker's shards'
            // actors; every call publishes the initial plan inputs.
            for (g, shard) in (first..).zip(own.iter_mut()) {
                if first_run {
                    let b0 = shard.core.window_start();
                    shard.start(shared);
                    shard.core.book_busy(b0);
                }
                deposit_and_publish(tid, par, shard, &slots[par][g]);
            }
            loop {
                // Worker 0 checks the emergency-abort budgets and
                // publishes the flag before the barrier; everyone
                // reads it after, so all threads stop together, as at
                // a limit.
                let abort_why = stream.as_deref_mut().and_then(|st| st.abort_reason());
                if abort_why.is_some() {
                    abort_flag.store(true, Ordering::SeqCst);
                }
                // THE barrier — one per window. Everything below
                // reads parity `par` (written last iteration)
                // and writes parity `1 - par`, so this single
                // rendezvous fences the whole protocol: a slow
                // reader of parity p must arrive here before any
                // fast writer can touch p again. A lone worker has
                // nobody to meet, so it reports no barrier wait; the
                // wait is timed only when the shards' recorders keep
                // window clocks.
                if n_threads > 1 {
                    let w0 = own[0].core.window_start();
                    barrier.wait(&mut sense);
                    if let Some(w0) = w0 {
                        book_wait(own, w0.elapsed().as_nanos() as u64);
                    }
                }
                if abort_flag.load(Ordering::SeqCst) {
                    return (digest, windows, true, abort_why);
                }
                // Fold the published plan inputs (read parity).
                // Every thread derives the identical verdict —
                // leaderless by design.
                let mut min_next = u64::MAX;
                let mut events = 0u64;
                for slot in &slots[par] {
                    min_next = min_next.min(slot.min_next.load(Ordering::SeqCst));
                    events += slot.events.load(Ordering::SeqCst);
                }
                // Streaming: at a due mark every shard publishes what
                // it recorded since the last one, and after one extra
                // barrier worker 0 folds it and snapshots the
                // post-window state.
                if let Some(cad) = cadence.as_mut() {
                    if let Some(ep) = end_prev.filter(|&ep| cad.due(ep)) {
                        cad.advance(ep);
                        for (g, shard) in (first..).zip(own.iter_mut()) {
                            // Parity `par` holds exactly the deposits
                            // bound for `g` it has not ingested yet.
                            let inbound = xchg[par]
                                .iter()
                                .map(|row| row[g].lock().expect("exchange cell poisoned").len())
                                .sum();
                            publish_rows(shard, &snap_pubs[g], inbound);
                        }
                        // Every row is published before worker 0 reads.
                        barrier.wait(&mut sense);
                        if let Some(st) = stream.as_deref_mut() {
                            let (rows, live) = drain_published(st, &snap_pubs);
                            let snap = st.make_snapshot(events, rows, live);
                            st.emit(&snap);
                        }
                    }
                }
                let min_next = Some(min_next).filter(|&t| t != u64::MAX);
                let end = match decide(min_next, events, mt, max_events, shared.lookahead_ns) {
                    Verdict::Stop { limit } => return (digest, windows, limit, None),
                    Verdict::Window { end } => end,
                };
                digest = fnv1a(digest, end);
                windows += 1;
                let wpar = 1 - par;
                for (g, shard) in (first..).zip(own.iter_mut()) {
                    let b0 = shard.core.window_start();
                    // Ingest every cross-shard event deposited for this
                    // shard last window.
                    for (row, flags) in xchg[par].iter().zip(&xchg_flag[par]) {
                        if !flags[g].load(Ordering::Acquire) {
                            continue;
                        }
                        let x0 = shard.core.phase_start();
                        flags[g].store(false, Ordering::Relaxed);
                        let mut cell = row[g].lock().expect("exchange cell poisoned");
                        for ev in cell.drain(..) {
                            shard.core.push_local(ev);
                        }
                        drop(cell);
                        shard.core.phase_stop(Phase::Exchange, x0);
                    }
                    shard.run_window(shared, end, mt);
                    deposit_and_publish(tid, wpar, shard, &slots[wpar][g]);
                    shard.core.book_busy(b0);
                }
                end_prev = Some(end);
                par = wpar;
            }
        };
        let stream = self.streaming.as_mut();
        let mut runs = split_by_thread(&mut self.shards, n_threads).into_iter();
        let (digest, windows, limit_hit, abort_why) = std::thread::scope(|scope| {
            let (first0, own0) = runs.next().expect("at least one worker");
            for (tid, (first, own)) in (1..).zip(runs) {
                let worker = &worker;
                scope.spawn(move || worker(tid, first, own, None));
            }
            worker(0, first0, own0, stream)
        });
        // Events still parked in the exchange cells (a stop lands
        // between deposit and ingest) go back into their owners' queues
        // so a resumed run sees them.
        for row in xchg.into_iter().flatten() {
            for (g, cell) in row.into_iter().enumerate() {
                let mut evs = cell.into_inner().expect("exchange cell poisoned");
                for ev in evs.drain(..) {
                    self.shards[g].core.push_local(ev);
                }
            }
        }
        self.plan_digest = digest;
        self.plan_windows = windows;
        self.stream_final(abort_why);
        self.finish_run(limit_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::EventRecord;
    use dws_metrics::SpanLog;

    /// Ping-pong actor: rank 0 sends `hops` pings; rank 1 echoes.
    struct PingPong {
        hops_left: u32,
        received: Vec<(Rank, u32, SimTime)>,
    }

    impl Actor for PingPong {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 && self.hops_left > 0 {
                ctx.send(1, 8, self.hops_left);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: Rank, msg: u32) {
            self.received.push((from, msg, ctx.now()));
            if msg > 1 {
                ctx.send(from, 8, msg - 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _token: u64) {}
    }

    fn ping_pong(hops: u32, latency: u64) -> RunReport {
        let actors = vec![
            PingPong {
                hops_left: hops,
                received: vec![],
            },
            PingPong {
                hops_left: 0,
                received: vec![],
            },
        ];
        let mut sim = Simulation::new(actors, ConstantLatency(latency), SimConfig::default());
        sim.run()
    }

    #[test]
    fn ping_pong_takes_hops_times_latency() {
        let report = ping_pong(4, 1_000);
        assert_eq!(report.messages, 4);
        assert_eq!(report.end_time, SimTime(4_000));
        assert!(!report.halted);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = ping_pong(10, 777);
        let b = ping_pong(10, 777);
        assert_eq!(a, b);
    }

    /// Sender emits a large then a small message; FIFO must hold.
    struct FifoProbe {
        got: Vec<u32>,
    }
    impl Actor for FifoProbe {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 {
                ctx.send(1, 1 << 20, 1); // slow: 1 MiB
                ctx.send(1, 1, 2); // fast: 1 B
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: Rank, msg: u32) {
            self.got.push(msg);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _t: u64) {}
    }

    #[test]
    fn pairwise_fifo_prevents_overtaking() {
        // Size-dependent latency would reorder without the FIFO guard.
        let lat = |_f: Rank, _t: Rank, bytes: usize| 100 + bytes as u64;
        let actors = vec![FifoProbe { got: vec![] }, FifoProbe { got: vec![] }];
        let mut sim = Simulation::new(actors, lat, SimConfig::default());
        sim.run();
        assert_eq!(sim.actor(1).got, vec![1, 2], "messages must not overtake");
    }

    /// Seeded random traffic between ever-new pairs, for the FIFO
    /// differential below. Every rank starts eight chains: each delivery
    /// with hops left forwards to a freshly drawn destination (mixed
    /// sizes, a quarter of them `send_delayed`). Timers fire a 64 KiB
    /// message chased by an 8-byte one on the same pair, and rank 0's
    /// second timer broadcasts to every other rank. The payload is
    /// `(sender's own send counter, hops left)`; send `k` (from 1) was
    /// made at `sent_at[k - 1]`.
    struct PairStorm {
        n: u32,
        sent_at: Vec<SimTime>,
        got: Vec<(SimTime, Rank, u64)>,
    }

    impl PairStorm {
        const SIZES: [usize; 4] = [8, 64, 4096, 1 << 16];

        fn fleet(n: u32) -> Vec<PairStorm> {
            (0..n)
                .map(|_| PairStorm {
                    n,
                    sent_at: vec![],
                    got: vec![],
                })
                .collect()
        }

        fn draw_peer(&self, ctx: &mut Ctx<'_, (u64, u32)>) -> Rank {
            let to = ctx.rng().next_below(self.n as u64 - 1) as Rank;
            to + u32::from(to >= ctx.me())
        }

        fn emit(&mut self, ctx: &mut Ctx<'_, (u64, u32)>, to: Rank, bytes: usize, hops: u32) {
            let delay_ns = match ctx.rng().next_below(4) {
                0 => ctx.rng().next_below(3_000),
                _ => 0,
            };
            self.sent_at.push(ctx.now());
            let seq = self.sent_at.len() as u64;
            ctx.send_delayed(to, bytes, delay_ns, (seq, hops));
        }
    }

    impl Actor for PairStorm {
        type Msg = (u64, u32);
        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            for _ in 0..8 {
                let to = self.draw_peer(ctx);
                self.emit(ctx, to, 64, 40);
            }
            ctx.set_timer(20_000 + 131 * ctx.me() as u64, 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: Rank, (seq, hops): Self::Msg) {
            self.got.push((ctx.now(), from, seq));
            if hops > 0 {
                let to = self.draw_peer(ctx);
                let bytes = Self::SIZES[ctx.rng().next_below(4) as usize];
                self.emit(ctx, to, bytes, hops - 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
            if ctx.me() == 0 && token == 2 {
                for to in 1..self.n {
                    self.emit(ctx, to, 16, 0);
                }
            }
            let to = self.draw_peer(ctx);
            self.emit(ctx, to, 1 << 16, 0);
            self.emit(ctx, to, 8, 0);
            if token < 8 {
                ctx.set_timer(20_000, token + 1);
            }
        }
    }

    /// Highest number of messages in flight at any instant of a storm,
    /// counting a message from its send up to and including its first
    /// delivery. A dropped message never lands and is not counted; a
    /// duplicate lands one tick behind its original.
    fn peak_in_flight(fleet: &[&PairStorm]) -> usize {
        let mut landed = std::collections::HashSet::new();
        let mut edges: Vec<(u64, i64)> = Vec::new();
        for actor in fleet {
            for &(at, src, seq) in &actor.got {
                if landed.insert((src, seq)) {
                    let sent = fleet[src as usize].sent_at[seq as usize - 1];
                    edges.push((sent.ns(), 1));
                    edges.push((at.ns() + 1, -1));
                }
            }
        }
        edges.sort_unstable();
        let (mut cur, mut peak) = (0i64, 0i64);
        for (_, d) in edges {
            cur += d;
            peak = peak.max(cur);
        }
        peak as usize
    }

    /// What one [`PairStorm`] run leaves behind: every delivery as
    /// `(time, dst, src, sender's send counter)` in delivery order per
    /// destination, the send and fault ledgers, the largest per-shard
    /// FIFO map seen at a pause or at the end, and the in-flight
    /// high-water mark.
    struct StormOutcome {
        deliveries: Vec<(SimTime, Rank, Rank, u64)>,
        messages_sent: u64,
        fault_stats: FaultStats,
        max_retained: usize,
        peak_in_flight: usize,
    }

    /// Run the storm over `shards` shards on `threads` worker threads,
    /// stepping through `run_with_limits` every `pause_every_ns` when
    /// set (each pause is a window end). With `in_flight_peak` the bounded production state
    /// runs and its retained entries are checked against that mark at
    /// every pause; without it the sweep threshold is pushed out of
    /// reach, which leaves exactly the never-forgetting map — one entry
    /// per pair ever used — as the oracle.
    fn run_pair_storm(
        seed: u64,
        shards: u32,
        in_flight_peak: Option<usize>,
        threads: u32,
        pause_every_ns: Option<u64>,
    ) -> StormOutcome {
        const N: u32 = 96;
        let cfg = SimConfig {
            seed,
            latency_jitter: 0.3,
            fault: FaultPlan::message_faults(0.03, 0.03, 0.05),
        };
        // Size-dependent, so the 8-byte chaser would overtake the
        // 64 KiB message without the FIFO guard.
        let lat =
            |f: Rank, t: Rank, bytes: usize| 500 + bytes as u64 / 4 + u64::from((f ^ t) % 7) * 100;
        let mut sim = Simulation::new(PairStorm::fleet(N), lat, cfg);
        sim.configure_parallel(layout(N, shards, threads, 500));
        if in_flight_peak.is_none() {
            for shard in sim.shards.iter_mut() {
                shard.core.fifo_sweep_at = usize::MAX;
            }
        }
        let mut max_retained = 0;
        let mut limit = pause_every_ns;
        loop {
            let report = sim.run_with_limits(limit.map(SimTime), None);
            let retained = sim.shards.iter().map(|s| s.core.fifo.len()).max();
            let retained = retained.expect("at least one shard");
            max_retained = max_retained.max(retained);
            if let Some(peak) = in_flight_peak {
                assert!(
                    retained <= (2 * peak).max(FIFO_SWEEP_MIN),
                    "{retained} pairs retained with at most {peak} messages ever in flight \
                     (seed {seed}, {shards} shards, t = {limit:?})"
                );
            }
            if !report.halted {
                break;
            }
            limit = limit.map(|t| t + pause_every_ns.expect("a limit implies a step"));
        }
        let fleet = sim.actors();
        let mut deliveries = Vec::new();
        for (dst, actor) in fleet.iter().enumerate() {
            let mut last_from = vec![0u64; N as usize];
            for &(at, src, seq) in &actor.got {
                // A fault-injected duplicate repeats its original's
                // counter; nothing may ever arrive below it.
                assert!(
                    seq >= last_from[src as usize],
                    "message {seq} from {src} overtook {} at {dst}",
                    last_from[src as usize]
                );
                last_from[src as usize] = seq;
                deliveries.push((at, dst as Rank, src, seq));
            }
        }
        StormOutcome {
            deliveries,
            messages_sent: sim.messages_sent(),
            fault_stats: sim.fault_stats(),
            max_retained,
            peak_in_flight: peak_in_flight(&fleet),
        }
    }

    /// Differential property: forgetting dead (from, to) entries changes
    /// no delivery. The oracle never forgets; the bounded state must
    /// agree on every `(time, dst, src, counter)` across seeds, shard
    /// counts, the threaded driver and a paused-and-resumed run, while
    /// never holding more entries than twice the in-flight high-water
    /// mark (or the sweep floor).
    #[test]
    fn bounded_fifo_state_matches_never_forgetting_oracle() {
        for seed in [3u64, 0xD15_7EA1, 0xFEED_F00D] {
            let oracle = run_pair_storm(seed, 1, None, 1, None);
            assert!(
                oracle.fault_stats.duplicated > 0 && oracle.fault_stats.spiked > 0,
                "the fault plan must fire for the property to bite"
            );
            let peak = oracle.peak_in_flight;
            assert!(
                2 * peak > FIFO_SWEEP_MIN && oracle.max_retained > 4 * peak,
                "traffic must clear the sweep floor and the oracle must dwarf the bound: \
                 {peak} in flight, {} pairs",
                oracle.max_retained
            );
            for shards in [1u32, 4] {
                for (threads, pause) in [(1, None), (shards, None), (1, Some(50_000))] {
                    let bounded = run_pair_storm(seed, shards, Some(peak), threads, pause);
                    let what =
                        format!("seed {seed}, {shards} shards, {threads} threads, {pause:?}");
                    assert_eq!(bounded.messages_sent, oracle.messages_sent, "{what}");
                    assert_eq!(bounded.fault_stats, oracle.fault_stats, "{what}");
                    assert!(
                        bounded.deliveries == oracle.deliveries,
                        "forgetting dead pairs changed a delivery ({what})"
                    );
                }
            }
        }
    }

    /// The boundary of "dead": with zero latency a delivery scheduled at
    /// `now` still pushes a same-instant resend back by one tick, so a
    /// sweep at `now` must keep it. Rank 0 sends to enough ranks to
    /// trigger sweeps, then to each of them again, all at time zero.
    #[test]
    fn same_instant_resend_is_pushed_back_across_a_sweep() {
        struct Resender {
            got: Vec<(u32, SimTime)>,
        }
        impl Actor for Resender {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if ctx.me() == 0 {
                    for round in 0..2 {
                        for to in 1..ctx.n_ranks() {
                            ctx.send(to, 8, round);
                        }
                    }
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _f: Rank, msg: u32) {
                self.got.push((msg, ctx.now()));
            }
            fn on_timer(&mut self, _c: &mut Ctx<'_, u32>, _t: u64) {}
        }
        let n = 2 * FIFO_SWEEP_MIN as u32;
        let actors = (0..n).map(|_| Resender { got: vec![] }).collect();
        let mut sim = Simulation::new(actors, ConstantLatency(0), SimConfig::default());
        sim.run();
        assert!(
            sim.shards[0].core.fifo_sweep_at > FIFO_SWEEP_MIN,
            "a sweep ran"
        );
        for rank in 1..n {
            assert_eq!(
                sim.actor(rank).got,
                vec![(0, SimTime(0)), (1, SimTime(1))],
                "rank {rank}"
            );
        }
    }

    /// Timer test actor: schedules three timers out of order.
    struct TimerProbe {
        fired: Vec<(u64, SimTime)>,
    }
    impl Actor for TimerProbe {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(300, 3);
            ctx.set_timer(100, 1);
            ctx.set_timer(200, 2);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _f: Rank, _m: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
            self.fired.push((token, ctx.now()));
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let mut sim = Simulation::new(
            vec![TimerProbe { fired: vec![] }],
            ConstantLatency(1),
            SimConfig::default(),
        );
        let report = sim.run();
        assert_eq!(report.timers, 3);
        assert_eq!(
            sim.actor(0).fired,
            vec![(1, SimTime(100)), (2, SimTime(200)), (3, SimTime(300))]
        );
    }

    #[test]
    fn max_time_limit_pauses_and_resumes() {
        let mut sim = Simulation::new(
            vec![TimerProbe { fired: vec![] }],
            ConstantLatency(1),
            SimConfig::default(),
        );
        let r1 = sim.run_with_limits(Some(SimTime(150)), None);
        assert!(r1.halted);
        assert_eq!(sim.actor(0).fired.len(), 1);
        let r2 = sim.run_with_limits(None, None);
        assert!(!r2.halted);
        assert_eq!(sim.actor(0).fired.len(), 3);
    }

    #[test]
    fn flight_ring_observes_sends_and_deliveries() {
        let actors = vec![
            PingPong {
                hops_left: 3,
                received: vec![],
            },
            PingPong {
                hops_left: 0,
                received: vec![],
            },
        ];
        let mut sim = Simulation::new(actors, ConstantLatency(100), SimConfig::default());
        let streaming = StreamingCfg {
            flight_ring: 64,
            ..StreamingCfg::default()
        };
        sim.record(streamed(streaming, None));
        sim.run();
        let rec = sim.shards[0].core.rec.as_ref();
        let ring = rec.and_then(|r| r.flight.as_ref()).expect("recorded");
        // Three hops, each a send stamped with its scheduled delivery
        // and then that delivery, 100 ns later.
        let expected: Vec<EventRecord> = (0..3u32)
            .flat_map(|hop| {
                let (from, to) = (hop % 2, 1 - hop % 2);
                let at = SimTime(100 * u64::from(hop));
                [
                    EventRecord {
                        at,
                        kind: ObsKind::Sent {
                            from,
                            to,
                            bytes: 8,
                            deliver_at: at + 100,
                        },
                    },
                    EventRecord {
                        at: at + 100,
                        kind: ObsKind::Delivered { from, to },
                    },
                ]
            })
            .collect();
        assert_eq!(ring.dump(), expected);
    }

    #[test]
    fn net_trace_measures_scheduled_latency() {
        let actors = vec![
            PingPong {
                hops_left: 3,
                received: vec![],
            },
            PingPong {
                hops_left: 0,
                received: vec![],
            },
        ];
        let mut sim = Simulation::new(actors, ConstantLatency(250), SimConfig::default());
        sim.record(spans());
        sim.run();
        let nt = sim.take_recordings().net.expect("recorded");
        assert!(
            sim.take_recordings().net.is_none(),
            "taking detaches the trace"
        );
        assert_eq!(nt.messages(), 3);
        // Constant latency, no contention: every delivery takes 250ns.
        assert_eq!(nt.delivery_histogram().min(), 250);
        assert_eq!(nt.delivery_histogram().max(), 250);
        let total: u64 = nt.pair_tallies().map(|(_, t)| t.messages).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn net_trace_absence_changes_nothing() {
        let run = |trace: bool| {
            let actors = vec![
                PingPong {
                    hops_left: 5,
                    received: vec![],
                },
                PingPong {
                    hops_left: 0,
                    received: vec![],
                },
            ];
            let mut sim = Simulation::new(actors, ConstantLatency(99), SimConfig::default());
            if trace {
                sim.record(spans());
            }
            sim.run()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn jitter_changes_latency_but_keeps_determinism() {
        let cfg = SimConfig {
            latency_jitter: 0.5,
            ..SimConfig::default()
        };
        let run = |cfg: SimConfig| {
            let actors = vec![
                PingPong {
                    hops_left: 4,
                    received: vec![],
                },
                PingPong {
                    hops_left: 0,
                    received: vec![],
                },
            ];
            let mut sim = Simulation::new(actors, ConstantLatency(1_000), cfg);
            sim.run()
        };
        let jittered = run(cfg.clone());
        let jittered2 = run(cfg);
        let clean = run(SimConfig::default());
        assert_eq!(jittered, jittered2, "jitter must stay deterministic");
        assert!(jittered.end_time >= clean.end_time);
    }

    /// Sender emits three delayed messages in one handler; they must
    /// arrive spaced by their extra delays, in order.
    struct DelayedSender {
        got: Vec<(u32, SimTime)>,
    }
    impl Actor for DelayedSender {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 {
                ctx.send_delayed(1, 8, 0, 1);
                ctx.send_delayed(1, 8, 500, 2);
                ctx.send_delayed(1, 8, 1_500, 3);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _f: Rank, msg: u32) {
            self.got.push((msg, ctx.now()));
        }
        fn on_timer(&mut self, _c: &mut Ctx<'_, u32>, _t: u64) {}
    }

    #[test]
    fn delayed_sends_arrive_spaced_and_ordered() {
        let actors = vec![DelayedSender { got: vec![] }, DelayedSender { got: vec![] }];
        let mut sim = Simulation::new(actors, ConstantLatency(1_000), SimConfig::default());
        sim.run();
        assert_eq!(
            sim.actor(1).got,
            vec![
                (1, SimTime(1_000)),
                (2, SimTime(1_500)),
                (3, SimTime(2_500)),
            ]
        );
    }

    #[test]
    fn stateful_latency_fn_sees_departure_time() {
        // A latency oracle that records the now_ns it is given. The
        // shared interior state must be Sync now that latency oracles
        // are replicated across shards.
        #[derive(Clone)]
        struct Probe(Arc<Mutex<Vec<u64>>>);
        impl LatencyFn for Probe {
            fn latency_ns(&self, _f: Rank, _t: Rank, _b: usize, now_ns: u64) -> u64 {
                self.0.lock().unwrap().push(now_ns);
                100
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let actors = vec![DelayedSender { got: vec![] }, DelayedSender { got: vec![] }];
        let mut sim = Simulation::new(actors, Probe(Arc::clone(&seen)), SimConfig::default());
        sim.run();
        // Departure times include the extra delays.
        assert_eq!(*seen.lock().unwrap(), vec![0, 500, 1_500]);
    }

    #[test]
    #[should_panic(expected = "send to itself")]
    fn self_send_is_rejected() {
        struct SelfSender;
        impl Actor for SelfSender {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send(0, 1, ());
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, ()>, _f: Rank, _m: ()) {}
            fn on_timer(&mut self, _c: &mut Ctx<'_, ()>, _t: u64) {}
        }
        let mut sim = Simulation::new(vec![SelfSender], ConstantLatency(1), SimConfig::default());
        sim.run();
    }

    // ------------------------------------------------------------------
    // Sharded / multi-threaded execution tests
    // ------------------------------------------------------------------

    /// A chatty workload exercising per-rank RNG streams, timers,
    /// variable message sizes and all-to-all traffic — the schedule is
    /// sensitive to any ordering or stream regression. Each rank keeps
    /// its own sends as `(to, bytes, time)`.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Chatter {
        n: u32,
        sent: Vec<(Rank, usize, SimTime)>,
        got: Vec<(Rank, u64, SimTime)>,
        fired: Vec<(u64, SimTime)>,
    }

    impl Chatter {
        fn fleet(n: u32) -> Vec<Chatter> {
            (0..n)
                .map(|_| Chatter {
                    n,
                    sent: vec![],
                    got: vec![],
                    fired: vec![],
                })
                .collect()
        }

        fn send(&mut self, ctx: &mut Ctx<'_, u64>, to: Rank, bytes: usize, msg: u64) {
            self.sent.push((to, bytes, ctx.now()));
            ctx.send(to, bytes, msg);
        }
    }

    impl Actor for Chatter {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let me = ctx.me();
            let to = (me + 1) % self.n;
            if to != me {
                self.send(ctx, to, 64, 6);
            }
            ctx.set_timer(500 + 37 * me as u64, 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: Rank, msg: u64) {
            self.got.push((from, msg, ctx.now()));
            if msg > 0 {
                let n = self.n;
                let mut to = ctx.rng().next_below(n as u64) as Rank;
                if to == ctx.me() {
                    to = (to + 1) % n;
                }
                if to != ctx.me() {
                    self.send(ctx, to, 32 + 8 * msg as usize, msg - 1);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
            self.fired.push((token, ctx.now()));
            if token < 3 {
                let n = self.n;
                let mut to = ctx.rng().next_below(n as u64) as Rank;
                if to == ctx.me() {
                    to = (to + 1) % n;
                }
                if to != ctx.me() {
                    self.send(ctx, to, 16, 2);
                }
                ctx.set_timer(700, token + 1);
            }
        }
    }

    /// `n` ranks in `shards` contiguous equal blocks driven by
    /// `threads` workers, with lookahead `lookahead_ns`.
    fn layout(n: u32, shards: u32, threads: u32, lookahead_ns: u64) -> ParallelConfig {
        ParallelConfig::new(threads, lookahead_ns)
            .with_shard_map((0..n).map(|r| r * shards / n).collect())
    }

    /// One `(from, to)` row of a network trace's traffic matrix.
    type PairRow = ((Rank, Rank), crate::observer::PairTally);

    /// Run the chatter fleet over `shards` shards on `threads` worker
    /// threads. Returns everything observable, the network trace as its
    /// per-pair tallies in pair order.
    fn run_chatter(
        n: u32,
        shards: u32,
        threads: u32,
        fault: FaultPlan,
    ) -> (RunReport, Vec<Chatter>, FaultStats, u64, Vec<PairRow>) {
        let cfg = SimConfig {
            latency_jitter: 0.3,
            fault,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(Chatter::fleet(n), ConstantLatency(1_000), cfg);
        sim.configure_parallel(layout(n, shards, threads, 1_000));
        sim.record(spans());
        let report = sim.run();
        let actors: Vec<Chatter> = sim.actors().into_iter().cloned().collect();
        let net = sim.take_recordings().net.expect("recorded");
        let mut pairs: Vec<PairRow> = net.pair_tallies().map(|(k, t)| (*k, *t)).collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        (
            report,
            actors,
            sim.fault_stats(),
            sim.messages_sent(),
            pairs,
        )
    }

    #[test]
    fn windowed_schedule_is_shard_count_invariant() {
        let base = run_chatter(8, 1, 1, FaultPlan::default());
        for shards in [2u32, 3, 8] {
            let other = run_chatter(8, shards, 1, FaultPlan::default());
            assert_eq!(base, other, "shard count {shards} diverged");
        }
    }

    #[test]
    fn windowed_schedule_is_shard_count_invariant_under_faults() {
        let plan = FaultPlan::message_faults(0.1, 0.1, 0.1);
        let base = run_chatter(8, 1, 1, plan.clone());
        assert!(
            base.2.dropped + base.2.duplicated + base.2.spiked > 0,
            "fault plan must actually fire for this test to mean anything"
        );
        for shards in [2u32, 3, 8] {
            let other = run_chatter(8, shards, 1, plan.clone());
            assert_eq!(base, other, "shard count {shards} diverged under faults");
        }
    }

    #[test]
    fn partitions_and_crash_domains_are_shard_count_invariant() {
        let plan = FaultPlan {
            partitions: vec![crate::fault::Partition {
                boundary: 4,
                from_ns: 500,
                until_ns: 2_500,
            }],
            crash_domains: vec![crate::fault::CrashDomain {
                ranks: vec![6, 7],
                at_ns: 1_200,
            }],
            ..FaultPlan::default()
        };
        let base = run_chatter(8, 1, 1, plan.clone());
        assert!(
            base.2.partition_drops > 0,
            "partition window must actually cut traffic for this test to mean anything"
        );
        assert!(
            base.2.crash_lost_deliveries + base.2.crash_lost_timers > 0,
            "crash domain must actually kill events"
        );
        for shards in [2u32, 3, 8] {
            let other = run_chatter(8, shards, 1, plan.clone());
            assert_eq!(
                base, other,
                "shard count {shards} diverged under partition/domain faults"
            );
        }
    }

    #[test]
    fn threaded_run_matches_single_threaded_windowed() {
        // Every shard on its own thread, and fewer threads than shards
        // (each thread running a contiguous run of them, 8 on 3 uneven).
        for (shards, threads) in [(2u32, 2u32), (4, 4), (4, 2), (8, 3)] {
            let local = run_chatter(8, shards, 1, FaultPlan::default());
            let threaded = run_chatter(8, shards, threads, FaultPlan::default());
            assert_eq!(
                local, threaded,
                "{threads} threads diverged from one at {shards} shards"
            );
        }
    }

    #[test]
    fn thread_runs_cover_every_shard_once_in_order() {
        for m in 1..=20usize {
            for t in 1..=m {
                let mut shards: Vec<usize> = (0..m).collect();
                let runs = split_by_thread(&mut shards, t);
                assert_eq!(runs.len(), t, "{m} shards on {t} threads");
                let mut next = 0;
                for (tid, (first, run)) in runs.into_iter().enumerate() {
                    assert_eq!(first, next, "{m} shards on {t} threads: gap before {tid}");
                    assert!(!run.is_empty(), "{m} shards on {t} threads: {tid} idle");
                    for &g in run.iter() {
                        assert_eq!(g, next, "{m} shards on {t} threads: out of order");
                        assert_eq!(g * t / m, tid, "shard {g} of {m} on the wrong thread");
                        next += 1;
                    }
                }
                assert_eq!(next, m, "{m} shards on {t} threads: shards left over");
            }
        }
    }

    #[test]
    fn windowed_run_resumes_after_time_limit() {
        let mut sim = Simulation::new(
            vec![TimerProbe { fired: vec![] }],
            ConstantLatency(1),
            SimConfig::default(),
        );
        sim.configure_parallel(ParallelConfig::new(1, 10));
        let r1 = sim.run_with_limits(Some(SimTime(150)), None);
        assert!(r1.halted);
        assert_eq!(sim.actor(0).fired.len(), 1);
        let r2 = sim.run_with_limits(None, None);
        assert!(!r2.halted);
        assert_eq!(sim.actor(0).fired.len(), 3);
    }

    #[test]
    fn shard_profiles_account_all_events() {
        let (report, ..) = run_chatter(8, 3, 1, FaultPlan::default());
        let mut sim = Simulation::new(
            Chatter::fleet(8),
            ConstantLatency(1_000),
            SimConfig {
                latency_jitter: 0.3,
                ..SimConfig::default()
            },
        );
        sim.configure_parallel(ParallelConfig::new(3, 1_000));
        sim.record(Recorders {
            profiler: true,
            ..Recorders::default()
        });
        sim.run();
        let profiles = sim.take_recordings().profile.expect("the run profiled");
        assert_eq!(profiles.len(), 3);
        assert_eq!(
            profiles.iter().map(|p| p.events).sum::<u64>(),
            report.events
        );
        assert_eq!(profiles.iter().map(|p| u64::from(p.ranks)).sum::<u64>(), 8);
        let windows = profiles[0].windows;
        assert!(windows > 0);
        // Every shard is its worker's first: it books each crossing,
        // the one that found the queues drained included, and is
        // dispatched once per event and once per started rank.
        for p in &profiles {
            assert_eq!(p.windows, windows);
            assert_eq!(p.phases.get(Phase::Barrier).0, windows + 1);
            assert_eq!(p.wait_ns(), p.phases.get(Phase::Barrier).1);
            assert_eq!(
                p.phases.get(Phase::Dispatch).0,
                p.events + u64::from(p.ranks)
            );
        }
    }

    #[test]
    fn event_key_stays_small() {
        // An upper bound, not a pin: the heap sifts these, so a wider
        // key is a conscious choice (DESIGN §10.1).
        assert!(std::mem::size_of::<EventKey>() <= 32);
    }

    #[test]
    fn event_queue_pops_in_key_order_and_recycles_slots() {
        // Pushes interleaved with pops against a sorted-set mirror: each
        // pop is the least queued key, carrying its own payload.
        let mut q: EventQueue<u64> = EventQueue::with_capacity(0);
        let mut mirror = std::collections::BTreeSet::new();
        let mut rng = DetRng::new(11);
        let mut peak = 0;
        let pop_one = |q: &mut EventQueue<u64>, mirror: &mut std::collections::BTreeSet<_>| {
            let ev = q.pop().expect("non-empty");
            let EventKind::Timer { token } = ev.kind else {
                panic!("only timers were queued");
            };
            assert_eq!(token, ev.sseq, "payload follows its key");
            let key = (ev.time.ns(), ev.dst, ev.src, ev.sseq);
            assert_eq!(mirror.pop_first(), Some(key), "pop is the least queued key");
        };
        for sseq in 0..4_000u64 {
            let (time, dst) = (rng.next_below(500), rng.next_below(8) as Rank);
            mirror.insert((time, dst, 3, sseq));
            q.push(Event {
                time: SimTime(time),
                dst,
                src: 3,
                sseq,
                kind: EventKind::Timer { token: sseq },
            });
            peak = peak.max(q.len());
            if rng.next_below(3) == 0 {
                pop_one(&mut q, &mut mirror);
            }
        }
        while q.len() > 0 {
            pop_one(&mut q, &mut mirror);
        }
        assert!(mirror.is_empty() && q.pop().is_none());
        assert_eq!(q.slab.len(), peak, "slots are reused, never leaked");
    }

    #[test]
    #[should_panic(expected = "lookahead bound")]
    fn lookahead_violation_is_detected() {
        // Cross-shard latency (10 ns) below the declared lookahead
        // (1000 ns) must be caught, not silently mis-simulated.
        let mut sim = Simulation::new(Chatter::fleet(4), ConstantLatency(10), SimConfig::default());
        sim.configure_parallel(layout(4, 2, 1, 1_000));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "before the first run")]
    fn configure_parallel_after_run_is_rejected() {
        let mut sim = Simulation::new(Chatter::fleet(2), ConstantLatency(1), SimConfig::default());
        sim.run();
        sim.configure_parallel(ParallelConfig::new(2, 100));
    }

    /// Record spans and the network trace.
    fn spans() -> Recorders {
        Recorders {
            spans: true,
            ..Recorders::default()
        }
    }

    /// Stream with `cfg` into `sink`.
    fn streamed(cfg: StreamingCfg, sink: Option<Box<dyn Write + Send>>) -> Recorders {
        Recorders {
            streaming: Some((cfg, sink)),
            ..Recorders::default()
        }
    }

    /// A sink that keeps the snapshot JSONL bytes reachable after the
    /// simulation consumed the `Box<dyn Write>`.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn take_lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    /// Actor that records one span per callback, numbered in the order
    /// it wrote them. Rank 0 arms a zero-delay timer at start, so its
    /// second record is written at time 0 after every other rank's
    /// first.
    struct Spanner {
        n: u32,
        wrote: u64,
    }

    impl Spanner {
        fn span(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.record_span(self.wrote, SpanKind::Done);
            self.wrote += 1;
        }
    }

    impl Actor for Spanner {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.span(ctx);
            ctx.send((ctx.me() + 1) % self.n, 16, 3);
            ctx.set_timer(if ctx.me() == 0 { 0 } else { 150 }, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: Rank, hops: u64) {
            self.span(ctx);
            if hops > 0 {
                ctx.send(from, 16, hops - 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _token: u64) {
            self.span(ctx);
            self.span(ctx);
        }
    }

    /// `(report, span logs)` of a Spanner fleet; `record` is 0 for
    /// never, 1 for before `configure_parallel`, 2 for after.
    fn run_spanners(shards: u32, threads: u32, record: u8) -> (RunReport, Vec<SpanLog>) {
        let fleet = (0..6).map(|_| Spanner { n: 6, wrote: 0 }).collect();
        let mut sim = Simulation::new(fleet, ConstantLatency(100), SimConfig::default());
        if record == 1 {
            sim.record(spans());
        }
        sim.configure_parallel(layout(6, shards, threads, 100));
        if record == 2 {
            sim.record(spans());
        }
        let report = sim.run();
        let logs = sim.take_recordings().spans.unwrap_or_default();
        assert!(
            sim.take_recordings().spans.is_none(),
            "taking detaches the log"
        );
        (report, logs)
    }

    #[test]
    fn span_logs_follow_the_shards_and_keep_each_ranks_order() {
        let (plain, none) = run_spanners(1, 1, 0);
        assert!(none.is_empty());

        let (report, one) = run_spanners(1, 1, 2);
        assert_eq!(report, plain, "recording spans must not move the schedule");
        assert_eq!(one.len(), 1);
        // Rank 0's zero-delay timer fires after the last `on_start`:
        // the log is in dispatch order, not one sorted run.
        let keys: Vec<(u64, usize)> = one[0].iter().map(|r| (r.at_ns, r.rank)).collect();
        assert!(keys.windows(2).any(|w| w[0] > w[1]));
        let merged = dws_metrics::SpanTrace::from_shard_logs(6, one);
        // Per rank: one start, two at its timer, four deliveries of the
        // 3-hop ping-pong it starts.
        assert_eq!(merged.records().len(), 6 * (1 + 2 + 4));

        for (threads, record) in [(1, 1), (2, 2)] {
            let (report, logs) = run_spanners(3, threads, record);
            assert_eq!(report, plain);
            assert_eq!(logs.len(), 3);
            for (shard, log) in logs.iter().enumerate() {
                assert!(log.iter().all(|r| r.rank * 3 / 6 == shard));
                // Every rank's records sit in the order it wrote them.
                for rank in 0..6 {
                    let seq: Vec<u64> = log
                        .iter()
                        .filter(|r| r.rank == rank)
                        .map(|r| r.trace)
                        .collect();
                    assert!(seq.windows(2).all(|w| w[0] + 1 == w[1]), "{seq:?}");
                }
            }
            let sharded = dws_metrics::SpanTrace::from_shard_logs(6, logs);
            assert_eq!(sharded.records(), merged.records());
        }
    }

    /// Actor that toggles activity on a timer chain and mirrors every
    /// transition into its own oracle buffer for differential checks,
    /// stamped with the global clock it reads itself.
    #[derive(Clone)]
    struct Flicker {
        n: u32,
        oracle: Vec<(u64, bool)>,
    }

    impl Actor for Flicker {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.record_activity(true);
            self.oracle.push((ctx.now().ns(), true));
            let to = (ctx.me() + 1) % self.n;
            if to != ctx.me() {
                ctx.send(to, 16, 1);
            }
            ctx.set_timer(100 + 13 * ctx.me() as u64, 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Rank, _msg: u64) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
            let active = token.is_multiple_of(2);
            ctx.record_activity(active);
            self.oracle.push((ctx.now().ns(), active));
            if token < 6 {
                ctx.set_timer(50 + (7 * ctx.me() as u64) % 40, token + 1);
            }
        }
        fn live_stats(&self) -> LiveStats {
            LiveStats {
                ready_chunks: 1,
                steals_ok: 2,
                steals_empty: 1,
                quarantined: 0,
            }
        }
    }

    fn flicker_fleet(n: u32) -> Vec<Flicker> {
        (0..n).map(|_| Flicker { n, oracle: vec![] }).collect()
    }

    fn run_flicker_streamed(
        n: u32,
        shards: u32,
        threads: u32,
        cfg: StreamingCfg,
    ) -> (RunReport, Simulation<Flicker>, SharedBuf) {
        let mut sim = Simulation::new(flicker_fleet(n), ConstantLatency(100), SimConfig::default());
        sim.configure_parallel(layout(n, shards, threads, 100));
        let buf = SharedBuf::default();
        sim.record(streamed(cfg, Some(Box::new(buf.clone()))));
        let report = sim.run();
        (report, sim, buf)
    }

    #[test]
    fn activity_log_is_the_global_clock_trace_and_both_folds_agree() {
        for threads in [1, 2] {
            let mut sim =
                Simulation::new(flicker_fleet(6), ConstantLatency(100), SimConfig::default());
            sim.configure_parallel(layout(6, 2, threads, 100));
            let streaming = StreamingCfg {
                snapshot_every_sim_ns: 100,
                flight_ring: 0,
                ..StreamingCfg::default()
            };
            sim.record(Recorders {
                activity: true,
                ..streamed(streaming, None)
            });
            let end_ns = sim.run().end_time.ns();
            let recorded = sim.take_recordings();
            let live = recorded.occupancy.expect("streamed");
            let logs = recorded.activity.expect("activity recorded");
            assert_eq!(logs.len(), 2);
            let again = sim.take_recordings();
            assert!(again.activity.is_none(), "taking detaches the log");
            let trace = dws_metrics::ActivityTrace::from_shard_logs(6, logs);
            trace.check().expect("the log is well-formed");
            // Every rank's transitions are its own mirror.
            for (rank, actor) in sim.actors().iter().enumerate() {
                let mine: Vec<(u64, bool)> = trace
                    .transitions()
                    .iter()
                    .filter(|t| t.rank == rank as u32)
                    .map(|t| (t.at_ns, t.active))
                    .collect();
                assert_eq!(mine, actor.oracle, "rank {rank}");
            }
            // The live fold and the fold over the taken log agree.
            let posthoc = dws_metrics::OccupancyCurve::from_trace(&trace, end_ns);
            assert_eq!(live.busy_ns_per_rank(), posthoc.busy_ns_per_rank());
            assert_eq!(live.w_max(), posthoc.w_max());
            assert_eq!(live.busy_integral_ns(), posthoc.busy_integral_ns());
            for p in [0.25, 0.5, 0.9, 1.0] {
                assert_eq!(live.first_reach_ns(p), posthoc.first_reach_ns(p));
                assert_eq!(live.last_reach_ns(p), posthoc.last_reach_ns(p));
            }
        }
    }

    #[test]
    fn streaming_snapshots_parse_and_leave_the_schedule_unchanged() {
        // Baseline without streaming.
        let mut plain =
            Simulation::new(flicker_fleet(6), ConstantLatency(100), SimConfig::default());
        plain.configure_parallel(ParallelConfig::new(2, 100));
        let base = plain.run();
        let base_oracles: Vec<Vec<(u64, bool)>> =
            plain.actors().iter().map(|a| a.oracle.clone()).collect();

        for threads in [1, 2] {
            let (report, sim, buf) = run_flicker_streamed(
                6,
                2,
                threads,
                StreamingCfg {
                    snapshot_every_sim_ns: 100,
                    ..StreamingCfg::default()
                },
            );
            assert_eq!(report, base, "streaming must not perturb the schedule");
            let oracles: Vec<Vec<(u64, bool)>> =
                sim.actors().iter().map(|a| a.oracle.clone()).collect();
            assert_eq!(oracles, base_oracles);
            let lines = buf.take_lines();
            assert!(!lines.is_empty(), "at least one snapshot line");
            let mut last_seq = None;
            for line in &lines {
                let doc = dws_metrics::export::parse(line).expect("valid JSON line");
                let snap = Snapshot::from_json(&doc).expect("valid snapshot");
                assert_eq!(snap.schema, dws_metrics::SNAPSHOT_SCHEMA_VERSION);
                // Live stats aggregate across all 6 ranks.
                assert_eq!(snap.steals_ok, 12);
                assert_eq!(snap.steals_empty, 6);
                assert_eq!(snap.ready_chunks, 6);
                assert_eq!(snap.shards.len(), 2);
                if let Some(prev) = last_seq {
                    assert_eq!(snap.seq, prev + 1);
                }
                last_seq = Some(snap.seq);
            }
        }
    }

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

    #[test]
    fn wall_budget_abort_dumps_the_flight_recorder() {
        for threads in [1, 2, 3] {
            let dir = std::env::temp_dir().join("dws_engine_abort_test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("dump_{threads}.jsonl"));
            let _ = std::fs::remove_file(&path);
            let (report, _, buf) = run_flicker_streamed(
                6,
                3,
                threads,
                StreamingCfg {
                    snapshot_every_sim_ns: 100,
                    flight_ring: 64,
                    flight_dump_path: Some(path.clone()),
                    wall_budget: Some(Duration::ZERO),
                    ..StreamingCfg::default()
                },
            );
            assert!(report.halted, "budget abort reports a halted run");
            let text = std::fs::read_to_string(&path).expect("dump written");
            let mut lines = text.lines();
            let header = dws_metrics::export::parse(lines.next().expect("header")).unwrap();
            assert_eq!(
                header.get("kind").and_then(|v| v.as_str()),
                Some("flight_dump")
            );
            assert_eq!(
                header.get("reason").and_then(|v| v.as_str()),
                Some("wall_budget")
            );
            // The final snapshot rides along in the dump and in the
            // sink stream.
            let snap_line = lines.next().expect("snapshot line");
            let snap = Snapshot::from_json(&dws_metrics::export::parse(snap_line).unwrap())
                .expect("valid snapshot");
            assert_eq!(snap.shards.len(), 3);
            assert!(!buf.take_lines().is_empty());
            let _ = std::fs::remove_file(&path);
        }
    }
}
