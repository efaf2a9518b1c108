//! The discrete-event simulation engine: [`Simulation`], its run loop,
//! and the traits and configurations it is built from.
//!
//! A [`Simulation`] hosts one [`Actor`] per rank. Two event kinds
//! exist: message deliveries and timers. Actors react to events
//! through a [`Ctx`] handle that lets them send messages (delayed by
//! the pluggable network model), arm timers, query the clock, and draw
//! deterministic random numbers. The crate docs list the programming
//! model's guarantees: pairwise FIFO, arrival apart from handling, one
//! seed and one global clock ([`Ctx::now`]), so the activity trace
//! ([`Ctx::record_activity`]) needs none of the skew correction the
//! paper applied to its traces. Events are ordered by the
//! shard-count-invariant key `(time, destination rank, source rank,
//! per-source sequence number)`, and every random stream is per rank.
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::abort;
use crate::barrier::WindowBarrier;
use crate::event::Event;
use crate::exchange::{decide, fnv1a, GroupSlot, Verdict, FNV_OFFSET};
use crate::fault::{FaultPlan, FaultStats};
use crate::observer::{Recorder, Recorders, Recordings};
use crate::profiler::{Phase, ShardProfile};
use crate::rng::DetRng;
pub use crate::shard::Ctx;
use crate::shard::{book_wait, crashed_at, deal, RankState, Shard, Shared};
pub use crate::stream::StreamingCfg;
use crate::stream::{flight_rings, publish_rows, ShardPub, StreamState};
use crate::time::SimTime;

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

/// Per-actor vital signs aggregated into each streaming
/// [`Snapshot`](dws_metrics::Snapshot). All counters are cumulative;
/// the engine sums them across ranks.
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
        let (mut shards, mut rank_loc) = (Vec::new(), Vec::new());
        deal(actors, states, net, None, &mut shards, &mut rank_loc);
        Self {
            shards,
            shared: Shared {
                n_ranks: n,
                rank_loc,
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
        let old = self.shards.pop().expect("exactly one shard");
        let Shard {
            actors,
            states,
            core,
            ..
        } = old;
        let (shards, rank_loc) = (&mut self.shards, &mut self.shared.rank_loc);
        deal(actors, states, core.net, Some(&map), shards, rank_loc);
        self.exec_threads = threads.min(self.shards.len() as u32).max(1);
        self.shared.lookahead_ns = cfg.lookahead_ns.max(1);
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
                let rings = flight_rings(&self.shards);
                if !rings.is_empty() {
                    abort::register_panic_dump(path, &rings);
                }
                abort::install_sigterm_hook();
            }
            self.streaming = Some(StreamState::new(cfg, sink, self.shared.n_ranks));
        }
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
    /// Protocol: ONE barrier per window. After it, iteration `k` reads
    /// the plan slots and exchange cells window `k - 1` wrote into one
    /// parity, derives the identical verdict on every thread, runs the
    /// worker's own shards and writes into the other parity. A shard's
    /// published minimum covers what it deposited, so no pending event
    /// ever escapes the global minimum.
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
                            st.snapshot(events, &snap_pubs);
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
                            shard.core.queue.push(ev);
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
                    self.shards[g].core.queue.push(ev);
                }
            }
        }
        self.plan_digest = digest;
        self.plan_windows = windows;
        if let Some(st) = self.streaming.as_mut() {
            st.close(&mut self.shards, &snap_pubs, abort_why);
        }
        self.finish_run(limit_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{EventKind as ObsKind, EventRecord};
    use crate::shard::FIFO_SWEEP_MIN;
    use dws_metrics::{Snapshot, SpanKind, SpanLog};
    use std::io::Write;
    use std::sync::Arc;
    use std::time::Duration;

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
