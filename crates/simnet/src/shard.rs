//! One shard of the engine: per-rank state, the context every shard
//! shares, the core that queues, routes and sends events, the [`Ctx`]
//! actors call back through, and the loop that runs one window.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use dws_metrics::{SpanKind, SpanRecord, Transition};

use crate::engine::{Actor, NetworkModel, Rank};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{FaultPlan, FaultStats};
use crate::observer::{EventKind as ObsKind, Recorder};
use crate::profiler::Phase;
use crate::rng::DetRng;
use crate::time::SimTime;

/// Multiplicative hasher for the (source, destination) FIFO map: the
/// keys are rank pairs the engine packs itself, and the map is probed
/// once per send, where SipHash overhead is measurable. Dead pairs are
/// swept out (see `ShardCore::fifo`), so it stays small enough to cache.
#[derive(Default)]
pub(crate) struct PairHasher(u64);

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
pub(crate) const FIFO_SWEEP_MIN: usize = 1024;

/// Per-rank deterministic state. Every stream is a function of the
/// master seed and the rank alone, which is what makes the schedule
/// independent of how ranks are sharded.
pub(crate) struct RankState {
    pub(crate) rng: DetRng,
    pub(crate) net_rng: DetRng,
    pub(crate) fault_rng: DetRng,
    /// Next per-source sequence number (events this rank creates).
    pub(crate) sseq: u64,
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
/// [`Simulation`](crate::Simulation), borrowed beside the mutably
/// borrowed shards.
pub(crate) struct Shared {
    pub(crate) n_ranks: u32,
    /// Rank → (shard, slot-within-shard).
    pub(crate) rank_loc: Vec<(u32, u32)>,
    pub(crate) crash_at: Vec<Option<u64>>,
    pub(crate) fault: FaultPlan,
    pub(crate) fault_active: bool,
    pub(crate) jitter: f64,
    /// Lower bound on cross-shard message latency. `u64::MAX` (no
    /// bound: a lone shard has no cross-shard send) until
    /// [`configure_parallel`](crate::Simulation::configure_parallel)
    /// sets one.
    pub(crate) lookahead_ns: u64,
}

#[inline]
pub(crate) fn crashed_at(crash_at: &[Option<u64>], rank: Rank, at: SimTime) -> bool {
    crash_at[rank as usize].is_some_and(|t| at.ns() >= t)
}

/// Mutable per-shard engine state: event queue, FIFO map, network
/// replica, counters, and the shard's recorder.
pub(crate) struct ShardCore<M> {
    pub(crate) id: usize,
    pub(crate) now: SimTime,
    /// Pending events, minimum canonical key first.
    pub(crate) queue: EventQueue<M>,
    /// Earliest delivery time still free per (from, to) pair, one tick
    /// past its last scheduled delivery, to enforce MPI non-overtaking.
    /// Only pairs with a local sender appear. No send is scheduled
    /// before `now`, so an entry at or before `now` is dead; a send
    /// sweeps those out when the map reaches `fifo_sweep_at` entries.
    pub(crate) fifo: PairMap<SimTime>,
    pub(crate) fifo_sweep_at: usize,
    pub(crate) net: Box<dyn NetworkModel>,
    pub(crate) delivered: u64,
    pub(crate) timers: u64,
    pub(crate) messages_sent: u64,
    /// Events processed (deliveries + timers + crash-lost), cumulative.
    pub(crate) events: u64,
    pub(crate) fault_stats: FaultStats,
    /// Everything the shard records; `None` when nothing does.
    pub(crate) rec: Option<Recorder>,
    /// Events destined for other shards, exchanged at window barriers.
    pub(crate) outboxes: Vec<Vec<Event<M>>>,
    /// Destination shards whose outbox became non-empty since the last
    /// exchange — the exchange walks this list instead of scanning all
    /// M outboxes, keeping the per-window cost proportional to actual
    /// cross-shard traffic rather than O(shards²).
    pub(crate) dirty_out: Vec<u32>,
    pub(crate) windows: u64,
}

impl<M> ShardCore<M> {
    /// A fresh core for shard `id` of `shards`, owning `ranks` ranks,
    /// recording nothing.
    fn new(id: usize, shards: usize, ranks: usize, net: Box<dyn NetworkModel>) -> Self {
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
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            dirty_out: Vec::new(),
            windows: 0,
        }
    }

    /// Start timing a phase region: the host clock when the run
    /// profiles, else `None` and no clock is read.
    #[inline]
    pub(crate) fn phase_start(&self) -> Option<Instant> {
        self.rec.as_ref().and_then(Recorder::phase_start)
    }

    /// Book the region started at `t0` to `phase` in the shard's
    /// recorder.
    #[inline]
    pub(crate) fn phase_stop(&mut self, phase: Phase, t0: Option<Instant>) {
        if let Some(rec) = &mut self.rec {
            rec.phases.stop(phase, t0);
        }
    }

    /// Start a window clock: the host clock when the run profiles or
    /// streams, else `None` and no clock is read.
    #[inline]
    pub(crate) fn window_start(&self) -> Option<Instant> {
        self.rec.as_ref().and_then(Recorder::window_start)
    }

    /// Book the host time since `b0` as the shard's busy time.
    pub(crate) fn book_busy(&mut self, b0: Option<Instant>) {
        if let (Some(b0), Some(rec)) = (b0, &mut self.rec) {
            rec.busy_ns += b0.elapsed().as_nanos() as u64;
        }
    }

    /// Enqueue locally or hand off to the destination shard's outbox,
    /// asserting the conservative lookahead bound for the latter.
    fn route(&mut self, shared: &Shared, ev: Event<M>) {
        let dst_shard = shared.rank_loc[ev.dst as usize].0 as usize;
        if dst_shard == self.id {
            self.queue.push(ev);
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
    /// *global* time, for
    /// [`Recorders::activity`](crate::Recorders::activity) and
    /// streaming. One branch when nothing records; no timer, message or
    /// RNG draw depends on it, so the schedule is identical either way.
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
    /// ([`Recorders::profiler`](crate::Recorders::profiler)), else
    /// `None` and no clock is read. Pair with
    /// [`phase_stop`](Self::phase_stop).
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
    /// time, for [`Recorders::spans`](crate::Recorders::spans). One
    /// branch when nothing records; no timer, message or RNG draw
    /// depends on it, so the schedule is identical with spans on or off.
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
        self.core.queue.push(ev);
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
        let (core, shared, state, from) = (&mut *self.core, self.shared, &mut *self.state, self.me);
        let depart_ns = core.now.ns() + extra_delay_ns;
        let mut spike_ns = 0u64;
        let mut duplicate = false;
        if shared.fault_active {
            let t0 = core.phase_start();
            // Fixed draw order — drop, spike, dup — one draw each per
            // send, from the *sender's* fault stream, so the fault
            // schedule is a pure function of the seed and each rank's
            // own send history, independent of shard layout.
            let u_drop = state.fault_rng.next_f64();
            let u_spike = state.fault_rng.next_f64();
            let u_dup = state.fault_rng.next_f64();
            // Partition cuts are window-based like brownouts and consume
            // no RNG draws — the three draws above already happened, so
            // the surviving traffic's fault schedule is unchanged by
            // adding a partition to the plan.
            let brownout = shared.fault.in_brownout(from, depart_ns)
                || shared.fault.in_brownout(to, depart_ns);
            let lost = if brownout {
                core.fault_stats.brownout_drops += 1;
                Some(ObsKind::Dropped { from, to, brownout })
            } else if shared.fault.partitioned(from, to, depart_ns) {
                core.fault_stats.partition_drops += 1;
                Some(ObsKind::Partitioned { from, to })
            } else if u_drop < shared.fault.drop_prob {
                core.fault_stats.dropped += 1;
                Some(ObsKind::Dropped { from, to, brownout })
            } else {
                None
            };
            if let Some(kind) = lost {
                core.messages_sent += 1;
                core.phase_stop(Phase::FaultEval, t0);
                core.log_event(kind);
                return;
            }
            if u_spike < shared.fault.spike_prob {
                spike_ns = shared.fault.spike_ns(state.fault_rng.next_f64());
                core.fault_stats.spiked += 1;
            }
            duplicate = u_dup < shared.fault.dup_prob;
            core.phase_stop(Phase::FaultEval, t0);
            if spike_ns > 0 {
                core.log_event(ObsKind::Delayed { from, to, spike_ns });
            }
        }
        let mut delay = core.net.egress_ns(from, to, bytes, depart_ns);
        if shared.jitter > 0.0 {
            let stretch = 1.0 + shared.jitter * state.net_rng.next_f64();
            delay = (delay as f64 * stretch) as u64;
        }
        delay += spike_ns;
        let key = ((from as u64) << 32) | to as u64;
        let natural = core.now + extra_delay_ns + delay;
        if core.fifo.len() >= core.fifo_sweep_at {
            // The next sweep waits for as many inserts as this one keeps
            // and the table shrinks with it: amortised O(1) per send.
            core.fifo.retain(|_, free| *free > core.now);
            core.fifo_sweep_at = (2 * core.fifo.len()).max(FIFO_SWEEP_MIN);
            core.fifo.shrink_to(core.fifo_sweep_at);
        }
        let free = core.fifo.entry(key).or_default();
        let at = natural.max(*free);
        *free = at + 1;
        core.messages_sent += 1;
        if let Some(rec) = &mut core.rec {
            // Network latency as experienced by the message: scheduled
            // arrival minus departure, so FIFO pushback and spikes are
            // included (receive-side NIC admission is charged later).
            rec.sent(core.now, from, to, bytes as u32, at, at.ns() - depart_ns);
        }
        let sseq = state.next_sseq();
        if duplicate {
            // The duplicate rides one tick behind the original and is
            // exempt from FIFO ordering: it is a fault, not a message.
            core.fault_stats.duplicated += 1;
            core.log_event(ObsKind::Duplicated { from, to });
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
            core.route(shared, dup);
        }
        core.route(
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

/// One shard: the ranks it owns (actors + per-rank state, in rank
/// order) plus its engine core.
pub(crate) struct Shard<A: Actor> {
    pub(crate) members: Vec<Rank>,
    pub(crate) actors: Vec<A>,
    pub(crate) states: Vec<RankState>,
    pub(crate) core: ShardCore<A::Msg>,
}

impl<A: Actor> Shard<A> {
    pub(crate) fn start(&mut self, shared: &Shared) {
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
    pub(crate) fn run_window(&mut self, shared: &Shared, end_ns: u64, max_time_ns: Option<u64>) {
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
                        self.core.queue.push(Event {
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

/// Book one barrier crossing that kept a worker `waited` host ns to
/// its shards `own`: split evenly, with the remainder and the crossing
/// on the first, so the shards' waits sum to every wait exactly.
pub(crate) fn book_wait<A: Actor>(own: &mut [Shard<A>], waited: u64) {
    let n = own.len() as u64;
    for (i, shard) in own.iter_mut().enumerate() {
        if let Some(rec) = &mut shard.core.rec {
            let first = u64::from(i == 0);
            let ns = waited / n + first * (waited % n);
            rec.phases.add(Phase::Barrier, first, ns);
        }
    }
}

/// Deal `actors` and their `states`, both in rank order, into
/// `shards`: all into one shard when `shard_of` is `None`, else one
/// shard per distinct entry of the map, each holding its ranks in
/// rank order. The first shard keeps `net` and every other one gets
/// a replica; `rank_loc` receives each rank's (shard, slot).
pub(crate) fn deal<A: Actor>(
    actors: Vec<A>,
    states: Vec<RankState>,
    net: Box<dyn NetworkModel>,
    shard_of: Option<&[u32]>,
    shards: &mut Vec<Shard<A>>,
    rank_loc: &mut Vec<(u32, u32)>,
) {
    let n = actors.len();
    let Some(shard_of) = shard_of else {
        let shard = Shard {
            members: (0..n as Rank).collect(),
            actors,
            states,
            core: ShardCore::new(0, 1, n, net),
        };
        shards.reserve_exact(1);
        shards.push(shard);
        *rank_loc = (0..n as u32).map(|r| (0, r)).collect();
        return;
    };
    let n_shards = shard_of.iter().copied().max().unwrap_or(0) as usize + 1;
    let mut groups: Vec<Vec<Rank>> = vec![Vec::new(); n_shards];
    for (r, &s) in shard_of.iter().enumerate() {
        groups[s as usize].push(r as Rank);
    }
    let groups: Vec<Vec<Rank>> = groups.into_iter().filter(|g| !g.is_empty()).collect();
    let m = groups.len();
    let mut nets: Vec<Box<dyn NetworkModel>> = (1..m).map(|_| net.replicate()).collect();
    nets.insert(0, net);
    let mut actor_slots: Vec<Option<A>> = actors.into_iter().map(Some).collect();
    let mut state_slots: Vec<Option<RankState>> = states.into_iter().map(Some).collect();
    for (id, (members, net)) in groups.into_iter().zip(nets).enumerate() {
        let actors: Vec<A> = members
            .iter()
            .map(|&r| actor_slots[r as usize].take().expect("each rank once"))
            .collect();
        let states: Vec<RankState> = members
            .iter()
            .map(|&r| state_slots[r as usize].take().expect("each rank once"))
            .collect();
        for (slot, &r) in members.iter().enumerate() {
            rank_loc[r as usize] = (id as u32, slot as u32);
        }
        let core = ShardCore::new(id, m, members.len(), net);
        shards.push(Shard {
            members,
            actors,
            states,
            core,
        });
    }
}
