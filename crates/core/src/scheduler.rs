//! The per-rank work-stealing scheduler, mirroring the reference UTS
//! `mpi_workstealing.c` (paper §II-A, Algorithm 1).
//!
//! Each rank runs this state machine inside the discrete-event
//! simulator:
//!
//! ```text
//! while not finished:
//!     while node <- GET(stack):          # Working
//!         for child in NEXTCHILD(node):
//!             PUSH(stack, child)
//!     while stack is empty:              # Searching
//!         v <- SELECTVICTIM
//!         STEAL(v)
//! ```
//!
//! Fidelity notes, matching the paper's description of the reference
//! implementation:
//!
//! - **No work-first principle**: a thief *posts a request*; the victim
//!   answers between node expansions. We model the victim's polling
//!   cadence with `poll_interval`: a working rank services buffered
//!   messages every `poll_interval` node expansions. An idle rank
//!   answers immediately.
//! - **Chunked steals**: only whole chunks move; the newest chunk is
//!   private ([`ChunkedStack`]).
//! - **Steal amount**: one chunk (reference) or half the stealable
//!   chunks (§IV-C).
//! - **Work accounting**: expanding a node costs
//!   [`Workload::node_ns`](dws_uts::Workload::node_ns) simulated
//!   nanoseconds; message handling is free for the handler (its cost
//!   lives in the sender-to-receiver latency), which matches the
//!   lightweight-polling assumption of the reference code.
//! - **Batching**: each batch expands up to `poll_interval` nodes
//!   *then* advances the clock by their cost. Thieves arriving
//!   mid-batch see the post-batch stack — a half-batch skew that is
//!   far below the latency scale the paper studies.
//! - **Tracing**: active ⇄ idle transitions go to the engine's
//!   per-shard activity log through `Ctx::record_activity`, on the
//!   global clock; the rank keeps no trace of its own.

use crate::health::{AdaptiveCfg, Gate, HealthTracker};
use crate::stack::{Chunk, ChunkedStack};
use crate::termination::{TerminationState, Token, TokenAction};
use crate::victim::VictimSelector;
use dws_metrics::{trace_id, SpanKind, StealStats};
use dws_simnet::profiler::{prof_record, prof_start, Phase};
use dws_simnet::{Actor, Ctx, Rank};
use dws_topology::Job;
use dws_uts::{Node, Workload, NODE_WIRE_BYTES};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// How much of a victim's stealable work one steal transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealAmount {
    /// A single chunk (the reference implementation).
    OneChunk,
    /// Half the stealable chunks, rounded up (§IV-C "Half").
    Half,
}

impl StealAmount {
    /// Chunks to take from a victim exposing `stealable` chunks.
    #[inline]
    pub fn want(&self, stealable: usize) -> usize {
        match self {
            StealAmount::OneChunk => stealable.min(1),
            StealAmount::Half => stealable.div_ceil(2),
        }
    }

    /// Suffix the paper appends to strategy names ("Reference Half").
    pub fn label(&self) -> &'static str {
        match self {
            StealAmount::OneChunk => "",
            StealAmount::Half => " Half",
        }
    }
}

/// Scheduler parameters shared by all ranks.
#[derive(Debug, Clone)]
pub struct SchedulerCfg {
    /// The tree to search.
    pub workload: Workload,
    /// Nodes per chunk (paper default: 20).
    pub chunk_size: usize,
    /// Node expansions between message polls while working.
    pub poll_interval: u32,
    /// Steal granularity.
    pub steal: StealAmount,
    /// Delay before rank 0 relaunches a failed termination probe.
    pub probe_backoff_ns: u64,
    /// Pause between a failed steal reply and the next attempt
    /// (0 = immediate retry, as the reference implementation does).
    pub retry_delay_ns: u64,
    /// CPU cost a *working* rank pays to service one incoming message
    /// at a poll point (MPI probe/recv/reply processing). This is the
    /// mechanism by which failed-steal convoys slow down the very ranks
    /// that hold work — the paper's link between failed-steal counts
    /// (Figures 7, 15) and performance. Idle ranks answer for free:
    /// they have nothing better to do.
    pub msg_handle_ns: u64,
    /// Additional victim-side cost per chunk packaged into a steal
    /// reply (copying nodes out of the stack into the message).
    pub package_chunk_ns: u64,
    /// Extension (Saraswat et al., the paper's §VI comparison point):
    /// lifeline-based load balancing. After this many *consecutive*
    /// failed steals a thief registers with its lifeline buddies
    /// (hypercube neighbours) and goes dormant instead of spamming
    /// steal requests; ranks with surplus work push chunks to their
    /// registered dormant buddies at polling points. `None` disables
    /// lifelines (the paper's protocol).
    pub lifeline_threshold: Option<u32>,
    /// Failure tolerance: steal timeouts with exponential backoff,
    /// acknowledged work transfers with retransmission, termination
    /// tokens with regeneration, and crashed-rank avoidance. `None`
    /// (the default) runs the paper's bare protocol with **zero**
    /// extra timers, messages, or RNG draws — the fault-free event
    /// schedule is untouched.
    pub fault_tolerance: Option<FaultToleranceCfg>,
}

impl SchedulerCfg {
    /// Defaults: 20-node chunks as in the paper; polling every 4
    /// expansions (the reference implementation polls every iteration —
    /// 4 keeps the victim-service wait below the network latency scale
    /// while bounding simulator event counts); a 2 µs retry pause
    /// modelling the thief-side bookkeeping between attempts.
    pub fn new(workload: Workload, steal: StealAmount) -> Self {
        Self {
            workload,
            chunk_size: 20,
            poll_interval: 4,
            steal,
            probe_backoff_ns: 10_000,
            retry_delay_ns: 2_000,
            msg_handle_ns: 600,
            package_chunk_ns: 200,
            lifeline_threshold: None,
            fault_tolerance: None,
        }
    }
}

/// Knobs of the failure-tolerant steal protocol. All time scales are
/// *derived from the topology latency model* at use time (paper-style:
/// no magic wall-clock constants) — these are only the multipliers and
/// the fallback for when no latency model is wired in.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultToleranceCfg {
    /// Multiplier on the estimated request→reply round trip (plus one
    /// victim service interval) before a steal request is declared
    /// lost and the thief re-selects a victim.
    pub timeout_mult: u32,
    /// Cap on exponential-backoff doublings applied after consecutive
    /// timeouts (steal requests) or repeated retransmissions.
    pub max_backoff_doublings: u32,
    /// Round-trip estimate used when no [`Job`] latency model is
    /// available (unit tests driving a `Worker` directly).
    pub fallback_rtt_ns: u64,
}

impl Default for FaultToleranceCfg {
    fn default() -> Self {
        Self {
            timeout_mult: 4,
            max_backoff_doublings: 6,
            fallback_rtt_ns: 200_000,
        }
    }
}

/// Messages of the steal protocol.
///
/// Sequence and transfer identifiers exist for the failure-tolerant
/// protocol: `seq` lets a thief match a reply to the request it is
/// still waiting on (anything else is stale or duplicated), and `xfer`
/// identifies a work transfer end-to-end so duplicated deliveries are
/// absorbed exactly once and lost deliveries can be retransmitted
/// until acknowledged. With fault tolerance off they ride along as
/// zeros and change nothing (wire sizes already budget full headers).
#[derive(Debug, Clone)]
pub enum Msg {
    /// "Give me work."
    StealRequest {
        /// Thief-local request sequence number.
        seq: u64,
    },
    /// Reply: the stolen chunks; empty means the steal failed.
    StealReply {
        /// Echo of the request's sequence number (`u64::MAX` on a
        /// retransmission, which can never match a live request and
        /// therefore always takes the stale-reply path).
        seq: u64,
        /// Victim-local transfer id (0 for empty replies).
        xfer: u64,
        /// Chunks transferred to the thief (empty on failure).
        chunks: Vec<Chunk>,
    },
    /// Failure-tolerant protocol: "transfer `xfer` arrived; stop
    /// retransmitting it."
    StealAck {
        /// The victim-local transfer id being acknowledged.
        xfer: u64,
    },
    /// Lifeline extension: "I am dormant; push me work when you have
    /// some." Registers the sender with the receiver.
    LifelineRequest,
    /// Lifeline extension: unsolicited work pushed to a dormant buddy.
    LifelinePush {
        /// Sender-local transfer id (0 with fault tolerance off).
        xfer: u64,
        /// Chunks donated to the dormant rank (never empty).
        chunks: Vec<Chunk>,
    },
    /// Termination-detection token. `seq` is a sender-local sequence
    /// number for per-hop acknowledgement (0 with fault tolerance off).
    Token {
        /// The ring token itself.
        token: Token,
        /// Sender-local hop sequence number.
        seq: u64,
    },
    /// Fault tolerance only: acknowledges receipt of a ring token hop
    /// (the token may still be discarded as stale — receipt is what
    /// stops the sender's retransmission).
    TokenAck {
        /// The hop sequence number being acknowledged.
        seq: u64,
    },
    /// Global termination announcement (broadcast by rank 0).
    Done,
}

impl Msg {
    /// Bytes on the wire, for latency accounting.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Msg::StealRequest { .. }
            | Msg::LifelineRequest
            | Msg::StealAck { .. }
            | Msg::TokenAck { .. } => 16,
            Msg::StealReply { chunks, .. } | Msg::LifelinePush { chunks, .. } => {
                16 + chunks.iter().map(|c| c.len()).sum::<usize>() * NODE_WIRE_BYTES
            }
            Msg::Token { .. } => 24,
            Msg::Done => 8,
        }
    }
}

/// Timer tokens. Plain small values are the paper protocol's timers;
/// the fault-tolerant protocol packs an identifier into the low 56
/// bits under a class tag in the top byte.
const TIMER_WORK: u64 = 1;
const TIMER_PROBE: u64 = 2;
const TIMER_RETRY: u64 = 3;
/// Class tag: steal-request timeout; low bits hold the request `seq`.
const TIMER_CLASS_STEAL_TIMEOUT: u64 = 4;
/// Class tag: work-transfer retransmission; low bits hold the `xfer`.
const TIMER_CLASS_RETRANSMIT: u64 = 5;
/// Class tag: rank 0's probe watchdog; low bits hold the generation.
const TIMER_CLASS_WATCHDOG: u64 = 6;
/// Class tag: token hop retransmission; low bits hold the hop `seq`.
const TIMER_CLASS_TOKEN_RETX: u64 = 7;
/// Low 56 bits of a classed timer token.
const TIMER_ID_MASK: u64 = (1 << 56) - 1;

#[inline]
fn classed_timer(class: u64, id: u64) -> u64 {
    debug_assert!(id <= TIMER_ID_MASK);
    (class << 56) | id
}

/// One rank of the distributed work-stealing computation.
pub struct Worker {
    cfg: Arc<SchedulerCfg>,
    stack: ChunkedStack,
    selector: VictimSelector,
    term: TerminationState,
    /// True while a WORK timer is outstanding (the rank is "computing"
    /// and only polls messages at batch boundaries).
    computing: bool,
    /// Messages that arrived while computing, handled at the next poll.
    /// The third field is the global arrival time — data-only (nothing
    /// scheduled depends on it), kept so the tracer can attribute
    /// queue-at-victim wait exactly.
    pending: VecDeque<(Rank, Msg, u64)>,
    /// Victim of the outstanding steal request, if any.
    outstanding: Option<Rank>,
    /// Global time the outstanding steal request was sent (search-time
    /// accounting: "the portion of the execution time a process was
    /// waiting for a steal answer").
    wait_since_ns: Option<u64>,
    /// Time at which the current work-discovery session began.
    search_since_ns: Option<u64>,
    /// Global termination flag.
    done: bool,
    /// Accumulated message-service CPU time to charge to the next
    /// batch (see [`SchedulerCfg::msg_handle_ns`]).
    service_debt_ns: u64,
    /// While draining the poll queue: this message's position in the
    /// service order, as a delay applied to any reply it generates. A
    /// deep queue of steal requests is answered serially — the convoy
    /// cost that makes deterministic victim selection collapse at
    /// scale.
    service_offset_ns: u64,
    /// Last state written to the activity trace; keeps transitions
    /// alternating even when work arrives in the window between a stack
    /// running dry and the idle transition being recorded.
    traced_active: bool,
    /// Consecutive failed steals since the last success.
    consecutive_fails: u32,
    /// Dormant: registered with lifelines, no active steal requests.
    dormant: bool,
    /// Sequence number of the next steal request.
    req_seq: u64,
    /// Sequence number of the outstanding request (valid while
    /// `outstanding.is_some()`; matches replies under fault tolerance).
    outstanding_seq: u64,
    /// Consecutive steal-request timeouts (drives exponential backoff).
    consecutive_timeouts: u32,
    /// State only fault tolerance, lifelines or the adaptive overlay
    /// use; `None` unless one of them is on, so the paper's protocol
    /// tests it with one branch and never touches its cache lines.
    rec: Option<Box<Recovery>>,
    /// Statistics counters.
    pub counters: StealStats,
}

/// The part of a [`Worker`] that only the protocol's extensions use —
/// fault recovery, lifelines and the adaptive health overlay. Kept out
/// of line so the state a fault-free event touches stays small.
struct Recovery {
    /// Latency oracle for deriving fault-tolerance time scales from
    /// the topology model (only consulted when fault tolerance is on).
    job: Option<Arc<Job>>,
    /// Next transfer id this rank will assign (starts at 1; 0 means
    /// "untracked", the fault-tolerance-off wire value).
    xfer_next: u64,
    /// Work transfers sent but not yet acknowledged:
    /// `(xfer, thief, chunks, attempt)`. Non-empty keeps this rank
    /// non-passive — the unacked-gating that lets degraded termination
    /// drop Safra's message counts without losing soundness.
    unacked: Vec<(u64, Rank, Vec<Chunk>, u32)>,
    /// Transfers whose thief crashed before acknowledging: given up
    /// on, kept for lost-work reconciliation.
    stranded: Vec<(u64, Rank, Vec<Chunk>)>,
    /// Transfers this rank has already absorbed, by `(victim, xfer)`;
    /// duplicated deliveries are dropped and re-acked.
    absorbed: HashSet<(Rank, u64)>,
    /// Next token hop sequence number (starts at 1; 0 is the
    /// fault-tolerance-off wire value).
    token_seq_next: u64,
    /// The ring-token hop awaiting acknowledgement:
    /// `(seq, successor, token, attempt)`.
    pending_token: Option<(u64, Rank, Token, u32)>,
    /// Highest token hop seq processed per predecessor (dedups
    /// retransmitted hops).
    token_seen: HashMap<Rank, u64>,
    /// Rank 0: regenerations of the current probe (backoff driver).
    watchdog_attempts: u32,
    /// Rank 0: a crash has been observed; termination runs lossy.
    crash_seen: bool,
    /// Lifeline buddies this rank registers with (hypercube neighbours).
    lifelines: Vec<Rank>,
    /// Dormant buddies waiting for a push from this rank.
    lifeline_waiters: Vec<Rank>,
    /// Adaptive victim selection: per-victim health ledger. `None`
    /// (the default) keeps the draw path exactly the base policy's —
    /// zero extra RNG draws, so the schedule is untouched.
    health: Option<HealthTracker>,
}

impl Recovery {
    fn new(lifelines: Vec<Rank>) -> Self {
        Self {
            job: None,
            xfer_next: 1,
            unacked: Vec::new(),
            stranded: Vec::new(),
            absorbed: HashSet::new(),
            token_seq_next: 1,
            pending_token: None,
            token_seen: HashMap::new(),
            watchdog_attempts: 0,
            crash_seen: false,
            lifelines,
            lifeline_waiters: Vec::new(),
            health: None,
        }
    }
}

/// Hypercube lifeline graph: rank `me`'s buddies are `me XOR 2^k` for
/// every bit position below `n`; always non-empty and connected, so
/// pushed work can reach any dormant rank transitively.
fn hypercube_lifelines(me: Rank, n: u32) -> Vec<Rank> {
    let mut out = Vec::new();
    let mut bit = 1u32;
    while bit < n {
        let buddy = me ^ bit;
        if buddy < n {
            out.push(buddy);
        }
        bit <<= 1;
    }
    if out.is_empty() && n > 1 {
        out.push((me + 1) % n);
    }
    out
}

impl Worker {
    /// Build the worker for `me`; rank 0 will seed itself with the root.
    pub fn new(cfg: Arc<SchedulerCfg>, me: Rank, n_ranks: u32, selector: VictimSelector) -> Self {
        Self {
            stack: ChunkedStack::new(cfg.chunk_size),
            selector,
            term: TerminationState::new(me, n_ranks),
            computing: false,
            pending: VecDeque::new(),
            outstanding: None,
            wait_since_ns: None,
            search_since_ns: None,
            done: false,
            service_debt_ns: 0,
            service_offset_ns: 0,
            traced_active: false,
            consecutive_fails: 0,
            dormant: false,
            req_seq: 0,
            outstanding_seq: 0,
            consecutive_timeouts: 0,
            rec: (cfg.fault_tolerance.is_some() || cfg.lifeline_threshold.is_some()).then(|| {
                Box::new(Recovery::new(if cfg.lifeline_threshold.is_some() {
                    hypercube_lifelines(me, n_ranks)
                } else {
                    Vec::new()
                }))
            }),
            counters: StealStats::default(),
            cfg,
        }
    }

    /// Enable the adaptive victim-health overlay (builder style). The
    /// base selector's draws are filtered through learned per-victim
    /// outcome scores and the quarantine state machine — see
    /// [`crate::health`].
    pub fn with_health(mut self, cfg: AdaptiveCfg) -> Self {
        self.rec_or_new().health = Some(HealthTracker::new(cfg));
        self
    }

    /// The adaptive health ledger, if the overlay is enabled.
    pub fn health(&self) -> Option<&HealthTracker> {
        self.rec.as_ref().and_then(|r| r.health.as_ref())
    }

    /// Attach the topology latency model so fault-tolerance timeouts
    /// are derived from actual link latencies rather than the fallback.
    pub fn with_job(mut self, job: Arc<Job>) -> Self {
        self.rec_or_new().job = Some(job);
        self
    }

    /// The extension state, allocated on first use by a builder.
    fn rec_or_new(&mut self) -> &mut Recovery {
        self.rec
            .get_or_insert_with(|| Box::new(Recovery::new(Vec::new())))
    }

    /// The extension state of a rank whose configuration enables an
    /// extension.
    fn rec(&mut self) -> &mut Recovery {
        self.rec
            .as_deref_mut()
            .expect("an enabled extension allocates the recovery state")
    }

    /// True once this rank has observed global termination.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Nodes remaining in the local stack (0 after a clean run).
    pub fn backlog(&self) -> usize {
        self.stack.len()
    }

    /// Passive in the termination-detection sense: holds no work.
    /// A rank mid-batch is not passive — its expansions may still
    /// produce stealable chunks. Under fault tolerance a rank with an
    /// unacknowledged work transfer is also not passive: until the
    /// thief confirms receipt, that work is "ours" for termination
    /// purposes, which is what makes count-free (lossy) termination
    /// sound — in-flight work always pins a non-passive rank that
    /// parks the token.
    fn passive(&self) -> bool {
        self.stack.is_empty()
            && !self.computing
            && self.rec.as_ref().is_none_or(|r| r.unacked.is_empty())
    }

    /// Is fault tolerance enabled?
    #[inline]
    fn ft_on(&self) -> bool {
        self.cfg.fault_tolerance.is_some()
    }

    /// Estimated request→reply round trip to `peer`, from the topology
    /// latency model when present.
    fn rtt_ns(&self, me: Rank, peer: Rank) -> u64 {
        let ft = self.cfg.fault_tolerance.as_ref().expect("ft enabled");
        match self.rec.as_ref().and_then(|r| r.job.as_ref()) {
            Some(job) => {
                let reply_bytes = 16 + self.cfg.chunk_size * NODE_WIRE_BYTES;
                job.latency_ns(me, peer, 16) + job.latency_ns(peer, me, reply_bytes)
            }
            None => ft.fallback_rtt_ns,
        }
    }

    /// One victim-side service interval: a working victim answers at
    /// its next poll point, up to a full batch plus queue service away.
    fn service_slack_ns(&self) -> u64 {
        self.cfg.poll_interval as u64 * self.cfg.workload.node_ns() + 4 * self.cfg.msg_handle_ns
    }

    /// Steal-request timeout: RTT + service slack, scaled by the
    /// safety multiplier, doubled per consecutive timeout (capped).
    fn steal_timeout_ns(&self, me: Rank, victim: Rank) -> u64 {
        let ft = self.cfg.fault_tolerance.as_ref().expect("ft enabled");
        let base = (self.rtt_ns(me, victim) + self.service_slack_ns()) * ft.timeout_mult as u64;
        base << self.consecutive_timeouts.min(ft.max_backoff_doublings)
    }

    /// Ack timeout before retransmitting transfer attempt `attempt`.
    fn retransmit_delay_ns(&self, me: Rank, thief: Rank, attempt: u32) -> u64 {
        let ft = self.cfg.fault_tolerance.as_ref().expect("ft enabled");
        let base = (self.rtt_ns(me, thief) + self.service_slack_ns()) * ft.timeout_mult as u64;
        base << attempt.min(ft.max_backoff_doublings)
    }

    /// Watchdog delay for a full token circulation: every hop can cost
    /// a latency plus one service interval (the token parks at active
    /// ranks, so this is a floor, backed off per regeneration).
    fn watchdog_delay_ns(&self, n_ranks: u32) -> u64 {
        let ft = self.cfg.fault_tolerance.as_ref().expect("ft enabled");
        let rec = self.rec.as_ref().expect("ft enabled");
        let hop = match &rec.job {
            Some(job) => job.latency_ns(0, n_ranks.saturating_sub(1).max(1), 24),
            None => ft.fallback_rtt_ns / 2,
        };
        let base = n_ranks as u64 * (hop + self.service_slack_ns()) * ft.timeout_mult as u64;
        base << rec.watchdog_attempts.min(ft.max_backoff_doublings)
    }

    /// Rank 0: note any crash and switch termination to lossy mode.
    fn refresh_lossy(&mut self, ctx: &Ctx<'_, Msg>) {
        if !self.ft_on() || self.rec().crash_seen {
            return;
        }
        if (0..ctx.n_ranks()).any(|r| ctx.is_crashed(r)) {
            self.rec().crash_seen = true;
            self.term.set_lossy(true);
        }
    }

    /// An ack (or a stranding) may have just made this rank passive:
    /// release a parked token, and let rank 0 probe.
    fn maybe_became_passive(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.done || !self.passive() {
            return;
        }
        if let Some(action) = self.term.on_became_passive() {
            self.apply_token_action(ctx, action);
        }
        if !self.done && ctx.me() == 0 && self.term.should_launch_probe(true) {
            self.launch_probe(ctx);
        }
    }

    /// Rank 0: start a probe (and its loss watchdog, under fault
    /// tolerance).
    fn launch_probe(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.refresh_lossy(ctx);
        let token = self.term.launch_probe();
        if let Some(rec) = self.rec.as_mut() {
            rec.watchdog_attempts = 0;
        }
        self.forward_token(ctx, token);
        if self.ft_on() && !self.done {
            let delay = self.watchdog_delay_ns(ctx.n_ranks());
            ctx.set_timer(
                delay,
                classed_timer(TIMER_CLASS_WATCHDOG, token.generation as u64),
            );
        }
    }

    /// Send the token down the ring — to the next *live* rank under
    /// fault tolerance. When rank 0 is the only survivor the token is
    /// evaluated locally instead of being sent.
    fn forward_token(&mut self, ctx: &mut Ctx<'_, Msg>, token: Token) {
        let next = if self.ft_on() {
            self.term.next_live_in_ring(|r| ctx.is_crashed(r))
        } else {
            self.term.next_in_ring()
        };
        if next == ctx.me() {
            debug_assert_eq!(ctx.me(), 0, "only rank 0 can be the sole survivor");
            if let Some(action) = self.term.try_handle_token(token, self.passive()) {
                self.apply_token_action(ctx, action);
            }
            return;
        }
        let seq = if self.ft_on() {
            // Per-hop reliability: a lost token would otherwise sink
            // the whole probe (the ring is only as strong as its
            // weakest of n hops). Remember the token and retransmit
            // until the successor acknowledges receipt.
            let rec = self.rec();
            let seq = rec.token_seq_next;
            rec.token_seq_next += 1;
            rec.pending_token = Some((seq, next, token, 0));
            let delay = self.retransmit_delay_ns(ctx.me(), next, 0);
            ctx.set_timer(delay, classed_timer(TIMER_CLASS_TOKEN_RETX, seq));
            seq
        } else {
            0
        };
        ctx.record_span(
            0,
            SpanKind::TokenHop {
                to: next as usize,
                generation: token.generation as u64,
            },
        );
        let msg = Msg::Token { token, seq };
        ctx.send(next, msg.wire_bytes(), msg);
    }

    /// Token-hop retransmission timer: the successor has not
    /// acknowledged this hop yet.
    fn on_token_retx_timer(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64) {
        if self.done {
            self.rec().pending_token = None;
            return;
        }
        let Some((pending_seq, to, token, attempt)) = self.rec().pending_token else {
            return;
        };
        if pending_seq != seq {
            return; // superseded by a newer token
        }
        if ctx.is_crashed(to) {
            // The successor died holding our hop: route the same token
            // around the corpse instead.
            self.rec().pending_token = None;
            self.forward_token(ctx, token);
            return;
        }
        self.counters.retransmits += 1;
        ctx.record_span(
            0,
            SpanKind::Retransmit {
                to: to as usize,
                xfer: seq,
                attempt: (attempt + 1) as u64,
            },
        );
        self.rec().pending_token = Some((seq, to, token, attempt + 1));
        let msg = Msg::Token { token, seq };
        ctx.send(to, msg.wire_bytes(), msg);
        let delay = self.retransmit_delay_ns(ctx.me(), to, attempt + 1);
        ctx.set_timer(delay, classed_timer(TIMER_CLASS_TOKEN_RETX, seq));
    }

    /// Receive work-carrying chunks while already active: count them
    /// and fold them into the stack, with no phase transition.
    fn absorb_chunks(&mut self, chunks: Vec<Chunk>) {
        let nodes: usize = chunks.iter().map(|c| c.len()).sum();
        self.counters.chunks_received += chunks.len() as u64;
        self.counters.nodes_received += nodes as u64;
        self.term.on_work_received();
        self.stack.receive_chunks(chunks);
    }

    /// Lifeline extension: donate one chunk to each registered dormant
    /// buddy, as far as stealable work allows.
    fn serve_lifeline_waiters(&mut self, ctx: &mut Ctx<'_, Msg>) {
        loop {
            let Some(rec) = self.rec.as_deref_mut() else {
                return;
            };
            if rec.lifeline_waiters.is_empty() || self.stack.stealable_chunks() == 0 || self.done {
                return;
            }
            let waiter = rec.lifeline_waiters.remove(0);
            if self.ft_on() && ctx.is_crashed(waiter) {
                // A dead buddy gets nothing; keep the chunk.
                continue;
            }
            let chunks = self.stack.steal_chunks(1);
            debug_assert_eq!(chunks.len(), 1);
            let nodes: usize = chunks.iter().map(|c| c.len()).sum();
            self.counters.chunks_given += chunks.len() as u64;
            self.counters.nodes_given += nodes as u64;
            self.counters.lifeline_pushes += chunks.len() as u64;
            let package = chunks.len() as u64 * self.cfg.package_chunk_ns;
            self.service_debt_ns += package;
            self.term.on_work_sent();
            let xfer = self.track_transfer(ctx, waiter, &chunks);
            let msg = Msg::LifelinePush { xfer, chunks };
            ctx.send_delayed(waiter, msg.wire_bytes(), self.service_offset_ns, msg);
        }
    }

    /// Under fault tolerance: assign a transfer id to an outgoing
    /// work-carrying message, remember its chunks for retransmission,
    /// and arm the ack timeout. Returns 0 (untracked) otherwise.
    fn track_transfer(&mut self, ctx: &mut Ctx<'_, Msg>, to: Rank, chunks: &[Chunk]) -> u64 {
        if !self.ft_on() {
            return 0;
        }
        let rec = self.rec();
        let xfer = rec.xfer_next;
        rec.xfer_next += 1;
        rec.unacked.push((xfer, to, chunks.to_vec(), 0));
        let delay = self.retransmit_delay_ns(ctx.me(), to, 0) + self.service_offset_ns;
        ctx.set_timer(delay, classed_timer(TIMER_CLASS_RETRANSMIT, xfer));
        xfer
    }

    /// Expand up to `poll_interval` nodes and charge their cost;
    /// transitions to searching when the stack runs dry.
    fn start_batch(&mut self, ctx: &mut Ctx<'_, Msg>) {
        debug_assert!(!self.computing);
        self.serve_lifeline_waiters(ctx);
        let mut expanded = 0u32;
        while expanded < self.cfg.poll_interval {
            let Some(node) = self.stack.pop() else { break };
            let workload = &self.cfg.workload;
            let stack = &mut self.stack;
            workload
                .spec
                .expand(&node, workload.gen_rounds, |child| stack.push(child));
            expanded += 1;
        }
        if expanded > 0 {
            self.counters.nodes_processed += expanded as u64;
            self.computing = true;
            let cost = expanded as u64 * self.cfg.workload.node_ns()
                + std::mem::take(&mut self.service_debt_ns);
            ctx.set_timer(cost, TIMER_WORK);
        } else {
            self.service_debt_ns = 0;
            self.go_idle(ctx);
        }
    }

    /// The stack ran dry: record the transition, release any parked
    /// token, and begin searching for work.
    fn go_idle(&mut self, ctx: &mut Ctx<'_, Msg>) {
        debug_assert!(self.stack.is_empty() && !self.computing);
        if self.traced_active {
            ctx.record_activity(false);
            self.traced_active = false;
        }
        self.search_since_ns = Some(ctx.now().ns());
        if self.passive() {
            // Under fault tolerance an unacked transfer keeps us
            // non-passive even with an empty stack; the token stays
            // parked until the ack arrives (`maybe_became_passive`).
            if let Some(action) = self.term.on_became_passive() {
                self.apply_token_action(ctx, action);
            }
        }
        if self.done {
            return;
        }
        if ctx.me() == 0 && self.term.should_launch_probe(self.passive()) {
            self.launch_probe(ctx);
        }
        if self.outstanding.is_some() {
            // A request is already out (we were reactivated by pushed
            // work while it was in flight — a buddy may hold a stale
            // lifeline registration from an earlier dormancy); its
            // reply or timeout will drive the next attempt.
            return;
        }
        self.send_steal_request(ctx);
    }

    /// Work arrived: book the session, record the transition, resume.
    fn go_active(&mut self, ctx: &mut Ctx<'_, Msg>, chunks: Vec<Chunk>) {
        let nodes: usize = chunks.iter().map(|c| c.len()).sum();
        self.counters.chunks_received += chunks.len() as u64;
        self.counters.nodes_received += nodes as u64;
        self.consecutive_fails = 0;
        self.dormant = false;
        self.term.on_work_received();
        self.stack.receive_chunks(chunks);
        if let Some(since) = self.search_since_ns.take() {
            let dur = ctx.now().ns().saturating_sub(since);
            self.counters.sessions += 1;
            self.counters.session_ns += dur;
            ctx.record_span(0, SpanKind::SessionEnd { dur_ns: dur });
        }
        if !self.traced_active {
            ctx.record_activity(true);
            self.traced_active = true;
        }
        self.start_batch(ctx);
    }

    /// Draw a victim through the adaptive health overlay: bounded
    /// rejection against the base selector — quarantined victims are
    /// redrawn, non-quarantined ones accepted with probability equal
    /// to their learned score, an expired quarantine turns the draw
    /// into a probe steal. Falls back to a deterministic scan from
    /// `me + 1` when the rejection budget runs out, so the draw stays
    /// O(1) on top of the base policy's O(1) path.
    fn draw_victim_adaptive(&mut self, ctx: &mut Ctx<'_, Msg>) -> Option<Rank> {
        let now = ctx.now().ns();
        let ft = self.ft_on();
        let rounds = {
            let h = self.health().expect("adaptive overlay enabled");
            h.cfg().max_overlay_rounds.max(1)
        };
        let mut fallback = None;
        for _ in 0..rounds {
            let v = self.selector.next_victim(ctx.rng());
            debug_assert_ne!(v, ctx.me());
            if ft && ctx.is_crashed(v) {
                // The crash oracle preempts the overlay; the health
                // score learns the same fact from timeouts when the
                // oracle is off.
                self.counters.overlay_rejections += 1;
                continue;
            }
            fallback = Some(v);
            let h = self.rec.as_mut().and_then(|r| r.health.as_mut());
            let h = h.expect("adaptive overlay enabled");
            match h.gate(v, now) {
                Gate::Probe => {
                    self.counters.probe_steals += 1;
                    return Some(v);
                }
                Gate::Reject => {
                    self.counters.overlay_rejections += 1;
                }
                Gate::Allow => {
                    let w = h.accept_weight(v);
                    if w >= 1.0 || ctx.rng().next_f64() < w {
                        return Some(v);
                    }
                    self.counters.overlay_rejections += 1;
                }
            }
        }
        // Rejection budget exhausted: scan deterministically from
        // me + 1 for a live, non-quarantined peer.
        let n = ctx.n_ranks();
        let me = ctx.me();
        for i in 1..n {
            let r = (me + i) % n;
            if ft && ctx.is_crashed(r) {
                continue;
            }
            let h = self.health().expect("adaptive overlay enabled");
            if !h.is_quarantined(r, now) {
                return Some(r);
            }
        }
        // Everyone left is quarantined: better to hammer a suspect
        // than to stall — reuse the last non-crashed draw, else any
        // live peer at all.
        fallback.or_else(|| (0..n).find(|&r| r != me && !(ft && ctx.is_crashed(r))))
    }

    fn send_steal_request(&mut self, ctx: &mut Ctx<'_, Msg>) {
        debug_assert!(self.outstanding.is_none());
        let t_draw = prof_start(ctx.profiler());
        let victim = if self.health().is_some() {
            match self.draw_victim_adaptive(ctx) {
                Some(v) => v,
                None => {
                    prof_record(ctx.profiler(), Phase::VictimDraw, t_draw);
                    return; // nobody left to steal from
                }
            }
        } else {
            let mut victim = self.selector.next_victim(ctx.rng());
            debug_assert_ne!(victim, ctx.me());
            if self.ft_on() && ctx.is_crashed(victim) {
                // Re-draw past dead victims; a stubbornly deterministic
                // policy (round-robin stuck on a corpse advances on redraw)
                // falls back to a linear scan for any live peer.
                let n = ctx.n_ranks();
                let mut tries = 0;
                while ctx.is_crashed(victim) && tries < 2 * n {
                    victim = self.selector.next_victim(ctx.rng());
                    tries += 1;
                }
                if ctx.is_crashed(victim) {
                    let me = ctx.me();
                    match (0..n).find(|&r| r != me && !ctx.is_crashed(r)) {
                        Some(live) => victim = live,
                        None => {
                            prof_record(ctx.profiler(), Phase::VictimDraw, t_draw);
                            return; // nobody left to steal from
                        }
                    }
                }
            }
            victim
        };
        prof_record(ctx.profiler(), Phase::VictimDraw, t_draw);
        let seq = self.req_seq;
        self.req_seq += 1;
        self.outstanding = Some(victim);
        self.outstanding_seq = seq;
        self.wait_since_ns = Some(ctx.now().ns());
        self.counters.steal_attempts += 1;
        ctx.record_span(
            trace_id(ctx.me() as usize, seq),
            SpanKind::StealRequestSent {
                victim: victim as usize,
            },
        );
        let msg = Msg::StealRequest { seq };
        ctx.send(victim, msg.wire_bytes(), msg);
        if self.ft_on() {
            let timeout = self.steal_timeout_ns(ctx.me(), victim);
            ctx.set_timer(timeout, classed_timer(TIMER_CLASS_STEAL_TIMEOUT, seq));
        }
    }

    /// Service one message (either immediately when idle, or from the
    /// pending queue at a poll boundary). `arrived_ns` is the global
    /// time the message was delivered — equal to now for an idle rank,
    /// earlier when it sat in the pending queue (tracing only).
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, from: Rank, msg: Msg, arrived_ns: u64) {
        match msg {
            Msg::StealRequest { seq } => {
                // The thief minted trace_id(from, seq); recomputing it
                // here links both sides of the attempt with no extra
                // wire fields.
                ctx.record_span(
                    trace_id(from as usize, seq),
                    SpanKind::StealRequestRecv {
                        thief: from as usize,
                    },
                );
                if self.done && self.ft_on() {
                    // Termination gossip: the requester evidently missed
                    // the Done broadcast (dropped); repeat it instead of
                    // an empty reply, or it will keep hunting forever.
                    ctx.send(from, Msg::Done.wire_bytes(), Msg::Done);
                    return;
                }
                let want = self.cfg.steal.want(self.stack.stealable_chunks());
                let chunks = if self.done {
                    Vec::new()
                } else {
                    self.stack.steal_chunks(want)
                };
                let mut xfer = 0;
                if !chunks.is_empty() {
                    let nodes: usize = chunks.iter().map(|c| c.len()).sum();
                    self.counters.chunks_given += chunks.len() as u64;
                    self.counters.nodes_given += nodes as u64;
                    let package = chunks.len() as u64 * self.cfg.package_chunk_ns;
                    self.service_debt_ns += package;
                    self.service_offset_ns += package;
                    self.term.on_work_sent();
                    xfer = self.track_transfer(ctx, from, &chunks);
                }
                let reply_nodes: usize = chunks.iter().map(|c| c.len()).sum();
                ctx.record_span(
                    trace_id(from as usize, seq),
                    SpanKind::StealReplySent {
                        thief: from as usize,
                        nodes: reply_nodes as u64,
                    },
                );
                ctx.record_span(
                    trace_id(from as usize, seq),
                    SpanKind::StealServiced {
                        thief: from as usize,
                        queue_ns: ctx.now().ns().saturating_sub(arrived_ns),
                        depart_delay_ns: self.service_offset_ns,
                    },
                );
                let reply = Msg::StealReply { seq, xfer, chunks };
                ctx.send_delayed(from, reply.wire_bytes(), self.service_offset_ns, reply);
            }
            Msg::StealReply { seq, xfer, chunks } => {
                let expected = self.outstanding == Some(from)
                    && (!self.ft_on() || seq == self.outstanding_seq);
                if self.ft_on() && !expected {
                    // The matching request already timed out, or this
                    // is a duplicated / retransmitted delivery.
                    self.handle_unexpected_reply(ctx, from, xfer, chunks);
                    return;
                }
                debug_assert_eq!(self.outstanding, Some(from), "unexpected steal reply");
                self.outstanding = None;
                self.consecutive_timeouts = 0;
                let mut rtt_ns = 0;
                if let Some(sent) = self.wait_since_ns.take() {
                    rtt_ns = ctx.now().ns().saturating_sub(sent);
                    self.counters.search_ns += rtt_ns;
                }
                let attempt_id = trace_id(ctx.me() as usize, seq);
                // Health updates live at exactly the sites that bump
                // the steal counters, so span/counter reconciliation
                // covers them too.
                if let Some(h) = self.rec.as_mut().and_then(|r| r.health.as_mut()) {
                    if chunks.is_empty() {
                        h.on_empty(from, rtt_ns);
                    } else {
                        h.on_success(from, rtt_ns);
                    }
                }
                if self.ft_on() && !chunks.is_empty() {
                    if self.rec().absorbed.contains(&(from, xfer)) {
                        // The retransmission already delivered this
                        // transfer; count the attempt as served.
                        self.counters.steals_ok += 1;
                        self.counters.dup_replies_dropped += 1;
                        ctx.record_span(
                            attempt_id,
                            SpanKind::StealOk {
                                victim: from as usize,
                                rtt_ns,
                                nodes: 0,
                            },
                        );
                        let ack = Msg::StealAck { xfer };
                        ctx.send(from, ack.wire_bytes(), ack);
                        return;
                    }
                    if self.done {
                        // The sender crashed after transmitting (a live
                        // sender's unacked transfer blocks termination);
                        // refuse — its unacked entry books these nodes
                        // as lost. The attempt itself was reconciled as
                        // failed in `finish`.
                        let nodes: usize = chunks.iter().map(|c| c.len()).sum();
                        self.counters.nodes_refused += nodes as u64;
                        return;
                    }
                    self.rec().absorbed.insert((from, xfer));
                    let ack = Msg::StealAck { xfer };
                    ctx.send(from, ack.wire_bytes(), ack);
                }
                if chunks.is_empty() {
                    self.counters.steals_failed += 1;
                    self.consecutive_fails += 1;
                    ctx.record_span(
                        attempt_id,
                        SpanKind::StealEmpty {
                            victim: from as usize,
                            rtt_ns,
                        },
                    );
                    // Only keep hunting if we are still actually idle —
                    // a lifeline push may have reactivated us while
                    // this reply was in flight.
                    if !self.done && self.stack.is_empty() && !self.computing {
                        if let Some(threshold) = self.cfg.lifeline_threshold {
                            if self.consecutive_fails >= threshold && !self.dormant {
                                // Lifeline extension: stop spamming —
                                // register with the buddies and wait to
                                // be pushed work.
                                self.dormant = true;
                                self.counters.lifeline_dormancies += 1;
                                for buddy in self.rec().lifelines.clone() {
                                    ctx.send(
                                        buddy,
                                        Msg::LifelineRequest.wire_bytes(),
                                        Msg::LifelineRequest,
                                    );
                                }
                                if self.ft_on() {
                                    // Registrations can be dropped;
                                    // re-register on a generous backoff.
                                    let buddy = self.rec().lifelines[0];
                                    let delay = self.retransmit_delay_ns(ctx.me(), buddy, 2);
                                    ctx.set_timer(delay, TIMER_RETRY);
                                }
                                return;
                            }
                        }
                        if self.cfg.retry_delay_ns > 0 {
                            ctx.set_timer(self.cfg.retry_delay_ns, TIMER_RETRY);
                        } else {
                            self.send_steal_request(ctx);
                        }
                    }
                } else {
                    self.counters.steals_ok += 1;
                    let nodes: usize = chunks.iter().map(|c| c.len()).sum();
                    ctx.record_span(
                        attempt_id,
                        SpanKind::StealOk {
                            victim: from as usize,
                            rtt_ns,
                            nodes: nodes as u64,
                        },
                    );
                    if self.done {
                        // Termination was announced while work was in
                        // flight toward us — cannot happen with a sound
                        // detector; surface loudly.
                        panic!("rank {} received work after Done", ctx.me());
                    }
                    if self.stack.is_empty() && !self.computing {
                        self.go_active(ctx, chunks);
                    } else {
                        // A lifeline push beat this reply to the punch;
                        // we are already active — just absorb.
                        self.absorb_chunks(chunks);
                    }
                }
            }
            Msg::StealAck { xfer } => {
                if let Some(pos) = self.rec().unacked.iter().position(|(x, ..)| *x == xfer) {
                    self.rec().unacked.swap_remove(pos);
                    ctx.record_span(
                        0,
                        SpanKind::TransferAcked {
                            thief: from as usize,
                            xfer,
                        },
                    );
                    self.maybe_became_passive(ctx);
                }
            }
            Msg::LifelineRequest => {
                if self.done && self.ft_on() {
                    // Termination gossip (see StealRequest).
                    ctx.send(from, Msg::Done.wire_bytes(), Msg::Done);
                    return;
                }
                let waiters = &mut self.rec().lifeline_waiters;
                if !waiters.contains(&from) {
                    waiters.push(from);
                }
                // An idle or freshly-polled rank with surplus serves
                // immediately; otherwise the next batch boundary will.
                if !self.computing && self.stack.stealable_chunks() > 0 {
                    self.serve_lifeline_waiters(ctx);
                }
            }
            Msg::LifelinePush { xfer, chunks } => {
                debug_assert!(!chunks.is_empty(), "lifeline pushes always carry work");
                if self.ft_on() {
                    if self.rec().absorbed.contains(&(from, xfer)) {
                        self.counters.dup_replies_dropped += 1;
                        let ack = Msg::StealAck { xfer };
                        ctx.send(from, ack.wire_bytes(), ack);
                        return;
                    }
                    if self.done {
                        // Straggler after lossy termination; the
                        // sender's unacked entry books these as lost.
                        let nodes: usize = chunks.iter().map(|c| c.len()).sum();
                        self.counters.nodes_refused += nodes as u64;
                        return;
                    }
                    self.rec().absorbed.insert((from, xfer));
                    let ack = Msg::StealAck { xfer };
                    ctx.send(from, ack.wire_bytes(), ack);
                } else if self.done {
                    panic!("rank {} received lifeline work after Done", ctx.me());
                }
                if self.stack.is_empty() && !self.computing {
                    // Dormant (or idle mid-search): this is our wake-up.
                    self.go_active(ctx, chunks);
                } else {
                    // Already busy again (e.g. a steal landed first):
                    // just absorb the donation.
                    self.absorb_chunks(chunks);
                }
            }
            Msg::Token { token, seq } => {
                if self.ft_on() {
                    // Acknowledge the hop whatever we decide about the
                    // token, and drop retransmitted duplicates (hop
                    // seqs from one sender are strictly increasing).
                    let ack = Msg::TokenAck { seq };
                    ctx.send(from, ack.wire_bytes(), ack);
                    let seen = &mut self.rec().token_seen;
                    let last = seen.get(&from).copied().unwrap_or(0);
                    if seq <= last {
                        return;
                    }
                    seen.insert(from, seq);
                }
                if ctx.me() == 0 {
                    self.refresh_lossy(ctx);
                }
                let passive = self.passive();
                if let Some(action) = self.term.try_handle_token(token, passive) {
                    self.apply_token_action(ctx, action);
                }
            }
            Msg::TokenAck { seq } => {
                let rec = self.rec();
                if rec.pending_token.map(|(s, ..)| s) == Some(seq) {
                    rec.pending_token = None;
                }
            }
            Msg::Done => {
                self.finish(ctx);
            }
        }
    }

    /// A reply whose request is no longer outstanding: stale (empty),
    /// duplicated (already absorbed), a post-termination straggler, or
    /// late work worth absorbing anyway.
    fn handle_unexpected_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: Rank,
        xfer: u64,
        chunks: Vec<Chunk>,
    ) {
        // Any reply — stale, duplicated, or late — proves the sender
        // is alive; lift its quarantine.
        if let Some(h) = self.rec.as_mut().and_then(|r| r.health.as_mut()) {
            h.on_alive(from);
        }
        if chunks.is_empty() {
            self.counters.stale_replies_dropped += 1;
            return;
        }
        if self.rec().absorbed.contains(&(from, xfer)) {
            self.counters.dup_replies_dropped += 1;
            // Re-ack: our first ack may itself have been dropped.
            let ack = Msg::StealAck { xfer };
            ctx.send(from, ack.wire_bytes(), ack);
            return;
        }
        if self.done {
            let nodes: usize = chunks.iter().map(|c| c.len()).sum();
            self.counters.nodes_refused += nodes as u64;
            return;
        }
        // The request timed out (and was charged as failed) but its
        // work showed up after all — absorb it, work is work.
        self.rec().absorbed.insert((from, xfer));
        self.counters.late_work_absorbed += 1;
        let ack = Msg::StealAck { xfer };
        ctx.send(from, ack.wire_bytes(), ack);
        if self.stack.is_empty() && !self.computing {
            self.go_active(ctx, chunks);
        } else {
            self.absorb_chunks(chunks);
        }
    }

    fn apply_token_action(&mut self, ctx: &mut Ctx<'_, Msg>, action: TokenAction) {
        match action {
            TokenAction::Forward(token) => {
                self.forward_token(ctx, token);
            }
            TokenAction::Terminate => {
                for r in 0..ctx.n_ranks() {
                    if r != ctx.me() {
                        ctx.send(r, Msg::Done.wire_bytes(), Msg::Done);
                    }
                }
                self.finish(ctx);
            }
            TokenAction::Restart => {
                ctx.set_timer(self.cfg.probe_backoff_ns, TIMER_PROBE);
            }
            TokenAction::Drop => {}
        }
    }

    /// Observe global termination: close the open session and stop.
    fn finish(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.done {
            return;
        }
        self.done = true;
        if let Some(rec) = self.rec.as_mut() {
            rec.pending_token = None;
        }
        if let Some(since) = self.search_since_ns.take() {
            let dur = ctx.now().ns().saturating_sub(since);
            self.counters.sessions += 1;
            self.counters.session_ns += dur;
            ctx.record_span(0, SpanKind::SessionEnd { dur_ns: dur });
        }
        if self.ft_on() {
            if let Some(victim) = self.outstanding.take() {
                // A request still in flight at termination will never be
                // served; charge it as failed so attempts stay balanced.
                self.counters.steals_failed += 1;
                ctx.record_span(
                    trace_id(ctx.me() as usize, self.outstanding_seq),
                    SpanKind::StealAbandoned {
                        victim: victim as usize,
                    },
                );
                if let Some(sent) = self.wait_since_ns.take() {
                    self.counters.search_ns += ctx.now().ns().saturating_sub(sent);
                }
            }
        }
        ctx.record_span(0, SpanKind::Done);
        assert!(
            self.stack.is_empty(),
            "rank {} terminated with {} nodes unprocessed",
            ctx.me(),
            self.stack.len()
        );
    }

    /// The steal request `seq` got no answer in time: charge it as
    /// failed and re-select a victim (the next timeout doubles).
    fn on_steal_timeout(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64) {
        if self.done || self.outstanding.is_none() || self.outstanding_seq != seq {
            return; // the reply beat the timer, or a newer request is out
        }
        let victim = self.outstanding.expect("checked above");
        self.counters.steal_timeouts += 1;
        self.counters.steals_failed += 1;
        self.consecutive_timeouts += 1;
        self.consecutive_fails += 1;
        if let Some(h) = self.rec.as_mut().and_then(|r| r.health.as_mut()) {
            if h.on_timeout(victim, ctx.now().ns()) {
                self.counters.quarantines += 1;
                ctx.record_span(
                    trace_id(ctx.me() as usize, seq),
                    SpanKind::Quarantined {
                        victim: victim as usize,
                    },
                );
            }
        }
        ctx.record_span(
            trace_id(ctx.me() as usize, seq),
            SpanKind::StealTimeout {
                victim: victim as usize,
                backoff_doublings: self.consecutive_timeouts as u64,
            },
        );
        self.outstanding = None;
        if let Some(sent) = self.wait_since_ns.take() {
            self.counters.search_ns += ctx.now().ns().saturating_sub(sent);
        }
        if self.stack.is_empty() && !self.computing {
            self.send_steal_request(ctx);
        }
    }

    /// Transfer `xfer` is still unacknowledged: retransmit it, or give
    /// it up as stranded if the thief has crashed.
    fn on_retransmit_timer(&mut self, ctx: &mut Ctx<'_, Msg>, xfer: u64) {
        let rec = self.rec();
        let Some(pos) = rec.unacked.iter().position(|(x, ..)| *x == xfer) else {
            return; // acked in the meantime
        };
        let to = rec.unacked[pos].1;
        if ctx.is_crashed(to) {
            let (xfer, to, chunks, _) = rec.unacked.swap_remove(pos);
            let nodes: u64 = chunks.iter().map(|c| c.len() as u64).sum();
            rec.stranded.push((xfer, to, chunks));
            self.counters.nodes_stranded += nodes;
            self.maybe_became_passive(ctx);
            return;
        }
        rec.unacked[pos].3 += 1;
        let attempt = rec.unacked[pos].3;
        let chunks = rec.unacked[pos].2.clone();
        self.counters.retransmits += 1;
        ctx.record_span(
            0,
            SpanKind::Retransmit {
                to: to as usize,
                xfer,
                attempt: attempt as u64,
            },
        );
        let msg = Msg::StealReply {
            seq: u64::MAX,
            xfer,
            chunks,
        };
        ctx.send(to, msg.wire_bytes(), msg);
        ctx.set_timer(
            self.retransmit_delay_ns(ctx.me(), to, attempt),
            classed_timer(TIMER_CLASS_RETRANSMIT, xfer),
        );
    }

    /// Rank 0's probe watchdog fired with the probe still out: the
    /// token is presumed lost (dropped message or crashed holder) —
    /// regenerate it.
    fn on_watchdog_timer(&mut self, ctx: &mut Ctx<'_, Msg>, generation: u32) {
        if self.done || ctx.me() != 0 {
            return;
        }
        if !self.term.is_probing() || self.term.generation() != generation {
            return; // that probe came home; this watchdog is stale
        }
        self.refresh_lossy(ctx);
        let token = self.term.regenerate_probe();
        self.counters.token_regenerations += 1;
        ctx.record_span(
            0,
            SpanKind::TokenRegenerated {
                generation: token.generation as u64,
            },
        );
        self.rec().watchdog_attempts += 1;
        self.forward_token(ctx, token);
        if !self.done {
            let delay = self.watchdog_delay_ns(ctx.n_ranks());
            ctx.set_timer(
                delay,
                classed_timer(TIMER_CLASS_WATCHDOG, token.generation as u64),
            );
        }
    }

    /// Fault tolerance: work transfers this rank sent that were never
    /// acknowledged — unacked plus stranded — as `(thief, xfer, chunks)`.
    /// Consulted for lost-work reconciliation after a degraded run.
    pub fn unconfirmed_transfers(&self) -> impl Iterator<Item = (Rank, u64, &Vec<Chunk>)> + '_ {
        self.rec.iter().flat_map(|rec| {
            rec.unacked
                .iter()
                .map(|(x, to, c, _)| (*to, *x, c))
                .chain(rec.stranded.iter().map(|(x, to, c)| (*to, *x, c)))
        })
    }

    /// Fault tolerance: did this rank absorb transfer `xfer` from
    /// `from`? (Distinguishes lost transfers from delivered ones.)
    pub fn has_absorbed(&self, from: Rank, xfer: u64) -> bool {
        self.rec
            .as_ref()
            .is_some_and(|r| r.absorbed.contains(&(from, xfer)))
    }

    /// Nodes still sitting in the local stack (lost-work accounting
    /// for crashed ranks).
    pub fn stack_nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.stack.iter_nodes()
    }
}

impl Actor for Worker {
    type Msg = Msg;

    fn live_stats(&self) -> dws_simnet::LiveStats {
        dws_simnet::LiveStats {
            ready_chunks: self.stack.stealable_chunks() as u64,
            steals_ok: self.counters.steals_ok,
            steals_empty: self.counters.steals_failed,
            quarantined: self.counters.quarantines,
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if ctx.me() == 0 {
            self.stack
                .push(self.cfg.workload.spec.root(self.cfg.workload.seed));
            ctx.record_activity(true);
            self.traced_active = true;
            self.start_batch(ctx);
        } else {
            // Everyone else starts idle and hunts immediately. The
            // initial no-work period counts as a work-discovery session
            // from t = 0.
            self.search_since_ns = Some(ctx.now().ns());
            self.send_steal_request(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: Rank, msg: Msg) {
        if self.computing {
            // Arrival is not handling: a working process only answers
            // at its polling points (paper §II-A).
            self.pending.push_back((from, msg, ctx.now().ns()));
        } else {
            // Idle ranks answer immediately, with no queueing delay.
            self.service_offset_ns = 0;
            self.handle(ctx, from, msg, ctx.now().ns());
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        match token {
            TIMER_WORK => {
                self.computing = false;
                while let Some((from, msg, arrived_ns)) = self.pending.pop_front() {
                    // Servicing a message at a poll point costs the
                    // working rank CPU time, billed to the next batch;
                    // replies leave serially, in service order.
                    self.service_debt_ns += self.cfg.msg_handle_ns;
                    self.service_offset_ns += self.cfg.msg_handle_ns;
                    self.handle(ctx, from, msg, arrived_ns);
                }
                self.service_offset_ns = 0;
                // A message handled above may already have resumed work
                // (a lifeline push calls go_active -> start_batch), in
                // which case a batch timer is armed and we must not
                // start another.
                if self.done || self.computing {
                    return;
                }
                if self.stack.is_empty() {
                    self.go_idle(ctx);
                } else {
                    self.start_batch(ctx);
                }
            }
            TIMER_PROBE => {
                if !self.done && self.term.should_launch_probe(self.passive()) {
                    self.launch_probe(ctx);
                }
            }
            TIMER_RETRY => {
                if !self.done && self.outstanding.is_none() && self.stack.is_empty() {
                    if self.dormant {
                        // Fault tolerance only: periodic lifeline
                        // re-registration (a drop may have eaten the
                        // first round — or the push meant for us).
                        for buddy in self.rec().lifelines.clone() {
                            ctx.send(
                                buddy,
                                Msg::LifelineRequest.wire_bytes(),
                                Msg::LifelineRequest,
                            );
                        }
                        let buddy = self.rec().lifelines[0];
                        let delay = self.retransmit_delay_ns(ctx.me(), buddy, 3);
                        ctx.set_timer(delay, TIMER_RETRY);
                    } else {
                        self.send_steal_request(ctx);
                    }
                }
            }
            other => match other >> 56 {
                TIMER_CLASS_STEAL_TIMEOUT => self.on_steal_timeout(ctx, other & TIMER_ID_MASK),
                TIMER_CLASS_RETRANSMIT => self.on_retransmit_timer(ctx, other & TIMER_ID_MASK),
                TIMER_CLASS_WATCHDOG => self.on_watchdog_timer(ctx, (other & TIMER_ID_MASK) as u32),
                TIMER_CLASS_TOKEN_RETX => self.on_token_retx_timer(ctx, other & TIMER_ID_MASK),
                _ => unreachable!("unknown timer token {other}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_uts::presets;

    fn worker(cfg: SchedulerCfg) -> Worker {
        let selector = VictimSelector::Uniform { n: 4, me: 1 };
        Worker::new(Arc::new(cfg), 1, 4, selector)
    }

    #[test]
    fn only_an_enabled_extension_allocates_recovery_state() {
        let base = SchedulerCfg::new(presets::t3sim_xs(), StealAmount::Half);
        assert!(worker(base.clone()).rec.is_none(), "paper protocol");
        let mut ft = base.clone();
        ft.fault_tolerance = Some(FaultToleranceCfg::default());
        assert!(worker(ft).rec.is_some(), "fault tolerance");
        let mut lifelines = base.clone();
        lifelines.lifeline_threshold = Some(4);
        let w = worker(lifelines);
        assert_eq!(
            w.rec.as_ref().map(|r| r.lifelines.len()),
            Some(2),
            "lifelines"
        );
        let w = worker(base).with_health(AdaptiveCfg::default());
        assert!(w.health().is_some(), "adaptive overlay");
    }

    #[test]
    fn worker_hot_state_stays_small() {
        // An upper bound, not a pin: a new field on the fault-free
        // path should be a conscious choice (DESIGN §10.5). Cold state
        // belongs in `Recovery`.
        let size = std::mem::size_of::<Worker>();
        assert!(size <= 544, "Worker is {size} bytes");
    }
}
