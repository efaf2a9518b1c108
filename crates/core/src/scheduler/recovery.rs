//! Recovery: what the paper's protocol does not do — fault tolerance
//! (acked transfers with retransmission, steal timeouts with backoff,
//! rank 0's probe watchdog, token-hop retransmission, crash avoidance,
//! lossy termination, termination gossip), lifelines (Saraswat et al.)
//! and the adaptive health draw. The `pub(super)` "Hook" functions are
//! the protocol's only way in; the recovery messages and every classed
//! timer are handled here too.

use super::protocol::Worker;
use super::{
    Msg, MAX_BACKOFF_DOUBLINGS, TIMER_CLASS_LIFELINE, TIMER_CLASS_RETRANSMIT,
    TIMER_CLASS_STEAL_TIMEOUT, TIMER_CLASS_TOKEN_RETX, TIMER_CLASS_WATCHDOG,
};
use crate::health::{Gate, HealthTracker, MAX_OVERLAY_ROUNDS};
use crate::termination::Token;
use crate::ExperimentConfig;
use dws_metrics::{trace_id, SpanKind};
use dws_simnet::{Ctx, Rank};
use dws_topology::Job;
use dws_uts::{Node, NODE_WIRE_BYTES};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Low 56 bits of a classed timer token.
const TIMER_ID_MASK: u64 = (1 << 56) - 1;

#[inline]
fn classed_timer(class: u64, id: u64) -> u64 {
    debug_assert!(id <= TIMER_ID_MASK);
    (class << 56) | id
}

/// The part of a [`Worker`] that only the protocol's extensions use —
/// fault recovery, lifelines and the adaptive health overlay. Kept out
/// of line so the state a fault-free event touches stays small.
pub(super) struct Recovery {
    /// Latency oracle of every fault-tolerance time scale.
    job: Arc<Job>,
    /// Last transfer id assigned (0 is the untracked wire value).
    xfer_last: u64,
    /// Work transfers sent but not yet acknowledged:
    /// `(xfer, thief, nodes, attempt)`. Non-empty keeps this rank
    /// non-passive — the unacked-gating that lets degraded termination
    /// drop Safra's message counts without losing soundness.
    unacked: Vec<(u64, Rank, Vec<Node>, u32)>,
    /// Storage for the next transfer's copy: the largest acked copy,
    /// emptied, so steady-state transfers allocate nothing.
    spare: Vec<Node>,
    /// Transfers given up on as their thief crashed (lost-work ledger).
    stranded: Vec<(u64, Rank, Vec<Node>)>,
    /// Transfers already absorbed, by `(victim, xfer)`.
    absorbed: HashSet<(Rank, u64)>,
    /// Consecutive steal-request timeouts (drives exponential backoff).
    consecutive_timeouts: u32,
    /// Last token hop seq this rank assigned (0 is never assigned).
    token_seq_last: u64,
    /// The hop awaiting its ack: `(seq, successor, token, attempt)`.
    pending_token: Option<(u64, Rank, Token, u32)>,
    /// Highest hop seq processed per predecessor (dedups retransmits).
    token_seen: HashMap<Rank, u64>,
    /// Rank 0: regenerations of the current probe (backoff driver).
    watchdog_attempts: u32,
    /// Rank 0: a crash has been observed; termination runs lossy.
    crash_seen: bool,
    /// Registered with lifelines, no active steal requests.
    dormant: bool,
    /// Lifeline buddies this rank registers with (hypercube neighbours).
    lifelines: Vec<Rank>,
    /// Dormant buddies waiting for a push from this rank.
    lifeline_waiters: Vec<Rank>,
    /// Adaptive victim selection's per-victim health ledger.
    health: Option<HealthTracker>,
}

impl Recovery {
    /// What rank `me` of `job` needs under `cfg`: `None` unless fault
    /// tolerance, lifelines or the health overlay is on.
    pub(super) fn new(cfg: &ExperimentConfig, job: &Arc<Job>, me: Rank) -> Option<Box<Self>> {
        if cfg.fault_tolerance.is_none() && cfg.lifeline_threshold.is_none() && !cfg.adaptive {
            return None;
        }
        let lifelines = match cfg.lifeline_threshold {
            Some(_) => hypercube_lifelines(me, job.n_ranks()),
            None => Vec::new(),
        };
        let health = cfg.adaptive.then(|| HealthTracker::new(&cfg.latency));
        Some(Box::new(Self {
            job: Arc::clone(job),
            xfer_last: 0,
            unacked: Vec::new(),
            spare: Vec::new(),
            stranded: Vec::new(),
            absorbed: HashSet::new(),
            consecutive_timeouts: 0,
            token_seq_last: 0,
            pending_token: None,
            token_seen: HashMap::new(),
            watchdog_attempts: 0,
            crash_seen: false,
            dormant: false,
            lifelines,
            lifeline_waiters: Vec::new(),
            health,
        }))
    }

    /// Every work transfer this rank sent is acknowledged or given up.
    pub(super) fn all_acked(&self) -> bool {
        self.unacked.is_empty()
    }
}

/// Hypercube lifeline graph: rank `me`'s buddies are `me XOR 2^k` for
/// every bit position below `n`; always non-empty and connected, so
/// pushed work can reach any dormant rank transitively.
fn hypercube_lifelines(me: Rank, n: u32) -> Vec<Rank> {
    let bits = (0..u32::BITS).map(|k| 1 << k).take_while(|&bit| bit < n);
    let mut out: Vec<Rank> = bits.map(|bit| me ^ bit).filter(|&b| b < n).collect();
    if out.is_empty() && n > 1 {
        out.push((me + 1) % n);
    }
    out
}

/// What [`Worker::admit`] made of a tracked transfer's delivery.
#[derive(PartialEq)]
enum Admission {
    /// First delivery: absorbed and acked.
    New,
    /// Already absorbed: dropped and re-acked.
    Duplicate,
    /// Arrived after termination: refused.
    Refused,
}

impl Worker {
    /// The adaptive health ledger, if the overlay is enabled.
    pub fn health(&self) -> Option<&HealthTracker> {
        self.rec.as_ref().and_then(|r| r.health.as_ref())
    }

    /// Fault tolerance: work transfers this rank sent that were never
    /// acknowledged — unacked plus stranded — as `(thief, xfer, nodes)`.
    /// Consulted for lost-work reconciliation after a degraded run.
    pub fn unconfirmed_transfers(&self) -> impl Iterator<Item = (Rank, u64, &Vec<Node>)> + '_ {
        self.rec.iter().flat_map(|rec| {
            rec.unacked
                .iter()
                .map(|(x, to, n, _)| (*to, *x, n))
                .chain(rec.stranded.iter().map(|(x, to, n)| (*to, *x, n)))
        })
    }

    /// Fault tolerance: did this rank absorb transfer `xfer` from
    /// `from`? (Distinguishes lost transfers from delivered ones.)
    pub fn has_absorbed(&self, from: Rank, xfer: u64) -> bool {
        self.rec
            .as_ref()
            .is_some_and(|r| r.absorbed.contains(&(from, xfer)))
    }

    #[inline]
    fn ft_on(&self) -> bool {
        self.cfg.fault_tolerance.is_some()
    }

    /// The recovery state, when fault tolerance is on.
    #[inline]
    fn ft_rec(&mut self) -> Option<&mut Recovery> {
        let ft = self.cfg.fault_tolerance.is_some();
        self.rec.as_deref_mut().filter(|_| ft)
    }

    fn job(&self) -> &Job {
        let rec = self.rec.as_deref();
        &rec.expect("fault tolerance allocates recovery").job
    }

    /// The one backoff formula of every fault-tolerance timer: `hops`
    /// latencies of `hop_ns`, each plus a victim service interval (a
    /// batch plus queue service), times the safety multiplier, doubled
    /// per earlier attempt `k` (capped).
    fn backoff_ns(&self, hops: u64, hop_ns: u64, k: u32) -> u64 {
        let ft = self.cfg.fault_tolerance.as_ref().expect("ft enabled");
        let slack = self.cfg.poll_interval as u64 * self.cfg.workload.node_ns()
            + 4 * self.cfg.msg_handle_ns;
        (hops * (hop_ns + slack) * ft.timeout_mult as u64) << k.min(MAX_BACKOFF_DOUBLINGS)
    }

    /// Arm timer `class`/`id` at the backoff of attempt `k` over the
    /// round trip to `peer` (plus `extra_ns`): a steal's timeout, or
    /// the ack timeout of a transfer, a registration or a token hop.
    fn arm_rtt_timer(
        &self,
        ctx: &mut Ctx<'_, Msg>,
        peer: Rank,
        k: u32,
        class: u64,
        id: u64,
        extra_ns: u64,
    ) {
        let (job, me) = (self.job(), ctx.me());
        let reply_bytes = 16 + self.cfg.chunk_size * NODE_WIRE_BYTES;
        let rtt = job.latency_ns(me, peer, 16) + job.latency_ns(peer, me, reply_bytes);
        let delay = self.backoff_ns(1, rtt, k) + extra_ns;
        ctx.set_timer(delay, classed_timer(class, id));
    }

    /// Hook, on victim draw: keep the base policy's `drawn` victim,
    /// filter it through the health overlay, or draw past a crashed
    /// rank. `None`: nobody is left to steal from.
    #[inline]
    pub(super) fn vet_victim(&mut self, ctx: &mut Ctx<'_, Msg>, drawn: Rank) -> Option<Rank> {
        let Some(rec) = &self.rec else {
            return Some(drawn);
        };
        if rec.health.is_some() {
            return self.draw_adaptive(ctx, drawn);
        }
        if !self.ft_on() || !ctx.is_crashed(drawn) {
            return Some(drawn);
        }
        // Re-draw past dead victims; a stubbornly deterministic policy
        // (round-robin stuck on a corpse advances on redraw) falls back
        // to a scan from 0 for any live peer.
        let (n, me, mut victim, mut tries) = (ctx.n_ranks(), ctx.me(), drawn, 0);
        while ctx.is_crashed(victim) && tries < 2 * n {
            victim = self.selector.next_victim(ctx.rng());
            tries += 1;
        }
        if !ctx.is_crashed(victim) {
            return Some(victim);
        }
        (0..n).find(|&r| r != me && !ctx.is_crashed(r))
    }

    /// The adaptive draw: bounded rejection against the base selector
    /// (`first` is its first draw). Quarantined victims are redrawn,
    /// others accepted with their learned score as probability, and an
    /// expired quarantine makes a probe steal; past the budget a scan
    /// from `me + 1` keeps the draw O(1).
    fn draw_adaptive(&mut self, ctx: &mut Ctx<'_, Msg>, first: Rank) -> Option<Rank> {
        let (now, n, me, ft) = (ctx.now().ns(), ctx.n_ranks(), ctx.me(), self.ft_on());
        let h = self.rec.as_mut().and_then(|r| r.health.as_mut());
        let h = h.expect("adaptive overlay enabled");
        let mut fallback = None;
        for round in 0..MAX_OVERLAY_ROUNDS {
            let v = match round {
                0 => first,
                _ => self.selector.next_victim(ctx.rng()),
            };
            debug_assert_ne!(v, me);
            // The crash oracle preempts the overlay; the health score
            // learns the same fact from timeouts when the oracle is off.
            if !(ft && ctx.is_crashed(v)) {
                fallback = Some(v);
                let accept = match h.gate(v, now) {
                    Gate::Probe => {
                        self.counters.probe_steals += 1;
                        true
                    }
                    Gate::Reject => false,
                    Gate::Allow => {
                        let w = h.accept_weight(v);
                        w >= 1.0 || ctx.rng().next_f64() < w
                    }
                };
                if accept {
                    return Some(v);
                }
            }
            self.counters.overlay_rejections += 1;
        }
        // If everyone left is quarantined, better to hammer a suspect
        // than to stall: the last live draw, else any live peer.
        let live = |r: Rank| r != me && !(ft && ctx.is_crashed(r));
        (1..n)
            .map(|i| (me + i) % n)
            .find(|&r| live(r) && !h.is_quarantined(r, now))
            .or(fallback)
            .or_else(|| (0..n).find(|&r| live(r)))
    }

    /// Hook, on request sent: arm the steal timeout.
    #[inline]
    pub(super) fn on_request_sent(&mut self, ctx: &mut Ctx<'_, Msg>, victim: Rank, seq: u64) {
        let Some(rec) = self.ft_rec() else { return };
        let k = rec.consecutive_timeouts;
        self.arm_rtt_timer(ctx, victim, k, TIMER_CLASS_STEAL_TIMEOUT, seq, 0);
    }

    /// Hook, on work sent: track a copy of the nodes, made in the spare
    /// buffer, under a new transfer id until acked; returns it, or 0
    /// with fault tolerance off.
    #[inline]
    pub(super) fn on_work_sent(&mut self, ctx: &mut Ctx<'_, Msg>, to: Rank, nodes: &[Node]) -> u64 {
        let Some(rec) = self.ft_rec() else { return 0 };
        rec.xfer_last += 1;
        let xfer = rec.xfer_last;
        let mut copy = std::mem::take(&mut rec.spare);
        copy.extend_from_slice(nodes);
        rec.unacked.push((xfer, to, copy, 0));
        let offset = self.service_offset_ns;
        self.arm_rtt_timer(ctx, to, 0, TIMER_CLASS_RETRANSMIT, xfer, offset);
        xfer
    }

    /// Hook, on the awaited reply: reset the backoff, teach the health
    /// ledger (where the steal counters move, so reconciliation covers
    /// it) and admit tracked work. False: drop the reply.
    #[inline]
    pub(super) fn on_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: Rank,
        xfer: u64,
        nodes: &[Node],
        rtt_ns: u64,
        attempt_id: u64,
    ) -> bool {
        let Some(rec) = self.rec.as_mut() else {
            return true;
        };
        rec.consecutive_timeouts = 0;
        if let Some(h) = rec.health.as_mut() {
            h.on_reply(from, rtt_ns, !nodes.is_empty());
        }
        if nodes.is_empty() || !self.ft_on() {
            return true;
        }
        // Refused: the sender crashed after transmitting (a live
        // sender's unacked transfer blocks termination), and `on_done`
        // already charged the attempt as abandoned.
        let admission = self.admit(ctx, from, xfer, nodes);
        if admission == Admission::Duplicate {
            // A retransmission delivered it first: the attempt is served.
            self.counters.steals_ok += 1;
            let span = SpanKind::StealOk {
                victim: from as usize,
                rtt_ns,
                nodes: 0,
            };
            ctx.record_span(attempt_id, span);
        }
        admission == Admission::New
    }

    /// Hook, on a reply whose request is no longer outstanding: stale,
    /// duplicated, after termination, or late work absorbed anyway.
    pub(super) fn on_unexpected_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: Rank,
        xfer: u64,
        nodes: Vec<Node>,
    ) {
        debug_assert!(self.ft_on(), "unexpected steal reply");
        // Any reply proves the sender is alive; lift its quarantine.
        if let Some(h) = self.rec.as_mut().and_then(|r| r.health.as_mut()) {
            h.on_alive(from);
        }
        if nodes.is_empty() {
            self.counters.stale_replies_dropped += 1;
            self.stack.receive_chunks(nodes);
        } else if self.admit(ctx, from, xfer, &nodes) == Admission::New {
            // Its request timed out (charged as failed); work is work.
            self.counters.late_work_absorbed += 1;
            self.receive_work(ctx, nodes);
        }
    }

    /// The one door for tracked work: absorbed once and acked; a
    /// duplicate is re-acked (the first ack may be lost); after
    /// termination it is refused, and the sender books it as lost.
    fn admit(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: Rank,
        xfer: u64,
        nodes: &[Node],
    ) -> Admission {
        let rec = self.rec.as_mut().expect("ft enabled");
        let admission = if rec.absorbed.contains(&(from, xfer)) {
            self.counters.dup_replies_dropped += 1;
            Admission::Duplicate
        } else if self.done {
            self.counters.nodes_refused += nodes.len() as u64;
            return Admission::Refused;
        } else {
            rec.absorbed.insert((from, xfer));
            Admission::New
        };
        let ack = Msg::StealAck { xfer };
        ctx.send(from, ack.wire_bytes(), ack);
        admission
    }

    /// Hook, on a request to a rank already done: repeat `Done` to a
    /// requester that missed it. True if it did.
    #[inline]
    pub(super) fn gossip_done(&mut self, ctx: &mut Ctx<'_, Msg>, to: Rank) -> bool {
        let gossip = self.done && self.ft_on();
        if gossip {
            ctx.send(to, Msg::Done.wire_bytes(), Msg::Done);
        }
        gossip
    }

    /// Hook, on a failed steal by a rank still idle: after
    /// `lifeline_threshold` failures in a row, register with the
    /// lifelines and wait for a push. True if it just went dormant.
    #[inline]
    pub(super) fn go_dormant(&mut self, ctx: &mut Ctx<'_, Msg>) -> bool {
        let (Some(rec), Some(threshold)) = (&mut self.rec, self.cfg.lifeline_threshold) else {
            return false;
        };
        if self.consecutive_fails < threshold || rec.dormant {
            return false;
        }
        rec.dormant = true;
        self.counters.lifeline_dormancies += 1;
        self.register_lifelines(ctx, 2);
        true
    }

    /// Hook, on a retry or lifeline timer: a dormant rank renews its
    /// registrations instead of hunting. True if it did.
    pub(super) fn renew_if_dormant(&mut self, ctx: &mut Ctx<'_, Msg>) -> bool {
        let dormant = self.rec.as_ref().is_some_and(|r| r.dormant);
        if dormant {
            self.register_lifelines(ctx, 3);
        }
        dormant
    }

    /// Hook, on work arriving at an idle rank: it is awake.
    #[inline]
    pub(super) fn on_wake(&mut self) {
        if let Some(rec) = &mut self.rec {
            rec.dormant = false;
        }
    }

    /// Register with every lifeline buddy — under fault tolerance again
    /// after `k` doublings, as a drop may eat it (or the push).
    fn register_lifelines(&mut self, ctx: &mut Ctx<'_, Msg>, k: u32) {
        let rec = self.rec.as_ref().expect("lifelines enabled");
        let bytes = Msg::LifelineRequest.wire_bytes();
        for &buddy in &rec.lifelines {
            ctx.send(buddy, bytes, Msg::LifelineRequest);
        }
        if self.ft_on() {
            self.arm_rtt_timer(ctx, rec.lifelines[0], k, TIMER_CLASS_LIFELINE, 0, 0);
        }
    }

    /// Hook, at batch start: push one chunk to each registered dormant
    /// buddy, as far as stealable work allows.
    #[inline]
    pub(super) fn serve_lifelines(&mut self, ctx: &mut Ctx<'_, Msg>) {
        while let Some(rec) = &mut self.rec {
            if rec.lifeline_waiters.is_empty() || self.stack.stealable_chunks() == 0 || self.done {
                return;
            }
            let waiter = rec.lifeline_waiters.remove(0);
            if self.ft_on() && ctx.is_crashed(waiter) {
                continue; // a dead buddy gets nothing; keep the chunk
            }
            let nodes = self.stack.steal_chunks(1);
            debug_assert_eq!(nodes.len(), self.stack.chunk_size());
            self.hand_over(&nodes);
            self.counters.lifeline_pushes += 1;
            let xfer = self.on_work_sent(ctx, waiter, &nodes);
            let msg = Msg::LifelinePush { xfer, nodes };
            ctx.send_delayed(waiter, msg.wire_bytes(), self.service_offset_ns, msg);
        }
    }

    /// `LifelineRequest`: a dormant buddy registers; served now with
    /// surplus while idle, else at the next batch boundary.
    pub(super) fn on_lifeline_request(&mut self, ctx: &mut Ctx<'_, Msg>, from: Rank) {
        if self.gossip_done(ctx, from) {
            return;
        }
        let rec = self.rec.as_mut().expect("lifelines enabled");
        if !rec.lifeline_waiters.contains(&from) {
            rec.lifeline_waiters.push(from);
        }
        if !self.computing && self.stack.stealable_chunks() > 0 {
            self.serve_lifelines(ctx);
        }
    }

    /// `LifelinePush`: a buddy's donation.
    pub(super) fn on_lifeline_push(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: Rank,
        xfer: u64,
        nodes: Vec<Node>,
    ) {
        debug_assert!(!nodes.is_empty(), "lifeline pushes always carry work");
        if !self.ft_on() || self.admit(ctx, from, xfer, &nodes) == Admission::New {
            self.receive_work(ctx, nodes);
        }
    }

    /// `StealAck`: transfer `xfer` arrived; stop retransmitting it and
    /// keep its copy's storage as the spare if it is the larger.
    pub(super) fn on_steal_ack(&mut self, ctx: &mut Ctx<'_, Msg>, from: Rank, xfer: u64) {
        let Some(rec) = &mut self.rec else { return };
        if let Some(pos) = rec.unacked.iter().position(|(x, ..)| *x == xfer) {
            let (.., mut copy, _) = rec.unacked.swap_remove(pos);
            if copy.capacity() > rec.spare.capacity() {
                copy.clear();
                rec.spare = copy;
            }
            let thief = from as usize;
            ctx.record_span(0, SpanKind::TransferAcked { thief, xfer });
            self.release_if_passive(ctx);
        }
    }

    /// Hook, on forwarding the token: the next *live* rank under fault
    /// tolerance.
    #[inline]
    pub(super) fn ring_successor(&self, ctx: &Ctx<'_, Msg>) -> Rank {
        if self.ft_on() {
            self.term.next_live_in_ring(|r| ctx.is_crashed(r))
        } else {
            self.term.next_in_ring()
        }
    }

    /// Hook, on token sent: one lost hop would sink the whole probe, so
    /// keep the token and retransmit it until the successor acks.
    /// Returns the hop seq, or 0 with fault tolerance off.
    #[inline]
    pub(super) fn on_token_sent(&mut self, ctx: &mut Ctx<'_, Msg>, to: Rank, token: Token) -> u64 {
        let Some(rec) = self.ft_rec() else { return 0 };
        rec.token_seq_last += 1;
        let seq = rec.token_seq_last;
        rec.pending_token = Some((seq, to, token, 0));
        self.arm_rtt_timer(ctx, to, 0, TIMER_CLASS_TOKEN_RETX, seq, 0);
        seq
    }

    /// Hook, on token received: ack the hop whatever becomes of the
    /// token and drop retransmitted duplicates (one sender's hop seqs
    /// strictly increase); rank 0 notes crashes. False: drop the token.
    #[inline]
    pub(super) fn on_token_hop(&mut self, ctx: &mut Ctx<'_, Msg>, from: Rank, seq: u64) -> bool {
        if let Some(rec) = self.ft_rec() {
            let ack = Msg::TokenAck { seq };
            ctx.send(from, ack.wire_bytes(), ack);
            if seq <= rec.token_seen.get(&from).copied().unwrap_or(0) {
                return false;
            }
            rec.token_seen.insert(from, seq);
        }
        if ctx.me() == 0 {
            self.refresh_lossy(ctx);
        }
        true
    }

    /// `TokenAck`: the successor has hop `seq`.
    pub(super) fn on_token_ack(&mut self, seq: u64) {
        if let Some(rec) = &mut self.rec {
            rec.pending_token.take_if(|hop| hop.0 == seq);
        }
    }

    /// Rank 0: note any crash and switch termination to lossy mode.
    fn refresh_lossy(&mut self, ctx: &Ctx<'_, Msg>) {
        let Some(rec) = self.ft_rec() else { return };
        if !rec.crash_seen && (0..ctx.n_ranks()).any(|r| ctx.is_crashed(r)) {
            rec.crash_seen = true;
            self.term.set_lossy(true);
        }
    }

    /// Hook, on rank 0's fresh probe: note crashes, restart the
    /// watchdog's backoff.
    pub(super) fn on_probe_launch(&mut self, ctx: &Ctx<'_, Msg>) {
        self.refresh_lossy(ctx);
        if let Some(rec) = &mut self.rec {
            rec.watchdog_attempts = 0;
        }
    }

    /// Hook, after rank 0 sent a probe: arm the watchdog for a full
    /// circulation — a latency plus a service interval per hop (a floor,
    /// as the token parks at active ranks), backed off per regeneration.
    pub(super) fn watch_probe(&mut self, ctx: &mut Ctx<'_, Msg>, generation: u32) {
        let done = self.done;
        let Some(rec) = self.ft_rec().filter(|_| !done) else {
            return;
        };
        let (n, k) = (ctx.n_ranks(), rec.watchdog_attempts);
        let hop = self.job().latency_ns(0, n.saturating_sub(1).max(1), 24);
        let token = classed_timer(TIMER_CLASS_WATCHDOG, generation as u64);
        ctx.set_timer(self.backoff_ns(n as u64, hop, k), token);
    }

    /// Hook, on termination: drop the pending token hop; under fault
    /// tolerance, charge a request still in flight as failed (it will
    /// never be served) so attempts stay balanced.
    pub(super) fn on_done(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(rec) = &mut self.rec else { return };
        rec.pending_token = None;
        let Some(victim) = self.outstanding.filter(|_| self.ft_on()) else {
            return;
        };
        self.outstanding = None;
        self.counters.steals_failed += 1;
        let id = trace_id(ctx.me() as usize, self.outstanding_seq);
        let victim = victim as usize;
        ctx.record_span(id, SpanKind::StealAbandoned { victim });
        self.end_wait(ctx);
    }

    /// Hook, on timer: every classed token is recovery's.
    pub(super) fn on_recovery_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let id = token & TIMER_ID_MASK;
        match token >> 56 {
            TIMER_CLASS_STEAL_TIMEOUT => self.on_steal_timeout(ctx, id),
            TIMER_CLASS_RETRANSMIT => self.on_retransmit_timer(ctx, id),
            TIMER_CLASS_WATCHDOG => self.on_watchdog_timer(ctx, id as u32),
            TIMER_CLASS_TOKEN_RETX => self.on_token_retx_timer(ctx, id),
            // A renewal that fires after the rank woke up hunts instead.
            TIMER_CLASS_LIFELINE => self.resume_hunt(ctx),
            _ => unreachable!("unknown timer token {token}"),
        }
    }

    /// Steal request `seq` got no answer in time: charge it as failed
    /// and re-select a victim (the next timeout doubles).
    fn on_steal_timeout(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64) {
        if self.done || self.outstanding_seq != seq {
            return; // a newer request is out
        }
        let Some(victim) = self.outstanding.take() else {
            return; // the reply beat the timer
        };
        let rec = self.rec.as_mut().expect("ft enabled");
        self.counters.steal_timeouts += 1;
        self.counters.steals_failed += 1;
        rec.consecutive_timeouts += 1;
        self.consecutive_fails += 1;
        let (id, now, v) = (
            trace_id(ctx.me() as usize, seq),
            ctx.now().ns(),
            victim as usize,
        );
        let health = rec.health.as_mut();
        if health.is_some_and(|h| h.on_timeout(victim, now)) {
            self.counters.quarantines += 1;
            ctx.record_span(id, SpanKind::Quarantined { victim: v });
        }
        let span = SpanKind::StealTimeout {
            victim: v,
            backoff_doublings: rec.consecutive_timeouts as u64,
        };
        ctx.record_span(id, span);
        self.end_wait(ctx);
        if self.stack.is_empty() && !self.computing {
            self.send_steal_request(ctx);
        }
    }

    /// Send a transfer or a token hop again as attempt `k`, and re-arm
    /// its ack timeout.
    fn retransmit(&mut self, ctx: &mut Ctx<'_, Msg>, to: Rank, k: u32, msg: Msg) {
        let (class, id) = match msg {
            Msg::StealReply { xfer, .. } => (TIMER_CLASS_RETRANSMIT, xfer),
            Msg::Token { seq, .. } => (TIMER_CLASS_TOKEN_RETX, seq),
            _ => unreachable!("only transfers and token hops are retransmitted"),
        };
        self.counters.retransmits += 1;
        let span = SpanKind::Retransmit {
            to: to as usize,
            xfer: id,
            attempt: k as u64,
        };
        ctx.record_span(0, span);
        ctx.send(to, msg.wire_bytes(), msg);
        self.arm_rtt_timer(ctx, to, k, class, id, 0);
    }

    /// Transfer `xfer` is still unacknowledged: retransmit it, or give
    /// it up as stranded if the thief has crashed.
    fn on_retransmit_timer(&mut self, ctx: &mut Ctx<'_, Msg>, xfer: u64) {
        let rec = self.rec.as_mut().expect("ft enabled");
        let Some(pos) = rec.unacked.iter().position(|(x, ..)| *x == xfer) else {
            return; // acked in the meantime
        };
        let entry = &mut rec.unacked[pos];
        let to = entry.1;
        if ctx.is_crashed(to) {
            let (xfer, to, nodes, _) = rec.unacked.swap_remove(pos);
            self.counters.nodes_stranded += nodes.len() as u64;
            rec.stranded.push((xfer, to, nodes));
            self.release_if_passive(ctx);
            return;
        }
        entry.3 += 1;
        let (k, nodes) = (entry.3, entry.2.clone());
        let seq = u64::MAX; // can never match a live request
        self.retransmit(ctx, to, k, Msg::StealReply { seq, xfer, nodes });
    }

    /// Rank 0's watchdog fired with the probe still out: the token is
    /// presumed lost (dropped, or its holder crashed) — regenerate it.
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
        let generation = token.generation as u64;
        ctx.record_span(0, SpanKind::TokenRegenerated { generation });
        self.rec.as_mut().expect("ft enabled").watchdog_attempts += 1;
        self.forward_token(ctx, token);
        self.watch_probe(ctx, token.generation);
    }

    /// The successor has not acknowledged token hop `seq` yet.
    fn on_token_retx_timer(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64) {
        let done = self.done;
        let rec = self.rec.as_mut().expect("ft enabled");
        if done {
            rec.pending_token = None;
            return;
        }
        let Some((pending, to, token, k)) = rec.pending_token else {
            return;
        };
        if pending != seq {
            return; // superseded by a newer token
        }
        if ctx.is_crashed(to) {
            // The successor died holding our hop: route the same token
            // around the corpse instead.
            rec.pending_token = None;
            self.forward_token(ctx, token);
            return;
        }
        rec.pending_token = Some((seq, to, token, k + 1));
        self.retransmit(ctx, to, k + 1, Msg::Token { token, seq });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FaultToleranceCfg;
    use crate::victim::VictimSelector;
    use dws_topology::RankMapping;
    use dws_uts::presets;

    fn worker(cfg: ExperimentConfig) -> Worker {
        let job = Arc::new(Job::compact(4, RankMapping::OneToOne));
        let selector = VictimSelector::Uniform { n: 4, me: 1 };
        Worker::new(Arc::new(cfg), &job, 1, selector)
    }

    #[test]
    fn only_an_enabled_extension_allocates_recovery_state() {
        let base = ExperimentConfig::new(presets::t3sim_xs(), 4);
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
        assert!(w.health().is_none(), "no overlay without `adaptive`");
        let mut adaptive = base;
        adaptive.adaptive = true;
        let w = worker(adaptive);
        assert!(w.health().is_some(), "adaptive overlay");
        assert!(w.rec.as_ref().is_some_and(|r| r.lifelines.is_empty()));
    }
}
