//! The paper's protocol: one rank of the distributed work-stealing
//! computation, mirroring the reference UTS `mpi_workstealing.c`
//! (paper §II-A, Algorithm 1).
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
//! - **Termination**: Dijkstra–Safra's token ring, probed by rank 0
//!   whenever it is passive ([`TerminationState`]).
//! - **Tracing**: active ⇄ idle transitions go to the engine's
//!   per-shard activity log through `Ctx::record_activity`, on the
//!   global clock; the rank keeps no trace of its own.
//!
//! Fault recovery, lifelines and the health draw live in `recovery.rs`,
//! reached only through its hooks.

use super::recovery::Recovery;
use super::{Msg, TIMER_PROBE, TIMER_RETRY, TIMER_WORK};
use crate::stack::ChunkedStack;
use crate::termination::{TerminationState, Token, TokenAction};
use crate::victim::VictimSelector;
use crate::ExperimentConfig;
use dws_metrics::{trace_id, SpanKind, StealStats};
use dws_simnet::profiler::Phase;
use dws_simnet::{Actor, Ctx, Rank};
use dws_topology::Job;
use dws_uts::Node;
use std::collections::VecDeque;
use std::sync::Arc;

/// One rank of the distributed work-stealing computation.
pub struct Worker {
    pub(super) cfg: Arc<ExperimentConfig>,
    pub(super) stack: ChunkedStack,
    pub(super) selector: VictimSelector,
    pub(super) term: TerminationState,
    /// True while a WORK timer is outstanding (the rank is "computing"
    /// and only polls messages at batch boundaries).
    pub(super) computing: bool,
    /// Messages that arrived while computing, handled at the next poll.
    /// The third field is the global arrival time — data-only (nothing
    /// scheduled depends on it), kept so the tracer can attribute
    /// queue-at-victim wait exactly.
    pending: VecDeque<(Rank, Msg, u64)>,
    /// Victim of the outstanding steal request, if any.
    pub(super) outstanding: Option<Rank>,
    /// Global time the outstanding steal request was sent (search-time
    /// accounting: "the portion of the execution time a process was
    /// waiting for a steal answer").
    wait_since_ns: Option<u64>,
    /// Time at which the current work-discovery session began.
    search_since_ns: Option<u64>,
    /// Global termination flag.
    pub(super) done: bool,
    /// Accumulated message-service CPU time to charge to the next
    /// batch (see [`ExperimentConfig::msg_handle_ns`]).
    service_debt_ns: u64,
    /// While draining the poll queue: this message's position in the
    /// service order, as a delay applied to any reply it generates. A
    /// deep queue of steal requests is answered serially — the convoy
    /// cost that makes deterministic victim selection collapse at
    /// scale.
    pub(super) service_offset_ns: u64,
    /// Last state written to the activity trace; keeps transitions
    /// alternating even when work arrives in the window between a stack
    /// running dry and the idle transition being recorded.
    traced_active: bool,
    /// Consecutive failed steals since the last success.
    pub(super) consecutive_fails: u32,
    /// Sequence number of the next steal request.
    req_seq: u64,
    /// Sequence number of the outstanding request (valid while
    /// `outstanding.is_some()`); a reply must echo it to be expected.
    pub(super) outstanding_seq: u64,
    /// State only fault tolerance, lifelines or the adaptive overlay
    /// use; `None` unless one of them is on, so the paper's protocol
    /// tests it with one branch and never touches its cache lines.
    pub(super) rec: Option<Box<Recovery>>,
    /// Statistics counters.
    pub counters: StealStats,
}

impl Worker {
    /// Build the worker for rank `me` of the placed `job`; rank 0 will
    /// seed itself with the root. `cfg.fault_tolerance` is read as
    /// given: the runner resolves its "auto" value
    /// ([`ExperimentConfig::effective_fault_tolerance`]) first.
    pub fn new(
        cfg: Arc<ExperimentConfig>,
        job: &Arc<Job>,
        me: Rank,
        selector: VictimSelector,
    ) -> Self {
        Self {
            stack: ChunkedStack::new(cfg.chunk_size),
            selector,
            term: TerminationState::new(me, job.n_ranks()),
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
            req_seq: 0,
            outstanding_seq: 0,
            rec: Recovery::new(&cfg, job, me),
            counters: StealStats::default(),
            cfg,
        }
    }

    /// True once this rank has observed global termination.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Nodes remaining in the local stack (0 after a clean run).
    pub fn backlog(&self) -> usize {
        self.stack.len()
    }

    /// Nodes still sitting in the local stack (lost-work accounting
    /// for crashed ranks).
    pub fn stack_nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.stack.iter_nodes()
    }

    /// Passive in the termination-detection sense: holds no work.
    /// A rank mid-batch is not passive — its expansions may still
    /// produce stealable chunks. Under fault tolerance a rank with an
    /// unacknowledged work transfer is also not passive: until the
    /// thief confirms receipt, that work is "ours" for termination
    /// purposes, which is what makes count-free (lossy) termination
    /// sound — in-flight work always pins a non-passive rank that
    /// parks the token.
    pub(super) fn passive(&self) -> bool {
        self.stack.is_empty()
            && !self.computing
            && self.rec.as_deref().is_none_or(Recovery::all_acked)
    }

    /// This rank may have just become passive — its stack ran dry, or
    /// its last transfer was acknowledged: release a parked token, and
    /// let rank 0 probe.
    pub(super) fn release_if_passive(&mut self, ctx: &mut Ctx<'_, Msg>) {
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

    /// Rank 0: start a probe.
    fn launch_probe(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let token = self.term.launch_probe();
        self.on_probe_launch(ctx);
        self.forward_token(ctx, token);
        self.watch_probe(ctx, token.generation);
    }

    /// Send the token down the ring. When rank 0 is the only survivor
    /// the token is evaluated locally instead of being sent.
    pub(super) fn forward_token(&mut self, ctx: &mut Ctx<'_, Msg>, token: Token) {
        let next = self.ring_successor(ctx);
        if next == ctx.me() {
            debug_assert_eq!(ctx.me(), 0, "only rank 0 can be the sole survivor");
            if let Some(action) = self.term.try_handle_token(token, self.passive()) {
                self.apply_token_action(ctx, action);
            }
            return;
        }
        let seq = self.on_token_sent(ctx, next, token);
        let (to, generation) = (next as usize, token.generation as u64);
        ctx.record_span(0, SpanKind::TokenHop { to, generation });
        let msg = Msg::Token { token, seq };
        ctx.send(next, msg.wire_bytes(), msg);
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

    /// Count the chunks of `nodes` as given away, bill their packaging
    /// to the next batch, and tell termination detection; returns the
    /// packaging time.
    pub(super) fn hand_over(&mut self, nodes: &[Node]) -> u64 {
        let chunks = (nodes.len() / self.stack.chunk_size()) as u64;
        self.counters.chunks_given += chunks;
        self.counters.nodes_given += nodes.len() as u64;
        let package = chunks * self.cfg.package_chunk_ns;
        self.service_debt_ns += package;
        self.term.on_work_sent();
        package
    }

    /// Expand up to `poll_interval` nodes and charge their cost;
    /// transitions to searching when the stack runs dry.
    fn start_batch(&mut self, ctx: &mut Ctx<'_, Msg>) {
        debug_assert!(!self.computing);
        self.serve_lifelines(ctx);
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
        debug_assert!(self.stack.is_empty() && !self.computing && !self.done);
        if self.traced_active {
            ctx.record_activity(false);
            self.traced_active = false;
        }
        self.search_since_ns = Some(ctx.now().ns());
        self.release_if_passive(ctx);
        // A request may already be out (pushed work reactivated us while
        // it was in flight); its reply or timeout drives the next try.
        if !self.done && self.outstanding.is_none() {
            self.send_steal_request(ctx);
        }
    }

    /// Work arrived — a steal reply, a lifeline push or a late
    /// transfer. An idle rank books its search session, records the
    /// transition and resumes; a rank already busy again (another
    /// transfer got here first) just absorbs it.
    pub(super) fn receive_work(&mut self, ctx: &mut Ctx<'_, Msg>, nodes: Vec<Node>) {
        // A sound detector never announces Done with work in flight.
        assert!(!self.done, "rank {} received work after Done", ctx.me());
        let idle = self.stack.is_empty() && !self.computing;
        self.counters.chunks_received += (nodes.len() / self.stack.chunk_size()) as u64;
        self.counters.nodes_received += nodes.len() as u64;
        self.term.on_work_received();
        self.stack.receive_chunks(nodes);
        if !idle {
            return;
        }
        self.consecutive_fails = 0;
        self.on_wake();
        self.close_session(ctx);
        if !self.traced_active {
            ctx.record_activity(true);
            self.traced_active = true;
        }
        self.start_batch(ctx);
    }

    /// End the open work-discovery session, if any.
    fn close_session(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(since) = self.search_since_ns.take() {
            let dur = ctx.now().ns().saturating_sub(since);
            self.counters.sessions += 1;
            self.counters.session_ns += dur;
            ctx.record_span(0, SpanKind::SessionEnd { dur_ns: dur });
        }
    }

    pub(super) fn send_steal_request(&mut self, ctx: &mut Ctx<'_, Msg>) {
        debug_assert!(self.outstanding.is_none());
        let t_draw = ctx.phase_start();
        let drawn = self.selector.next_victim(ctx.rng());
        debug_assert_ne!(drawn, ctx.me());
        let victim = self.vet_victim(ctx, drawn);
        ctx.phase_stop(Phase::VictimDraw, t_draw);
        let Some(victim) = victim else {
            return; // nobody left to steal from
        };
        let seq = self.req_seq;
        self.req_seq += 1;
        self.outstanding = Some(victim);
        self.outstanding_seq = seq;
        self.wait_since_ns = Some(ctx.now().ns());
        self.counters.steal_attempts += 1;
        let (id, v) = (trace_id(ctx.me() as usize, seq), victim as usize);
        ctx.record_span(id, SpanKind::StealRequestSent { victim: v });
        // Every caller hunts with an empty stack, so the request lends
        // the stack's own storage.
        let buf = self.stack.lend();
        let msg = Msg::StealRequest { seq, buf };
        ctx.send(victim, msg.wire_bytes(), msg);
        self.on_request_sent(ctx, victim, seq);
    }

    /// Stop the outstanding request's wait clock and book the wait as
    /// search time; returns it.
    pub(super) fn end_wait(&mut self, ctx: &Ctx<'_, Msg>) -> u64 {
        let since = self.wait_since_ns.take();
        let wait = since.map_or(0, |sent| ctx.now().ns().saturating_sub(sent));
        self.counters.search_ns += wait;
        wait
    }

    /// The retry pause is over: hunt again, unless a reply, new work or
    /// termination got here first.
    pub(super) fn resume_hunt(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.done || self.outstanding.is_some() || !self.stack.is_empty() {
            return;
        }
        if !self.renew_if_dormant(ctx) {
            self.send_steal_request(ctx);
        }
    }

    /// Service one message (either immediately when idle, or from the
    /// pending queue at a poll boundary). `arrived_ns` is the global
    /// time the message was delivered — equal to now for an idle rank,
    /// earlier when it sat in the pending queue (tracing only).
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, from: Rank, msg: Msg, arrived_ns: u64) {
        match msg {
            Msg::StealRequest { seq, buf } => {
                self.on_steal_request(ctx, from, seq, buf, arrived_ns)
            }
            Msg::StealReply { seq, xfer, nodes } => {
                self.on_steal_reply(ctx, from, seq, xfer, nodes)
            }
            Msg::Token { token, seq } => self.on_token(ctx, from, token, seq),
            Msg::Done => self.finish(ctx),
            Msg::StealAck { xfer } => self.on_steal_ack(ctx, from, xfer),
            Msg::LifelineRequest => self.on_lifeline_request(ctx, from),
            Msg::LifelinePush { xfer, nodes } => self.on_lifeline_push(ctx, from, xfer, nodes),
            Msg::TokenAck { seq } => self.on_token_ack(seq),
        }
    }

    /// A thief asks for work: answer in its lent buffer `nodes` with
    /// the stealable chunks the steal amount allows, or nothing.
    fn on_steal_request(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: Rank,
        seq: u64,
        mut nodes: Vec<Node>,
        arrived_ns: u64,
    ) {
        // The thief minted trace_id(from, seq); recomputing it here
        // links both sides of the attempt with no extra wire fields.
        let (attempt_id, thief) = (trace_id(from as usize, seq), from as usize);
        if self.gossip_done(ctx, from) {
            ctx.record_span(attempt_id, SpanKind::StealRequestRecv { thief });
            return;
        }
        if !self.done {
            let want = self.cfg.steal.want(self.stack.stealable_chunks());
            self.stack.steal_into(want, &mut nodes);
        }
        let mut xfer = 0;
        if !nodes.is_empty() {
            self.service_offset_ns += self.hand_over(&nodes);
            xfer = self.on_work_sent(ctx, from, &nodes);
        }
        ctx.record_span(
            attempt_id,
            SpanKind::StealServiced {
                thief,
                nodes: nodes.len() as u64,
                queue_ns: ctx.now().ns().saturating_sub(arrived_ns),
                depart_delay_ns: self.service_offset_ns,
            },
        );
        let reply = Msg::StealReply { seq, xfer, nodes };
        ctx.send_delayed(from, reply.wire_bytes(), self.service_offset_ns, reply);
    }

    /// The answer to a steal request: work, or an empty reply after
    /// which the thief pauses and tries again.
    fn on_steal_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: Rank,
        seq: u64,
        xfer: u64,
        nodes: Vec<Node>,
    ) {
        if self.outstanding != Some(from) || seq != self.outstanding_seq {
            // Only recovery makes these: the request timed out, or this
            // is a duplicated or retransmitted delivery.
            self.on_unexpected_reply(ctx, from, xfer, nodes);
            return;
        }
        self.outstanding = None;
        let rtt_ns = self.end_wait(ctx);
        let attempt_id = trace_id(ctx.me() as usize, seq);
        if !self.on_reply(ctx, from, xfer, &nodes, rtt_ns, attempt_id) {
            return;
        }
        let victim = from as usize;
        if nodes.is_empty() {
            self.stack.receive_chunks(nodes);
            self.counters.steals_failed += 1;
            self.consecutive_fails += 1;
            ctx.record_span(attempt_id, SpanKind::StealEmpty { victim, rtt_ns });
            // Only keep hunting if we are still actually idle — a
            // lifeline push may have reactivated us while this reply
            // was in flight.
            if self.done || !self.stack.is_empty() || self.computing || self.go_dormant(ctx) {
                return;
            }
            if self.cfg.retry_delay_ns > 0 {
                ctx.set_timer(self.cfg.retry_delay_ns, TIMER_RETRY);
            } else {
                self.send_steal_request(ctx);
            }
            return;
        }
        self.counters.steals_ok += 1;
        let n = nodes.len() as u64;
        let span = SpanKind::StealOk {
            victim,
            rtt_ns,
            nodes: n,
        };
        ctx.record_span(attempt_id, span);
        self.receive_work(ctx, nodes);
    }

    /// A ring token arrived: hold it while active, else pass it on (or,
    /// at rank 0, judge the probe).
    fn on_token(&mut self, ctx: &mut Ctx<'_, Msg>, from: Rank, token: Token, seq: u64) {
        if !self.on_token_hop(ctx, from, seq) {
            return;
        }
        let passive = self.passive();
        if let Some(action) = self.term.try_handle_token(token, passive) {
            self.apply_token_action(ctx, action);
        }
    }

    /// Observe global termination: close the open session and stop.
    pub(super) fn finish(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.done {
            return;
        }
        self.done = true;
        self.close_session(ctx);
        self.on_done(ctx);
        ctx.record_span(0, SpanKind::Done);
        assert!(
            self.stack.is_empty(),
            "rank {} terminated with {} nodes unprocessed",
            ctx.me(),
            self.stack.len()
        );
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
                // (a lifeline push reaches `receive_work` ->
                // `start_batch`), in which case a batch timer is armed
                // and we must not start another.
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
            TIMER_RETRY => self.resume_hunt(ctx),
            classed => self.on_recovery_timer(ctx, classed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_hot_state_stays_small() {
        // An upper bound, not a pin: a new field on the fault-free
        // path should be a conscious choice (DESIGN §10.5). Cold state
        // belongs in `Recovery`.
        let size = std::mem::size_of::<Worker>();
        assert!(size <= 456, "Worker is {size} bytes");
    }
}
