//! The per-rank work-stealing scheduler. `protocol.rs` is the paper's
//! Algorithm 1: batches, polling, steal service, the base victim draw
//! and token-ring termination. `recovery.rs` is fault tolerance,
//! lifelines and the adaptive health draw, reached only through named
//! hooks (on victim draw, request sent, work sent, reply, token, probe,
//! timer and done) that cost one `Option` branch each when all three
//! are off. Every rank reads the run's
//! [`ExperimentConfig`](crate::ExperimentConfig), its "auto" fault
//! tolerance resolved by the runner. This module holds what both share:
//! the messages and the timer tokens.

mod protocol;
mod recovery;

pub use protocol::Worker;

use crate::termination::Token;
use dws_uts::{Node, NODE_WIRE_BYTES};

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

/// Cap on exponential-backoff doublings applied after consecutive
/// timeouts (steal requests) or repeated retransmissions.
pub(crate) const MAX_BACKOFF_DOUBLINGS: u32 = 6;

/// Knob of the failure-tolerant steal protocol. All time scales are
/// *derived from the placed job's latency model* at use time
/// (paper-style: no magic wall-clock constants) — this is only the
/// multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultToleranceCfg {
    /// Multiplier on the estimated request→reply round trip (plus one
    /// victim service interval) before a steal request is declared
    /// lost and the thief re-selects a victim. At least 1.
    pub timeout_mult: u32,
}

impl Default for FaultToleranceCfg {
    fn default() -> Self {
        Self { timeout_mult: 4 }
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
        /// The storage of the thief's empty stack, lent for the reply to
        /// fill as an MPI thief posts its receive buffer. Not on the wire.
        buf: Vec<Node>,
    },
    /// Reply: the stolen chunks; empty means the steal failed.
    StealReply {
        /// Echo of the request's sequence number (`u64::MAX` on a
        /// retransmission, which can never match a live request and
        /// therefore always takes the stale-reply path).
        seq: u64,
        /// Victim-local transfer id (0 for empty replies).
        xfer: u64,
        /// Whole chunks for the thief, oldest node first (empty on failure).
        nodes: Vec<Node>,
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
        /// One whole chunk donated to the dormant rank.
        nodes: Vec<Node>,
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
            Msg::StealReply { nodes, .. } | Msg::LifelinePush { nodes, .. } => {
                16 + nodes.len() * NODE_WIRE_BYTES
            }
            Msg::Token { .. } => 24,
            Msg::Done => 8,
        }
    }
}

/// Timer tokens. Plain small values are the paper protocol's timers;
/// recovery packs an identifier into the low 56 bits under a class tag
/// in the top byte, and decodes every class itself.
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
/// Class tag: a dormant rank's lifeline re-registration.
const TIMER_CLASS_LIFELINE: u64 = 8;
