//! Causal spans for the steal protocol.
//!
//! Every steal attempt gets a **trace ID** minted by the thief and
//! reconstructible by the victim from the wire fields it already
//! receives, so a single attempt's request → service → reply →
//! (timeout → retransmit → ack) chain can be stitched back together
//! across ranks without widening any message. Token-ring and
//! termination events ride the same record stream so a post-mortem can
//! interleave protocol recovery with steal traffic. An attempt answered
//! at the first try is three records: the thief's request, the
//! victim's [`SpanKind::StealServiced`] (what it gave and when the
//! reply left) and the thief's outcome.
//!
//! The paper can only be reproduced if observation is free. Spans are
//! recorded where the order already is: the engine keeps one log per
//! shard beside its activity and network traces, a span site is one
//! branch when the log is detached, and no timer, message or RNG draw
//! depends on it, so the simulated event schedule is bit-for-bit
//! identical with spans on or off. A shard dispatches in `(time, rank)`
//! order, so [`SpanTrace::from_shard_logs`] takes the logs by move and
//! merges their few sorted runs.
//!
//! Spans are the one recording that grows with the event count, so a
//! log is a [`SpanLog`]: records encoded back to back in about ten
//! bytes each, read back as [`SpanRecord`] values.
//!
//! Spans are emitted at exactly the sites where the scheduler bumps
//! its [`StealStats`](crate::StealStats) counters, which is what makes
//! [`SpanTrace::reconcile`] an exact (not statistical) cross-check.

use crate::histogram::LatencyHistograms;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Width of the per-thief sequence-number field in a trace ID.
const SEQ_BITS: u32 = 40;

/// Mint the trace ID for a steal attempt: the thief's rank in the high
/// bits, its per-thief request sequence number in the low 40.
///
/// The victim computes the same ID from the `(from, seq)` fields on the
/// wire, so both sides of an attempt tag their spans identically with
/// no protocol change.
#[inline]
pub fn trace_id(thief: usize, seq: u64) -> u64 {
    ((thief as u64) << SEQ_BITS) | (seq & ((1u64 << SEQ_BITS) - 1))
}

/// What happened at one point of a steal attempt (or of the
/// termination machinery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Thief sent a steal request to `victim`.
    StealRequestSent {
        /// Rank the request was addressed to.
        victim: usize,
    },
    /// Victim received a steal request from `thief` after it was done:
    /// it repeats `Done` to the thief and services nothing.
    StealRequestRecv {
        /// Rank that asked for work.
        thief: usize,
    },
    /// Victim received, serviced and answered one steal request: the
    /// one record of the victim's side of an attempt. The reply carries
    /// `nodes` tree nodes (0 = refusal); the request sat `queue_ns` in
    /// the victim's pending queue before being handled (zero when the
    /// victim was idle and handled it immediately), and victim-side CPU
    /// debt delays the reply's departure `depart_delay_ns` past the
    /// handling instant `at_ns` — the ingredients for attributing
    /// queue-at-victim time on the critical path.
    StealServiced {
        /// Rank that asked for work.
        thief: usize,
        /// Tree nodes in the reply; 0 for an empty-handed refusal.
        nodes: u64,
        /// Arrival → handling wait in the victim's pending queue.
        queue_ns: u64,
        /// Handling instant → reply departure (victim CPU debt).
        depart_delay_ns: u64,
    },
    /// Thief's request was answered with work after `rtt_ns`.
    StealOk {
        /// Rank that supplied the work.
        victim: usize,
        /// Request-to-reply round trip in nanoseconds.
        rtt_ns: u64,
        /// Tree nodes received.
        nodes: u64,
    },
    /// Thief's request was answered empty-handed after `rtt_ns`.
    StealEmpty {
        /// Rank that refused.
        victim: usize,
        /// Request-to-reply round trip in nanoseconds.
        rtt_ns: u64,
    },
    /// Thief's request timed out; this was consecutive timeout number
    /// `backoff_doublings` (1 = first), so the next retry waits
    /// `2^backoff_doublings`× longer.
    StealTimeout {
        /// Rank the timed-out request had been sent to.
        victim: usize,
        /// Consecutive-timeout depth at this event.
        backoff_doublings: u64,
    },
    /// Thief reached termination with this request still in flight;
    /// the attempt is charged as failed without a reply ever arriving.
    StealAbandoned {
        /// Rank the abandoned request had been sent to.
        victim: usize,
    },
    /// Victim received the ack for work transfer `xfer` from `thief`.
    TransferAcked {
        /// Rank that acknowledged.
        thief: usize,
        /// Transfer ID being acknowledged.
        xfer: u64,
    },
    /// A reliable send (work transfer or token hop) was retransmitted.
    Retransmit {
        /// Destination rank of the retransmission.
        to: usize,
        /// Transfer ID (work) or token generation (ring) being retried.
        xfer: u64,
        /// Retry attempt number (1 = first retransmission).
        attempt: u64,
    },
    /// This rank forwarded the termination token to `to`.
    TokenHop {
        /// Next rank on the ring.
        to: usize,
        /// Token generation number.
        generation: u64,
    },
    /// Rank 0's watchdog regenerated a lost termination token.
    TokenRegenerated {
        /// Generation number of the regenerated token.
        generation: u64,
    },
    /// Adaptive victim selection quarantined `victim` on this rank
    /// after repeated timeouts: until the probation expires, every
    /// selection round must re-draw around it.
    Quarantined {
        /// Rank placed under probation.
        victim: usize,
    },
    /// A work-discovery session closed after `dur_ns`.
    SessionEnd {
        /// Session duration in nanoseconds.
        dur_ns: u64,
    },
    /// This rank learned the computation is over.
    Done,
}

/// One timestamped span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global simulation time of the event, in nanoseconds.
    pub at_ns: u64,
    /// Rank that recorded the event.
    pub rank: usize,
    /// Trace ID linking both sides of a steal attempt; 0 for events
    /// outside any attempt (sessions, token ring, Done).
    pub trace: u64,
    /// What happened.
    pub kind: SpanKind,
}

/// Span records encoded back to back in one byte buffer: the engine's
/// per-shard logs and the merged [`SpanTrace`] are both one.
///
/// A record is a tag byte followed by LEB128 varints: the absolute
/// `at_ns`, the `rank`, then the trace ID, then the kind's fields in
/// declaration order. The tag's low four bits name the kind and the
/// next two say how the trace ID is stored: absent when it is 0, as the
/// attempt's sequence number when it is `trace_id(rank, seq)` or
/// `trace_id(peer, seq)` (the peer being the kind's first field), and
/// raw otherwise. Every value is absolute, so a record decodes from its
/// byte offset alone; an attempt span takes 10–14 bytes where a
/// [`SpanRecord`] takes 56.
///
/// Two logs are equal when they hold the same records in the same
/// order.
#[derive(Clone, Default)]
pub struct SpanLog {
    bytes: Vec<u8>,
    len: usize,
    /// `(at_ns, rank)` of the last record, and the largest.
    last: (u64, usize),
    max: (u64, usize),
    /// Byte offsets of the records that sort before the record ahead
    /// of them: where each sorted run after the first begins.
    breaks: Vec<usize>,
}

/// How a record stores its trace ID (tag bits 4–5).
const TRACE_ZERO: u8 = 0;
const TRACE_OF_RANK: u8 = 1;
const TRACE_OF_PEER: u8 = 2;
const TRACE_RAW: u8 = 3;

/// A kind's tag (low four bits) and its fields in declaration order.
fn kind_fields(kind: SpanKind) -> (u8, [u64; 4], usize) {
    let u = |v: usize| v as u64;
    match kind {
        SpanKind::StealRequestSent { victim } => (0, [u(victim), 0, 0, 0], 1),
        SpanKind::StealRequestRecv { thief } => (1, [u(thief), 0, 0, 0], 1),
        SpanKind::StealServiced {
            thief,
            nodes,
            queue_ns,
            depart_delay_ns,
        } => (2, [u(thief), nodes, queue_ns, depart_delay_ns], 4),
        SpanKind::StealOk {
            victim,
            rtt_ns,
            nodes,
        } => (3, [u(victim), rtt_ns, nodes, 0], 3),
        SpanKind::StealEmpty { victim, rtt_ns } => (4, [u(victim), rtt_ns, 0, 0], 2),
        SpanKind::StealTimeout {
            victim,
            backoff_doublings,
        } => (5, [u(victim), backoff_doublings, 0, 0], 2),
        SpanKind::StealAbandoned { victim } => (6, [u(victim), 0, 0, 0], 1),
        SpanKind::TransferAcked { thief, xfer } => (7, [u(thief), xfer, 0, 0], 2),
        SpanKind::Retransmit { to, xfer, attempt } => (8, [u(to), xfer, attempt, 0], 3),
        SpanKind::TokenHop { to, generation } => (9, [u(to), generation, 0, 0], 2),
        SpanKind::TokenRegenerated { generation } => (10, [generation, 0, 0, 0], 1),
        SpanKind::Quarantined { victim } => (11, [u(victim), 0, 0, 0], 1),
        SpanKind::SessionEnd { dur_ns } => (12, [dur_ns, 0, 0, 0], 1),
        SpanKind::Done => (13, [0; 4], 0),
    }
}

/// Whether kind `tag`'s first field is a rank an attempt's trace ID can
/// be minted from.
fn has_peer(tag: u8) -> bool {
    !matches!(tag, 10 | 12 | 13)
}

/// Append `v` to `buf` at `n` as a LEB128 varint; returns the new end.
#[inline]
fn put_varint(buf: &mut [u8], mut n: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    n + 1
}

/// Read the LEB128 varint at `*pos`, advancing past it.
#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// The value of a varint of at most eight bytes, read as a word whose
/// bytes past the varint are zero.
#[inline]
fn pack7(x: u64) -> u64 {
    let x = x & 0x7F7F_7F7F_7F7F_7F7F;
    let x = ((x & 0x7F00_7F00_7F00_7F00) >> 1) | (x & 0x007F_007F_007F_007F);
    let x = ((x & 0x3FFF_0000_3FFF_0000) >> 2) | (x & 0x0000_3FFF_0000_3FFF);
    ((x & 0x0FFF_FFFF_0000_0000) >> 4) | (x & 0x0FFF_FFFF)
}

/// [`get_varint`], faster: a one-byte value is one compare, and where
/// eight bytes are left a longer one is read as a word, its end found
/// from the bytes' high bits and its 7-bit groups packed with shifts
/// and masks (in 32-bit arithmetic up to four bytes), not a byte at a
/// time.
#[inline(always)]
fn varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let b = bytes[*pos];
    if b < 0x80 {
        *pos += 1;
        return u64::from(b);
    }
    if let Some(word) = bytes.get(*pos..*pos + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let ends = !w & 0x8080_8080_8080_8080;
        if ends != 0 {
            // Bits up to and including the varint's last byte.
            let bits = ends.trailing_zeros() + 1;
            *pos += bits as usize / 8;
            if bits <= 32 {
                let x = (w as u32) & (u32::MAX >> (32 - bits));
                let x = (x & 0x7F)
                    | ((x >> 1) & 0x3F80)
                    | ((x >> 2) & 0x1F_C000)
                    | ((x >> 3) & 0x0FE0_0000);
                return u64::from(x);
            }
            return pack7(w & (u64::MAX >> (64 - bits)));
        }
    }
    get_varint(bytes, pos)
}

/// The record at `pos`, and where the next record starts.
#[inline]
fn decode(bytes: &[u8], mut pos: usize) -> (SpanRecord, usize) {
    let tag = bytes[pos];
    pos += 1;
    let at_ns = varint(bytes, &mut pos);
    let rank = varint(bytes, &mut pos) as usize;
    let mode = tag >> 4;
    let stored = if mode == TRACE_ZERO {
        0
    } else {
        varint(bytes, &mut pos)
    };
    // Every kind but `Done` has a first field, the peer where it is a
    // rank; the arms read the rest, so the kind is branched on once.
    let kind = tag & 0xF;
    let first = if kind == 13 {
        0
    } else {
        varint(bytes, &mut pos)
    };
    let peer = first as usize;
    let mut next = || varint(bytes, &mut pos);
    let kind = match kind {
        0 => SpanKind::StealRequestSent { victim: peer },
        1 => SpanKind::StealRequestRecv { thief: peer },
        2 => SpanKind::StealServiced {
            thief: peer,
            nodes: next(),
            queue_ns: next(),
            depart_delay_ns: next(),
        },
        3 => SpanKind::StealOk {
            victim: peer,
            rtt_ns: next(),
            nodes: next(),
        },
        4 => SpanKind::StealEmpty {
            victim: peer,
            rtt_ns: next(),
        },
        5 => SpanKind::StealTimeout {
            victim: peer,
            backoff_doublings: next(),
        },
        6 => SpanKind::StealAbandoned { victim: peer },
        7 => SpanKind::TransferAcked {
            thief: peer,
            xfer: next(),
        },
        8 => SpanKind::Retransmit {
            to: peer,
            xfer: next(),
            attempt: next(),
        },
        9 => SpanKind::TokenHop {
            to: peer,
            generation: next(),
        },
        10 => SpanKind::TokenRegenerated { generation: first },
        11 => SpanKind::Quarantined { victim: peer },
        12 => SpanKind::SessionEnd { dur_ns: first },
        13 => SpanKind::Done,
        tag => unreachable!("span log holds an unknown kind tag {tag}"),
    };
    let trace = match mode {
        TRACE_ZERO => 0,
        TRACE_OF_RANK => trace_id(rank, stored),
        TRACE_OF_PEER => trace_id(peer, stored),
        _ => stored,
    };
    let rec = SpanRecord {
        at_ns,
        rank,
        trace,
        kind,
    };
    (rec, pos)
}

impl SpanLog {
    /// Append one record.
    #[inline]
    pub fn push(&mut self, rec: SpanRecord) {
        let (kind, fields, n_fields) = kind_fields(rec.kind);
        let seq = rec.trace & ((1u64 << SEQ_BITS) - 1);
        let (mode, stored) = if rec.trace == 0 {
            (TRACE_ZERO, 0)
        } else if trace_id(rec.rank, seq) == rec.trace {
            (TRACE_OF_RANK, seq)
        } else if has_peer(kind) && trace_id(fields[0] as usize, seq) == rec.trace {
            (TRACE_OF_PEER, seq)
        } else {
            (TRACE_RAW, rec.trace)
        };
        // A tag byte and at most seven ten-byte varints.
        let mut buf = [0u8; 71];
        buf[0] = mode << 4 | kind;
        let mut n = put_varint(&mut buf, 1, rec.at_ns);
        n = put_varint(&mut buf, n, rec.rank as u64);
        if mode != TRACE_ZERO {
            n = put_varint(&mut buf, n, stored);
        }
        for &f in &fields[..n_fields] {
            n = put_varint(&mut buf, n, f);
        }
        let key = (rec.at_ns, rec.rank);
        if key < self.last {
            self.breaks.push(self.bytes.len());
        }
        self.last = key;
        self.max = self.max.max(key);
        self.bytes.extend_from_slice(&buf[..n]);
        self.len += 1;
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the encoded records take.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The records in log order, decoded one by one.
    pub fn iter(&self) -> SpanIter<'_> {
        SpanIter {
            bytes: &self.bytes,
            pos: 0,
            left: self.len,
        }
    }

    /// The records in log order, each with the byte offset
    /// [`at`](Self::at) decodes it from.
    pub(crate) fn with_offsets(&self) -> impl Iterator<Item = (usize, SpanRecord)> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || {
            (pos < self.bytes.len()).then(|| {
                let (rec, next) = decode(&self.bytes, pos);
                let at = std::mem::replace(&mut pos, next);
                (at, rec)
            })
        })
    }

    /// The record at byte `offset`, which must be one
    /// [`with_offsets`](Self::with_offsets) yielded.
    pub(crate) fn at(&self, offset: usize) -> SpanRecord {
        decode(&self.bytes, offset).0
    }

    /// The `at_ns` of the record at byte `offset`, without decoding
    /// the rest of it.
    pub(crate) fn at_ns(&self, offset: usize) -> u64 {
        varint(&self.bytes, &mut (offset + 1))
    }

    /// Merge per-shard logs into one in `(at_ns, rank)` order: the
    /// order a stable sort of their concatenation gives, so records with
    /// equal keys keep their log order. The logs' sorted runs (a log in
    /// dispatch order has two: the `on_start` batch at time zero and
    /// the rest) are merged by their next record's key, the run's place
    /// in the concatenation breaking ties, and records move as bytes in
    /// stretches: a run's tail is one copy once no other run is left. A
    /// lone sorted log is moved, not copied.
    fn merge(logs: Vec<SpanLog>) -> SpanLog {
        // `(log, start, end)` of every sorted run, in concatenation order.
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        for (l, log) in logs.iter().enumerate() {
            let mut start = 0;
            for &end in log.breaks.iter().chain([log.bytes.len()].iter()) {
                if end > start {
                    runs.push((l, start, end));
                }
                start = end;
            }
        }
        if runs.len() <= 1 {
            return logs.into_iter().find(|l| !l.is_empty()).unwrap_or_default();
        }
        let max = logs.iter().map(|l| l.max).max().unwrap_or_default();
        let mut out = SpanLog {
            bytes: Vec::with_capacity(logs.iter().map(|l| l.bytes.len()).sum()),
            len: logs.iter().map(|l| l.len).sum(),
            last: max,
            max,
            breaks: Vec::new(),
        };
        // Min-heap of run heads: `(at_ns, rank, run, offset)`.
        let mut heads: BinaryHeap<Reverse<(u64, usize, usize, usize)>> = runs
            .iter()
            .enumerate()
            .map(|(run, &(l, start, _))| {
                let (rec, _) = decode(&logs[l].bytes, start);
                Reverse((rec.at_ns, rec.rank, run, start))
            })
            .collect();
        while let Some(Reverse((_, _, run, from))) = heads.pop() {
            let (l, _, end) = runs[run];
            let bytes = &logs[l].bytes;
            // Copy the stretch of this run that sorts before every other
            // run's head: all of it when no other run is left.
            let mut pos = end;
            if let Some(&Reverse((at_ns, rank, other, _))) = heads.peek() {
                pos = decode(bytes, from).1;
                while pos < end {
                    let (rec, next) = decode(bytes, pos);
                    if (rec.at_ns, rec.rank, run) > (at_ns, rank, other) {
                        heads.push(Reverse((rec.at_ns, rec.rank, run, pos)));
                        break;
                    }
                    pos = next;
                }
            }
            out.bytes.extend_from_slice(&bytes[from..pos]);
        }
        out
    }
}

impl PartialEq for SpanLog {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for SpanLog {}

impl fmt::Debug for SpanLog {
    /// Prints what `{:?}` of the records as a slice prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a SpanLog {
    type Item = SpanRecord;
    type IntoIter = SpanIter<'a>;

    fn into_iter(self) -> SpanIter<'a> {
        self.iter()
    }
}

impl FromIterator<SpanRecord> for SpanLog {
    fn from_iter<I: IntoIterator<Item = SpanRecord>>(records: I) -> Self {
        let mut log = SpanLog::default();
        for rec in records {
            log.push(rec);
        }
        log
    }
}

impl From<Vec<SpanRecord>> for SpanLog {
    fn from(records: Vec<SpanRecord>) -> Self {
        records.into_iter().collect()
    }
}

/// Iterator over a [`SpanLog`]'s records, decoded by value.
#[derive(Clone)]
pub struct SpanIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
}

impl Iterator for SpanIter<'_> {
    type Item = SpanRecord;

    #[inline]
    fn next(&mut self) -> Option<SpanRecord> {
        if self.left == 0 {
            return None;
        }
        let (rec, next) = decode(self.bytes, self.pos);
        self.pos = next;
        self.left -= 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for SpanIter<'_> {}

/// All spans of one run, merged across ranks.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    records: SpanLog,
    n_ranks: usize,
}

impl SpanTrace {
    /// Build from the engine's per-shard logs over `n_ranks` ranks.
    /// Each rank's records must sit in one log, in the order the rank
    /// wrote them; the merge keeps that order among records with equal
    /// `(at_ns, rank)`. A log in dispatch order is one sorted run apart
    /// from the `on_start` batch, but nothing here depends on it.
    pub fn from_shard_logs<L: Into<SpanLog>>(n_ranks: usize, logs: Vec<L>) -> Self {
        Self {
            records: SpanLog::merge(logs.into_iter().map(Into::into).collect()),
            n_ranks,
        }
    }

    /// All records, time-ordered (ties broken by rank).
    pub fn records(&self) -> &SpanLog {
        &self.records
    }

    /// Number of ranks the trace covers.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Count records matching `pred` across all ranks.
    pub fn count<F: Fn(&SpanKind) -> bool>(&self, pred: F) -> u64 {
        self.records.iter().filter(|r| pred(&r.kind)).count() as u64
    }

    /// Exact cross-check against the scheduler's own counters: for
    /// every rank, span counts must equal the [`StealStats`] fields
    /// incremented at the same program points. Any mismatch means the
    /// tracer and the counters disagree about what happened — a bug;
    /// so is a span of a rank the counters have no row for.
    ///
    /// [`StealStats`]: crate::StealStats
    pub fn reconcile(&self, stats: &crate::RunStats) -> Result<(), String> {
        // One pass over the records; a row's columns follow `checks`.
        let mut seen = vec![[0u64; 8]; stats.per_rank.len()];
        for r in &self.records {
            let Some(row) = seen.get_mut(r.rank) else {
                return Err(format!(
                    "rank {}: {:?} span but the counters cover {} ranks",
                    r.rank,
                    r.kind,
                    seen.len()
                ));
            };
            match r.kind {
                SpanKind::StealRequestSent { .. } => row[0] += 1,
                SpanKind::StealOk { .. } => row[1] += 1,
                SpanKind::StealEmpty { .. } | SpanKind::StealAbandoned { .. } => row[2] += 1,
                SpanKind::StealTimeout { .. } => {
                    row[2] += 1;
                    row[3] += 1;
                }
                SpanKind::Retransmit { .. } => row[4] += 1,
                SpanKind::TokenRegenerated { .. } => row[5] += 1,
                SpanKind::SessionEnd { .. } => row[6] += 1,
                SpanKind::Quarantined { .. } => row[7] += 1,
                _ => {}
            }
        }
        for (rank, (s, row)) in stats.per_rank.iter().zip(seen).enumerate() {
            let checks = [
                ("steal_attempts", s.steal_attempts),
                ("steals_ok", s.steals_ok),
                ("steals_failed", s.steals_failed),
                ("steal_timeouts", s.steal_timeouts),
                ("retransmits", s.retransmits),
                ("token_regenerations", s.token_regenerations),
                ("sessions", s.sessions),
                ("quarantines", s.quarantines),
            ];
            for ((name, counter), spans) in checks.into_iter().zip(row) {
                if counter != spans {
                    return Err(format!(
                        "rank {rank}: {name} counter {counter} != {spans} matching spans"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Derive the latency distributions the spans carry. The message
    /// delivery histogram lives in the network layer, not here —
    /// merge a `NetTrace`'s histogram into the result if you have one.
    pub fn histograms(&self) -> LatencyHistograms {
        let mut h = LatencyHistograms::default();
        for r in &self.records {
            match r.kind {
                SpanKind::StealOk { rtt_ns, .. } | SpanKind::StealEmpty { rtt_ns, .. } => {
                    h.steal_rtt_ns.record(rtt_ns)
                }
                SpanKind::StealTimeout {
                    backoff_doublings, ..
                } => h.backoff_doublings.record(backoff_doublings),
                SpanKind::SessionEnd { dur_ns } => h.session_ns.record(dur_ns),
                _ => {}
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunStats, StealStats};

    #[test]
    fn trace_ids_are_reconstructible_and_distinct() {
        assert_eq!(trace_id(3, 7), trace_id(3, 7));
        assert_ne!(trace_id(3, 7), trace_id(3, 8));
        assert_ne!(trace_id(3, 7), trace_id(4, 7));
        // rank survives in the high bits
        assert_eq!(trace_id(1023, 0) >> 40, 1023);
    }

    #[test]
    fn merge_orders_by_time_then_rank() {
        let r0 = vec![SpanRecord {
            at_ns: 10,
            rank: 0,
            trace: 0,
            kind: SpanKind::Done,
        }];
        let r1 = vec![
            SpanRecord {
                at_ns: 5,
                rank: 1,
                trace: 0,
                kind: SpanKind::SessionEnd { dur_ns: 5 },
            },
            SpanRecord {
                at_ns: 10,
                rank: 1,
                trace: 0,
                kind: SpanKind::Done,
            },
        ];
        let trace = SpanTrace::from_shard_logs(2, vec![r0, r1]);
        let at: Vec<(u64, usize)> = trace.records().iter().map(|r| (r.at_ns, r.rank)).collect();
        assert_eq!(at, vec![(5, 1), (10, 0), (10, 1)]);
        assert_eq!(trace.n_ranks(), 2);
    }

    fn rec(at_ns: u64, rank: usize, kind: SpanKind) -> SpanRecord {
        SpanRecord {
            at_ns,
            rank,
            trace: 0,
            kind,
        }
    }

    #[test]
    fn a_rank_keeps_its_write_order_among_ties() {
        // Rank 1 writes a timeout and then the quarantine it caused at
        // one instant; rank 0's record of that instant sits between
        // them in the log and must sort ahead of both.
        let timeout = SpanKind::StealTimeout {
            victim: 0,
            backoff_doublings: 1,
        };
        let quarantined = SpanKind::Quarantined { victim: 0 };
        let log = vec![
            rec(400, 1, timeout),
            rec(400, 0, SpanKind::Done),
            rec(400, 1, quarantined),
        ];
        let trace = SpanTrace::from_shard_logs(2, vec![log]);
        let kinds: Vec<(usize, SpanKind)> =
            trace.records().iter().map(|r| (r.rank, r.kind)).collect();
        assert_eq!(
            kinds,
            vec![(0, SpanKind::Done), (1, timeout), (1, quarantined)]
        );
    }

    #[test]
    fn shard_logs_interleave_by_time_then_rank() {
        let done = SpanKind::Done;
        let shard0 = vec![rec(5, 0, done), rec(20, 1, done), rec(30, 0, done)];
        let shard1 = vec![rec(5, 2, done), rec(10, 3, done), rec(20, 2, done)];
        let shard2 = vec![rec(1, 4, done), rec(30, 4, done)];
        let trace = SpanTrace::from_shard_logs(5, vec![shard0, shard1, shard2]);
        let at: Vec<(u64, usize)> = trace.records().iter().map(|r| (r.at_ns, r.rank)).collect();
        assert_eq!(
            at,
            vec![
                (1, 4),
                (5, 0),
                (5, 2),
                (10, 3),
                (20, 1),
                (20, 2),
                (30, 0),
                (30, 4)
            ]
        );
        assert_eq!(trace.n_ranks(), 5);
        assert!(SpanTrace::from_shard_logs(3, Vec::<SpanLog>::new())
            .records()
            .is_empty());
    }

    #[test]
    fn a_log_that_is_not_one_run_is_sorted() {
        // `on_start` runs for every rank before the first event is
        // dispatched, so a time-0 event of a lower rank lands behind
        // the start-up records of the higher ones.
        let sent = |victim| SpanKind::StealRequestSent { victim };
        let log = vec![
            rec(0, 1, sent(0)),
            rec(0, 2, sent(0)),
            rec(0, 3, sent(1)),
            rec(0, 1, SpanKind::SessionEnd { dur_ns: 0 }),
            rec(7, 0, SpanKind::Done),
        ];
        let trace = SpanTrace::from_shard_logs(4, vec![log]);
        let got: Vec<(u64, usize, SpanKind)> = trace
            .records()
            .iter()
            .map(|r| (r.at_ns, r.rank, r.kind))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 1, sent(0)),
                (0, 1, SpanKind::SessionEnd { dur_ns: 0 }),
                (0, 2, sent(0)),
                (0, 3, sent(1)),
                (7, 0, SpanKind::Done),
            ]
        );
    }

    #[test]
    fn span_log_round_trips_every_kind() {
        // 2^55 and 2^56 take the longest varint a word read decodes
        // and the shortest it does not.
        const VALUES: [u64; 9] = [
            0,
            1,
            127,
            128,
            (1 << 32) - 1,
            1 << 55,
            1 << 56,
            1 << 63,
            u64::MAX,
        ];
        let kinds = |j: usize| {
            let v = |i: usize| VALUES[(j + i) % VALUES.len()];
            let r = |i: usize| v(i) as usize;
            [
                SpanKind::StealRequestSent { victim: r(0) },
                SpanKind::StealRequestRecv { thief: r(0) },
                SpanKind::StealServiced {
                    thief: r(0),
                    nodes: v(1),
                    queue_ns: v(2),
                    depart_delay_ns: v(3),
                },
                SpanKind::StealOk {
                    victim: r(0),
                    rtt_ns: v(1),
                    nodes: v(2),
                },
                SpanKind::StealEmpty {
                    victim: r(0),
                    rtt_ns: v(1),
                },
                SpanKind::StealTimeout {
                    victim: r(0),
                    backoff_doublings: v(1),
                },
                SpanKind::StealAbandoned { victim: r(0) },
                SpanKind::TransferAcked {
                    thief: r(0),
                    xfer: v(1),
                },
                SpanKind::Retransmit {
                    to: r(0),
                    xfer: v(1),
                    attempt: v(2),
                },
                SpanKind::TokenHop {
                    to: r(0),
                    generation: v(1),
                },
                SpanKind::TokenRegenerated { generation: v(0) },
                SpanKind::Quarantined { victim: r(0) },
                SpanKind::SessionEnd { dur_ns: v(0) },
                SpanKind::Done,
            ]
        };
        let mut input = Vec::new();
        for j in 0..VALUES.len() {
            for kind in kinds(j) {
                let peer = kind_fields(kind).1[0] as usize;
                for rank in [0, 1, 1 << 31] {
                    for seq in [0, 5, (1 << SEQ_BITS) - 1] {
                        let traces = [
                            0,
                            trace_id(rank, seq),
                            trace_id(peer, seq),
                            0xDEAD_BEEF_F00D_CAFE,
                        ];
                        for trace in traces {
                            input.push(SpanRecord {
                                at_ns: VALUES[(j + rank) % VALUES.len()],
                                rank,
                                trace,
                                kind,
                            });
                        }
                    }
                }
            }
        }
        let log: SpanLog = input.iter().copied().collect();
        assert_eq!(log.len(), input.len());
        assert_eq!(log.iter().len(), input.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), input);
        let mut offsets = 0;
        for ((offset, rec), want) in log.with_offsets().zip(&input) {
            assert_eq!(rec, *want);
            assert_eq!(log.at(offset), *want, "decoded at byte {offset}");
            assert_eq!(log.at_ns(offset), want.at_ns);
            offsets += 1;
        }
        assert_eq!(offsets, input.len());
        assert_eq!(format!("{log:?}"), format!("{:?}", input.as_slice()));
        assert_eq!(format!("{log:#?}"), format!("{:#?}", input.as_slice()));
    }

    #[test]
    fn an_attempt_span_takes_a_dozen_bytes() {
        let log: SpanLog = [
            SpanRecord {
                at_ns: 12_345_678,
                rank: 100,
                trace: trace_id(100, 300),
                kind: SpanKind::StealOk {
                    victim: 7,
                    rtt_ns: 9_000,
                    nodes: 40,
                },
            },
            SpanRecord {
                at_ns: 12_345_678,
                rank: 7,
                trace: trace_id(100, 300),
                kind: SpanKind::StealRequestRecv { thief: 100 },
            },
        ]
        .into_iter()
        .collect();
        // tag, 4-byte time, rank, 2-byte seq, then the fields.
        assert_eq!(
            log.encoded_bytes(),
            (1 + 4 + 1 + 2 + 1 + 2 + 1) + (1 + 4 + 1 + 2 + 1)
        );
    }

    #[test]
    fn merge_is_a_stable_sort_of_the_concatenation() {
        // Logs of a few sorted runs each over a small key space, so
        // ties across logs and within a log are common.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..50 {
            let logs: Vec<Vec<SpanRecord>> = (0..next(4) + 1)
                .map(|_| {
                    let mut log = Vec::new();
                    for _ in 0..next(3) + 1 {
                        let mut at = next(4);
                        for _ in 0..next(12) {
                            at += next(2);
                            let rec = SpanRecord {
                                at_ns: at,
                                rank: next(3) as usize,
                                trace: next(1000),
                                kind: SpanKind::SessionEnd { dur_ns: next(300) },
                            };
                            log.push(rec);
                        }
                    }
                    log
                })
                .collect();
            let mut want: Vec<SpanRecord> = logs.concat();
            want.sort_by_key(|r| (r.at_ns, r.rank));
            let trace = SpanTrace::from_shard_logs(3, logs);
            assert_eq!(trace.records().iter().collect::<Vec<_>>(), want);
            assert_eq!(trace.records().len(), want.len());
        }
    }

    #[test]
    fn a_merged_log_is_one_sorted_run() {
        let done = SpanKind::Done;
        let merged = |log: Vec<SpanRecord>| {
            let mut trace = SpanTrace::from_shard_logs(1, vec![log]);
            assert!(trace.records.breaks.is_empty());
            // A record pushed after the largest key starts no new run.
            trace.records.push(rec(9, 0, done));
            assert!(trace.records.breaks.is_empty());
            trace.records().iter().map(|r| r.at_ns).collect::<Vec<_>>()
        };
        // The run holding the largest key ends the log, or does not.
        let log = vec![rec(2, 0, done), rec(1, 0, done), rec(3, 0, done)];
        assert_eq!(merged(log), vec![1, 2, 3, 9]);
        let log = vec![rec(5, 0, done), rec(3, 0, done), rec(4, 0, done)];
        assert_eq!(merged(log), vec![3, 4, 5, 9]);
    }

    fn attempt(rank: usize, victim: usize, seq: u64, at: u64, ok: bool) -> Vec<SpanRecord> {
        let id = trace_id(rank, seq);
        vec![
            SpanRecord {
                at_ns: at,
                rank,
                trace: id,
                kind: SpanKind::StealRequestSent { victim },
            },
            SpanRecord {
                at_ns: at + 100,
                rank,
                trace: id,
                kind: if ok {
                    SpanKind::StealOk {
                        victim,
                        rtt_ns: 100,
                        nodes: 4,
                    }
                } else {
                    SpanKind::StealEmpty {
                        victim,
                        rtt_ns: 100,
                    }
                },
            },
        ]
    }

    #[test]
    fn reconcile_accepts_matching_counts() {
        let mut r0 = attempt(0, 1, 0, 10, true);
        r0.extend(attempt(0, 1, 1, 300, false));
        r0.push(SpanRecord {
            at_ns: 500,
            rank: 0,
            trace: 0,
            kind: SpanKind::SessionEnd { dur_ns: 490 },
        });
        let trace = SpanTrace::from_shard_logs(2, vec![r0]);
        let stats = RunStats::new(vec![
            StealStats {
                steal_attempts: 2,
                steals_ok: 1,
                steals_failed: 1,
                sessions: 1,
                ..StealStats::default()
            },
            StealStats::default(),
        ]);
        trace.reconcile(&stats).unwrap();
    }

    #[test]
    fn reconcile_rejects_mismatch() {
        let trace = SpanTrace::from_shard_logs(1, vec![attempt(0, 1, 0, 10, true)]);
        let stats = RunStats::new(vec![StealStats {
            steal_attempts: 2, // trace only has 1
            steals_ok: 1,
            steals_failed: 1,
            ..StealStats::default()
        }]);
        // Two counters are off; the first in counter order is named.
        assert_eq!(
            trace.reconcile(&stats).unwrap_err(),
            "rank 0: steal_attempts counter 2 != 1 matching spans"
        );
    }

    #[test]
    fn reconcile_reports_the_lowest_rank_first() {
        let mut log = attempt(0, 1, 0, 10, true);
        log.extend(attempt(1, 0, 0, 10, false));
        let trace = SpanTrace::from_shard_logs(2, vec![log]);
        let stats = RunStats::new(vec![
            StealStats {
                steal_attempts: 1,
                steals_ok: 1,
                sessions: 3, // no SessionEnd span
                ..StealStats::default()
            },
            StealStats::default(), // misses rank 1's attempt altogether
        ]);
        assert_eq!(
            trace.reconcile(&stats).unwrap_err(),
            "rank 0: sessions counter 3 != 0 matching spans"
        );
    }

    #[test]
    fn reconcile_rejects_a_span_of_a_rank_without_counters() {
        let trace = SpanTrace::from_shard_logs(
            6,
            vec![vec![rec(40, 5, SpanKind::SessionEnd { dur_ns: 40 })]],
        );
        let stats = RunStats::new(vec![StealStats::default(), StealStats::default()]);
        assert_eq!(
            trace.reconcile(&stats).unwrap_err(),
            "rank 5: SessionEnd { dur_ns: 40 } span but the counters cover 2 ranks"
        );
    }

    #[test]
    fn histograms_pick_up_rtt_backoff_sessions() {
        let mut recs = attempt(0, 1, 0, 10, true);
        recs.push(SpanRecord {
            at_ns: 400,
            rank: 0,
            trace: trace_id(0, 1),
            kind: SpanKind::StealTimeout {
                victim: 1,
                backoff_doublings: 2,
            },
        });
        recs.push(SpanRecord {
            at_ns: 600,
            rank: 0,
            trace: 0,
            kind: SpanKind::SessionEnd { dur_ns: 590 },
        });
        let h = SpanTrace::from_shard_logs(1, vec![recs]).histograms();
        assert_eq!(h.steal_rtt_ns.count(), 1);
        assert_eq!(h.steal_rtt_ns.max(), 100);
        assert_eq!(h.backoff_doublings.count(), 1);
        assert_eq!(h.backoff_doublings.max(), 2);
        assert_eq!(h.session_ns.count(), 1);
        assert_eq!(h.msg_delivery_ns.count(), 0);
    }
}
