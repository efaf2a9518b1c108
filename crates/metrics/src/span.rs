//! Causal spans for the steal protocol.
//!
//! Every steal attempt gets a **trace ID** minted by the thief and
//! reconstructible by the victim from the wire fields it already
//! receives, so a single attempt's request → service → reply →
//! (timeout → retransmit → ack) chain can be stitched back together
//! across ranks without widening any message. Token-ring and
//! termination events ride the same record stream so a post-mortem can
//! interleave protocol recovery with steal traffic.
//!
//! The paper can only be reproduced if observation is free. Spans are
//! recorded where the order already is: the engine keeps one log per
//! shard beside its activity and network traces, a span site is one
//! branch when the log is detached, and no timer, message or RNG draw
//! depends on it, so the simulated event schedule is bit-for-bit
//! identical with spans on or off. A shard dispatches in `(time, rank)`
//! order, so [`SpanTrace::from_shard_logs`] takes the logs by move and
//! its sort finds them (all but) sorted already.
//!
//! Spans are emitted at exactly the sites where the scheduler bumps
//! its [`StealStats`](crate::StealStats) counters, which is what makes
//! [`SpanTrace::reconcile`] an exact (not statistical) cross-check.

use crate::histogram::LatencyHistograms;
use crate::trace::merge_shard_logs;

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
    /// Victim received (and serviced) a steal request from `thief`.
    StealRequestRecv {
        /// Rank that asked for work.
        thief: usize,
    },
    /// Victim sent its reply carrying `nodes` tree nodes (0 = refusal).
    StealReplySent {
        /// Rank the reply goes back to.
        thief: usize,
        /// Tree nodes in the reply; 0 for an empty-handed refusal.
        nodes: u64,
    },
    /// Victim-side service accounting for one request: how long the
    /// request sat in the victim's pending queue before being handled
    /// (`queue_ns`, zero when the victim was idle and handled it
    /// immediately) and how much victim-side CPU debt delays the
    /// reply's departure past the handling instant (`depart_delay_ns`).
    /// Recorded at the same instant as the matching
    /// [`StealReplySent`](Self::StealReplySent), so the reply actually
    /// leaves at `at_ns + depart_delay_ns` — the missing ingredient for
    /// attributing queue-at-victim time on the critical path.
    StealServiced {
        /// Rank that asked for work.
        thief: usize,
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

/// All spans of one run, merged across ranks.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    records: Vec<SpanRecord>,
    n_ranks: usize,
}

impl SpanTrace {
    /// Build from the engine's per-shard logs over `n_ranks` ranks.
    /// Each rank's records must sit in one log, in the order the rank
    /// wrote them; the stable sort keeps that order among records with
    /// equal `(at_ns, rank)`. A log in dispatch order is one sorted run
    /// (the sort is then a linear pass, and a lone log is never
    /// copied), but nothing here depends on it.
    pub fn from_shard_logs(n_ranks: usize, logs: Vec<Vec<SpanRecord>>) -> Self {
        Self {
            records: merge_shard_logs(logs, |r| (r.at_ns, r.rank)),
            n_ranks,
        }
    }

    /// All records, time-ordered (ties broken by rank).
    pub fn records(&self) -> &[SpanRecord] {
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
    /// tracer and the counters disagree about what happened — a bug.
    ///
    /// [`StealStats`]: crate::StealStats
    pub fn reconcile(&self, stats: &crate::RunStats) -> Result<(), String> {
        // One pass over the records; a row's columns follow `checks`.
        let mut seen = vec![[0u64; 8]; stats.per_rank.len()];
        for r in &self.records {
            let Some(row) = seen.get_mut(r.rank) else {
                continue;
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
        assert!(SpanTrace::from_shard_logs(3, vec![]).records().is_empty());
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
