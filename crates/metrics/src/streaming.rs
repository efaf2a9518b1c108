//! The periodic snapshot stream: a run's vital signs at window
//! barriers, one JSONL line each, consumed live by `dws run --live` and
//! replayed by `dws top`.
//!
//! Each snapshot carries the occupancy fold's current and peak worker
//! counts: the engine feeds [`OnlineAccounting`](crate::OnlineAccounting)
//! at every window barrier. Folding there is legal because the windowed
//! engine partitions simulated time: every transition recorded after a
//! barrier carries a timestamp no earlier than any recorded before it,
//! so each fold consumes a complete, final segment of the global
//! timeline.
//!
//! Delivery-latency histograms and the per-pair traffic matrix are
//! already maintained incrementally at send time by the network layer's
//! `NetTrace` (commutative merge across shards); this module does not
//! duplicate them.

use crate::export::JsonValue;

/// Schema version stamped on every snapshot JSONL line (the bench
/// record schema and the snapshot stream move together).
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 3;

/// Per-shard slice of one [`Snapshot`]: window progress and the
/// busy/barrier-wait split of that shard's driver thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnap {
    /// Shard index.
    pub shard: u32,
    /// Local simulated time the shard has reached, in nanoseconds.
    pub now_ns: u64,
    /// Lookahead windows executed so far.
    pub windows: u64,
    /// Events processed so far.
    pub events: u64,
    /// Events waiting for the shard: its event queue plus cross-shard
    /// deliveries still in the exchange cells, so the value is a
    /// function of the schedule, not of thread timing.
    pub queue_depth: u64,
    /// Wall-clock nanoseconds spent executing windows.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds spent waiting at the window barrier.
    pub wait_ns: u64,
}

impl ShardSnap {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("shard", self.shard.into()),
            ("now_ns", self.now_ns.into()),
            ("windows", self.windows.into()),
            ("events", self.events.into()),
            ("queue_depth", self.queue_depth.into()),
            ("busy_ns", self.busy_ns.into()),
            ("wait_ns", self.wait_ns.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("shard snapshot missing {k}"))
        };
        Ok(Self {
            shard: field("shard")? as u32,
            now_ns: field("now_ns")?,
            windows: field("windows")?,
            events: field("events")?,
            queue_depth: field("queue_depth")?,
            busy_ns: field("busy_ns")?,
            wait_ns: field("wait_ns")?,
        })
    }
}

/// One line of the snapshot JSONL stream: the run's vital signs at a
/// window barrier. Consumed live by `dws run --live` and replayed by
/// `dws top <snapshots.jsonl>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot schema version ([`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Sequence number within the run, starting at 0.
    pub seq: u64,
    /// Ranks in the simulation (the occupancy denominator).
    pub n_ranks: u32,
    /// Wall-clock milliseconds since the run started.
    pub wall_ms: u64,
    /// Simulated time reached, in nanoseconds.
    pub sim_ns: u64,
    /// Events processed so far, summed over shards.
    pub events: u64,
    /// Event throughput since the previous snapshot, events/second of
    /// wall time (0 when no wall time elapsed).
    pub events_per_sec: f64,
    /// Events waiting across all shards (queues plus exchange cells).
    pub queue_depth: u64,
    /// Ready work units (chunks) across all ranks.
    pub ready_chunks: u64,
    /// Successful steals so far, summed over ranks.
    pub steals_ok: u64,
    /// Empty-handed steal replies so far, summed over ranks.
    pub steals_empty: u64,
    /// Quarantine entries recorded by the adaptive overlay so far,
    /// summed over ranks.
    pub quarantined: u64,
    /// Active workers at the last fold.
    pub active_workers: u32,
    /// Peak simultaneous workers so far.
    pub w_max: u32,
    /// Per-shard progress rows.
    pub shards: Vec<ShardSnap>,
}

impl Snapshot {
    /// Steal success rate so far, in `[0, 1]` (0 when no replies yet).
    pub fn steal_success_rate(&self) -> f64 {
        let total = self.steals_ok + self.steals_empty;
        if total == 0 {
            0.0
        } else {
            self.steals_ok as f64 / total as f64
        }
    }

    /// The JSON tree of this snapshot (one JSONL line when printed).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", self.schema.into()),
            ("seq", self.seq.into()),
            ("n_ranks", self.n_ranks.into()),
            ("wall_ms", self.wall_ms.into()),
            ("sim_ns", self.sim_ns.into()),
            ("events", self.events.into()),
            ("events_per_sec", self.events_per_sec.into()),
            ("queue_depth", self.queue_depth.into()),
            ("ready_chunks", self.ready_chunks.into()),
            ("steals_ok", self.steals_ok.into()),
            ("steals_empty", self.steals_empty.into()),
            ("steal_success_rate", self.steal_success_rate().into()),
            ("quarantined", self.quarantined.into()),
            ("active_workers", self.active_workers.into()),
            ("w_max", self.w_max.into()),
            (
                "shards",
                JsonValue::Arr(self.shards.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }

    /// Parse one snapshot back from its JSON tree (the `dws top`
    /// replay and the CI stream validator).
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("snapshot missing {k}"))
        };
        let schema = field("schema")?;
        if schema > SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema {schema} is newer than supported {SNAPSHOT_SCHEMA_VERSION}"
            ));
        }
        let shards = v
            .get("shards")
            .and_then(|s| s.as_arr())
            .ok_or("snapshot missing shards")?
            .iter()
            .map(ShardSnap::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema,
            seq: field("seq")?,
            n_ranks: field("n_ranks")? as u32,
            wall_ms: field("wall_ms")?,
            sim_ns: field("sim_ns")?,
            events: field("events")?,
            events_per_sec: v
                .get("events_per_sec")
                .and_then(|x| x.as_num())
                .ok_or("snapshot missing events_per_sec")?,
            queue_depth: field("queue_depth")?,
            ready_chunks: field("ready_chunks")?,
            steals_ok: field("steals_ok")?,
            steals_empty: field("steals_empty")?,
            quarantined: field("quarantined")?,
            active_workers: field("active_workers")? as u32,
            w_max: field("w_max")? as u32,
            shards,
        })
    }

    /// One-line terminal rendering for the `--live` progress view.
    pub fn progress_line(&self) -> String {
        format!(
            "sim {:.3} ms | ev {} ({:.2} M/s) | q {} | occ {}/{} (peak {}) | steals {} ok / {} empty ({:.0}%) | quarantined {}",
            self.sim_ns as f64 / 1e6,
            self.events,
            self.events_per_sec / 1e6,
            self.queue_depth,
            self.active_workers,
            self.n_ranks.max(1),
            self.w_max,
            self.steals_ok,
            self.steals_empty,
            self.steal_success_rate() * 100.0,
            self.quarantined,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            seq: 3,
            n_ranks: 32,
            wall_ms: 1500,
            sim_ns: 2_000_000,
            events: 123_456,
            events_per_sec: 2.5e6,
            queue_depth: 42,
            ready_chunks: 17,
            steals_ok: 900,
            steals_empty: 100,
            quarantined: 2,
            active_workers: 30,
            w_max: 32,
            shards: vec![
                ShardSnap {
                    shard: 0,
                    now_ns: 2_000_000,
                    windows: 50,
                    events: 70_000,
                    queue_depth: 20,
                    busy_ns: 5_000,
                    wait_ns: 100,
                },
                ShardSnap {
                    shard: 1,
                    now_ns: 1_900_000,
                    windows: 50,
                    events: 53_456,
                    queue_depth: 22,
                    busy_ns: 4_000,
                    wait_ns: 1_100,
                },
            ],
        };
        let line = snap.to_json().to_string();
        let back = Snapshot::from_json(&crate::export::parse(&line).expect("parses"))
            .expect("valid snapshot");
        assert_eq!(back, snap);
        assert!((snap.steal_success_rate() - 0.9).abs() < 1e-12);
        assert!(snap.progress_line().contains("steals 900 ok"));
    }

    #[test]
    fn snapshot_parse_rejects_malformed_lines() {
        let v = crate::export::parse("{\"schema\":3,\"seq\":0}").expect("valid json");
        assert!(Snapshot::from_json(&v).is_err());
        let v = crate::export::parse("{\"schema\":99}").expect("valid json");
        assert!(Snapshot::from_json(&v)
            .unwrap_err()
            .contains("newer than supported"));
    }
}
