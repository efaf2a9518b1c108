//! Emergency-stop plumbing for streaming runs: the SIGTERM flag, the
//! panic-hook flight-recorder registry, and the dump writer.
//!
//! A long full-scale run that dies — panic, wall/RSS budget overrun, or
//! an external SIGTERM — should leave behind more than a truncated CSV.
//! The engine keeps a fixed-size [`FlightRecorder`] ring per shard (the
//! last K canonical events); this module turns those rings into a JSONL
//! *flight dump* on the way down:
//!
//! - on a **panic**, a process-wide hook walks a registry of weakly
//!   held rings and dumps whatever it can still reach (torn reads are
//!   tolerated by the ring's decoder);
//! - on a **budget overrun or SIGTERM**, the engine notices at the next
//!   window barrier and dumps synchronously, together with a final
//!   [`Snapshot`], before returning.
//!
//! Everything here only ever *reads* simulation state; installing the
//! hooks cannot perturb the event schedule.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, Weak};

use dws_metrics::{JsonValue, Snapshot};

use crate::observer::{EventKind, EventRecord, FlightRecorder};

static SIGTERM_GEN: AtomicU64 = AtomicU64::new(0);

/// True once the process received SIGTERM after
/// [`install_sigterm_hook`] ran. The engine polls the generation
/// counter at window barriers and converts it into an orderly
/// abort-with-dump.
pub fn sigterm_requested() -> bool {
    SIGTERM_GEN.load(Ordering::Relaxed) > 0
}

/// Monotonic count of SIGTERMs seen so far. A run captures this at
/// start and aborts only when it grows, so a signal consumed by an
/// earlier run (or a test's [`simulate_sigterm`]) does not poison
/// later runs in the same process.
pub fn sigterm_generation() -> u64 {
    SIGTERM_GEN.load(Ordering::Relaxed)
}

/// Test hook: pretend a SIGTERM arrived.
pub fn simulate_sigterm() {
    SIGTERM_GEN.fetch_add(1, Ordering::Relaxed);
}

/// Install a SIGTERM handler that only sets an atomic flag (the one
/// async-signal-safe thing worth doing); no-op off Unix or on repeat
/// calls. The engine turns the flag into an abort at the next barrier.
pub fn install_sigterm_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        #[cfg(unix)]
        unsafe {
            extern "C" fn on_sigterm(_signum: i32) {
                SIGTERM_GEN.fetch_add(1, Ordering::Relaxed);
            }
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            // SIGTERM is 15 on every Unix this builds for.
            signal(15, on_sigterm as *const () as usize);
        }
    });
}

struct DumpTarget {
    path: PathBuf,
    rings: Vec<Weak<FlightRecorder>>,
}

static REGISTRY: Mutex<Vec<DumpTarget>> = Mutex::new(Vec::new());

/// Register `rings` for a best-effort flight dump to `path` should the
/// process panic. Rings are held weakly: once the owning simulation is
/// dropped the entry goes inert, and the next registration removes it.
/// The first call installs the panic hook (chaining to the previous
/// one).
pub fn register_panic_dump(path: &Path, rings: &[Arc<FlightRecorder>]) {
    register(
        &mut REGISTRY.lock().expect("flight registry poisoned"),
        path,
        rings,
    );
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_registered("panic");
            prev(info);
        }));
    });
}

/// Drop the targets whose rings are all gone, then add `rings`.
fn register(targets: &mut Vec<DumpTarget>, path: &Path, rings: &[Arc<FlightRecorder>]) {
    targets.retain(|t| t.rings.iter().any(|r| r.strong_count() > 0));
    targets.push(DumpTarget {
        path: path.to_path_buf(),
        rings: rings.iter().map(Arc::downgrade).collect(),
    });
}

/// Dump every still-live registered target (the panic path).
fn dump_registered(reason: &str) {
    let targets = match REGISTRY.lock() {
        Ok(t) => t,
        Err(_) => return, // don't panic inside the panic hook
    };
    for target in targets.iter() {
        let rings: Vec<Arc<FlightRecorder>> =
            target.rings.iter().filter_map(Weak::upgrade).collect();
        if rings.is_empty() {
            continue; // owning simulation already gone
        }
        let _ = write_flight_dump(&target.path, reason, &rings, None);
    }
}

/// Write a flight dump: a header line, the final [`Snapshot`] when one
/// is available, then every retained ring event as one JSONL line.
pub fn write_flight_dump(
    path: &Path,
    reason: &str,
    rings: &[Arc<FlightRecorder>],
    snapshot: Option<&Snapshot>,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let total: u64 = rings.iter().map(|r| r.total_recorded()).sum();
    let header = JsonValue::obj(vec![
        ("kind", "flight_dump".into()),
        ("schema", dws_metrics::SNAPSHOT_SCHEMA_VERSION.into()),
        ("reason", reason.into()),
        ("shards", rings.len().into()),
        ("events_recorded", total.into()),
    ]);
    writeln!(out, "{header}")?;
    if let Some(snap) = snapshot {
        writeln!(out, "{}", snap.to_json())?;
    }
    for (shard, ring) in rings.iter().enumerate() {
        for rec in ring.dump() {
            writeln!(out, "{}", record_json(shard as u32, &rec))?;
        }
    }
    out.flush()
}

/// One retained engine event as a JSON object (flight-dump line).
fn record_json(shard: u32, rec: &EventRecord) -> JsonValue {
    let at = rec.at.ns();
    let base = |kind: &str, rest: Vec<(&str, JsonValue)>| {
        let mut fields: Vec<(&str, JsonValue)> = vec![
            ("shard", shard.into()),
            ("at_ns", at.into()),
            ("kind", kind.into()),
        ];
        fields.extend(rest);
        JsonValue::obj(fields)
    };
    match rec.kind {
        EventKind::Sent {
            from,
            to,
            bytes,
            deliver_at,
        } => base(
            "sent",
            vec![
                ("from", from.into()),
                ("to", to.into()),
                ("bytes", bytes.into()),
                ("deliver_at_ns", deliver_at.ns().into()),
            ],
        ),
        EventKind::Delivered { from, to } => {
            base("delivered", vec![("from", from.into()), ("to", to.into())])
        }
        EventKind::Timer { rank, token } => base(
            "timer",
            vec![("rank", rank.into()), ("token", token.into())],
        ),
        EventKind::Dropped { from, to, brownout } => base(
            "dropped",
            vec![
                ("from", from.into()),
                ("to", to.into()),
                ("brownout", brownout.into()),
            ],
        ),
        EventKind::Partitioned { from, to } => base(
            "partitioned",
            vec![("from", from.into()), ("to", to.into())],
        ),
        EventKind::Duplicated { from, to } => {
            base("duplicated", vec![("from", from.into()), ("to", to.into())])
        }
        EventKind::Delayed { from, to, spike_ns } => base(
            "delayed",
            vec![
                ("from", from.into()),
                ("to", to.into()),
                ("spike_ns", spike_ns.into()),
            ],
        ),
        EventKind::CrashLost { rank, timer } => base(
            "crash_lost",
            vec![("rank", rank.into()), ("timer", timer.into())],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn dump_writes_header_snapshot_and_events() {
        let ring = Arc::new(FlightRecorder::new(8));
        ring.record(&EventRecord {
            at: SimTime(5),
            kind: EventKind::Delivered { from: 1, to: 2 },
        });
        ring.record(&EventRecord {
            at: SimTime(9),
            kind: EventKind::Timer { rank: 3, token: 7 },
        });
        let dir = std::env::temp_dir().join("dws_flight_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        write_flight_dump(&path, "unit_test", &[Arc::clone(&ring)], None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = dws_metrics::export::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("kind").and_then(|v| v.as_str()),
            Some("flight_dump")
        );
        assert_eq!(
            header.get("reason").and_then(|v| v.as_str()),
            Some("unit_test")
        );
        assert_eq!(
            header.get("events_recorded").and_then(|v| v.as_u64()),
            Some(2)
        );
        let ev = dws_metrics::export::parse(lines[1]).unwrap();
        assert_eq!(ev.get("kind").and_then(|v| v.as_str()), Some("delivered"));
        assert_eq!(ev.get("at_ns").and_then(|v| v.as_u64()), Some(5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn registering_drops_the_targets_of_dead_rings() {
        let mut targets = Vec::new();
        let path = Path::new("unused.jsonl");
        let old = vec![Arc::new(FlightRecorder::new(4))];
        register(&mut targets, path, &old);
        drop(old);
        let live = vec![Arc::new(FlightRecorder::new(4))];
        register(&mut targets, path, &live);
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].rings[0].strong_count(), 1);
    }

    #[test]
    fn simulated_sigterm_bumps_the_generation() {
        let before = sigterm_generation();
        simulate_sigterm();
        assert!(sigterm_generation() > before);
        assert!(sigterm_requested());
    }
}
