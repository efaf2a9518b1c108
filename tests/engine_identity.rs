//! Engine schedule pins: the simulated outcome of a starved
//! steal-storm run is the contract every engine-side optimisation must
//! keep to the nanosecond.
//!
//! The literals below were recorded at the commit before the engine's
//! per-pair FIFO state was bounded (PR 13), with `engine.rs` untouched,
//! so they are the parent's schedule rather than this code checked
//! against itself. The bit-identity matrix proper lives in
//! `crates/core/tests` and runs only under `--workspace`; this slice is
//! what the root `cargo test -q` sees.

use dws::core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
use dws::metrics::perflab::fingerprint;
use dws::simnet::FaultPlan;
use dws::topology::AllocationPolicy;
use dws::uts::presets;

/// The `steal_storm` shape at test size: T3SIM-S starves 64
/// torus-filled ranks, so most traffic is failed steal round trips
/// between ever-new (thief, victim) pairs.
fn storm(fault_plan: FaultPlan, threads: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_s(), 64)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.alloc = AllocationPolicy::TorusFill;
    cfg.collect_trace = false;
    cfg.fault_plan = fault_plan;
    cfg.threads = threads;
    cfg
}

/// Everything pinned about one run, as one comparable line.
fn identity(cfg: &ExperimentConfig) -> String {
    let r = run_experiment(cfg);
    assert!(r.completed, "the pinned run must terminate");
    let stats: String = r.stats.per_rank.iter().map(|s| format!("{s:?}")).collect();
    let (dropped, duplicated) = r
        .fault
        .as_ref()
        .map_or((0, 0), |f| (f.stats.dropped, f.stats.duplicated));
    format!(
        "makespan_ns={} window_plan={:016x}/{} events={} delivered={} \
         dropped={} duplicated={} nodes={} stats={}",
        r.makespan.ns(),
        r.window_plan.0,
        r.window_plan.1,
        r.report.events,
        r.report.messages,
        dropped,
        duplicated,
        r.total_nodes,
        fingerprint(&stats),
    )
}

#[test]
fn starved_storm_schedule_is_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            identity(&storm(FaultPlan::default(), threads)),
            "makespan_ns=4190655 window_plan=17f6dc8c63e41890/2663 events=29097 delivered=15891 \
             dropped=0 duplicated=0 nodes=22235 stats=58a93fcc5dcd22da",
            "clean storm diverged from the recorded schedule at {threads} thread(s)"
        );
    }
}

#[test]
fn lossy_duplicating_storm_schedule_is_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            identity(&storm(FaultPlan::message_faults(0.01, 0.01, 0.0), threads)),
            "makespan_ns=14045868 window_plan=e6ccc8edf5df299a/2952 events=37999 delivered=16563 \
             dropped=145 duplicated=171 nodes=22235 stats=e113ff432e50dc5b",
            "1% drop + duplicate storm diverged from the recorded schedule at {threads} thread(s)"
        );
    }
}

// ---------------------------------------------------------------------
// Raw-engine pins (PR 14): what the engine's former per-event serial
// loop produced for an unconfigured simulation, recorded at the parent
// commit with `engine.rs` untouched and driven through the public
// `dws::simnet` API only.
// ---------------------------------------------------------------------

use dws::simnet::{
    Actor, ConstantLatency, Ctx, ParallelConfig, Rank, RunReport, SimConfig, SimTime, Simulation,
};

const GOSSIP_RANKS: u32 = 12;
/// Flat latency of the gossip fleet, which is also its lookahead.
const GOSSIP_LATENCY_NS: u64 = 1_000;
/// Token of the quiet poll timer; plain timers count 1, 2, 3, 4.
const QUIET: u64 = 100;

/// Messages, plain and quiet timers and per-rank RNG draws, timestamped
/// on the skewed local clock. The quiet timer keeps its promise: its
/// handler only sends when a delivery arrived since it was armed, and
/// re-arms no earlier than its quiet span.
struct Gossip {
    heard: bool,
    got: Vec<(Rank, u64, u64)>,
    fired: Vec<(u64, u64)>,
}

impl Gossip {
    fn fleet() -> Vec<Gossip> {
        (0..GOSSIP_RANKS)
            .map(|_| Gossip {
                heard: false,
                got: vec![],
                fired: vec![],
            })
            .collect()
    }

    fn peer(ctx: &mut Ctx<'_, u64>) -> Rank {
        let to = ctx.rng().next_below(u64::from(GOSSIP_RANKS) - 1) as Rank;
        to + u32::from(to >= ctx.me())
    }
}

impl Actor for Gossip {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.me();
        ctx.send((me + 1) % GOSSIP_RANKS, 64, 6);
        ctx.set_timer(500 + 37 * u64::from(me), 1);
        ctx.set_timer_quiet(900 + 11 * u64::from(me), QUIET, 400);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: Rank, msg: u64) {
        self.heard = true;
        self.got.push((from, msg, ctx.local_now().ns()));
        if msg > 0 {
            let to = Self::peer(ctx);
            let delay_ns = match msg % 3 {
                0 => ctx.rng().next_below(500),
                _ => 0,
            };
            ctx.send_delayed(to, 32 + 8 * msg as usize, delay_ns, msg - 1);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
        self.fired.push((token, ctx.local_now().ns()));
        if token == QUIET {
            if std::mem::take(&mut self.heard) {
                let to = Self::peer(ctx);
                ctx.send(to, 16, 1);
            }
            if ctx.now().ns() < 8_000 {
                ctx.set_timer_quiet(400, QUIET, 400);
            }
        } else if token < 4 {
            let to = Self::peer(ctx);
            ctx.send(to, 16, 2);
            ctx.set_timer(700, token + 1);
        }
    }
}

/// `(shards, threads)` of a configured gossip run; `None` leaves the
/// simulation unconfigured.
type Layout = Option<(u32, u32)>;

/// One gossip run as `(pinned line, window plan)`: uninterrupted
/// through `run_parallel`, or stepped through `run_with_limits` every
/// `pause_every_ns` until the queue drains.
fn gossip(fault: FaultPlan, layout: Layout, pause_every_ns: Option<u64>) -> (String, (u64, u64)) {
    let cfg = SimConfig {
        seed: 0xD15_7EA1,
        latency_jitter: 0.3,
        clock_skew_max_ns: 2_000,
        fault,
    };
    let mut sim = Simulation::new(Gossip::fleet(), ConstantLatency(GOSSIP_LATENCY_NS), cfg);
    if let Some((shards, threads)) = layout {
        let map = (0..GOSSIP_RANKS).map(|r| r * shards / GOSSIP_RANKS);
        sim.configure_parallel(
            ParallelConfig::new(threads, GOSSIP_LATENCY_NS).with_shard_map(map.collect()),
        );
    }
    let report: RunReport = match pause_every_ns {
        None => sim.run_parallel(),
        Some(step) => {
            let mut until = step;
            loop {
                let r = sim.run_with_limits(Some(SimTime(until)), None);
                if !r.halted {
                    break r;
                }
                until += step;
            }
        }
    };
    let lists: String = sim
        .actors()
        .iter()
        .map(|a| format!("{:?}{:?}", a.got, a.fired))
        .collect();
    let line = format!(
        "{report:?} sent={} {:?} lists={}",
        sim.messages_sent(),
        sim.fault_stats(),
        fingerprint(&lists)
    );
    (line, sim.window_plan())
}

/// The unconfigured run must reproduce `pinned`, and every configured
/// layout must reproduce the unconfigured run, uninterrupted and
/// paused every 700 ns; configured layouts also share one window plan
/// per drive mode.
fn assert_gossip_pinned(fault: FaultPlan, pinned: &str) {
    for pause in [None, Some(700)] {
        let (legacy, _) = gossip(fault.clone(), None, pause);
        assert_eq!(legacy, pinned, "unconfigured run, pause {pause:?}");
        let mut plan = None;
        for layout in [(1, 1), (4, 1), (4, 2), (4, 3)] {
            let (line, p) = gossip(fault.clone(), Some(layout), pause);
            assert_eq!(line, pinned, "layout {layout:?}, pause {pause:?}");
            assert!(p.1 > 1, "a bounded lookahead plans many windows");
            assert_eq!(
                *plan.get_or_insert(p),
                p,
                "layout {layout:?}, pause {pause:?}"
            );
        }
    }
}

#[test]
fn raw_engine_fleet_is_pinned_to_the_serial_loop_across_layouts() {
    assert_gossip_pinned(
        FaultPlan::default(),
        "RunReport { end_time: SimTime(10773), events: 840, messages: 564, timers: 276, halted: false } \
         sent=564 FaultStats { dropped: 0, duplicated: 0, spiked: 0, brownout_drops: 0, \
         partition_drops: 0, crash_lost_deliveries: 0, crash_lost_timers: 0 } \
         lists=017c4b51985127e1",
    );
}

#[test]
fn raw_engine_fleet_under_message_faults_is_pinned_to_the_serial_loop_across_layouts() {
    assert_gossip_pinned(
        FaultPlan::message_faults(0.1, 0.1, 0.1),
        "RunReport { end_time: SimTime(1481213), events: 734, messages: 458, timers: 276, halted: false } \
         sent=462 FaultStats { dropped: 46, duplicated: 42, spiked: 46, brownout_drops: 0, \
         partition_drops: 0, crash_lost_deliveries: 0, crash_lost_timers: 0 } \
         lists=46e9d4b668649bfb",
    );
}
