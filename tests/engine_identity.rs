//! Engine schedule pins: the simulated outcome of a starved
//! steal-storm run is the contract every engine-side optimisation must
//! keep to the nanosecond.
//!
//! The literals below were recorded at the commit before the engine's
//! per-pair FIFO state was bounded (PR 13), with `engine.rs` untouched,
//! so they are the parent's schedule rather than this code checked
//! against itself. Only the two `window_plan` pairs are younger: they
//! were re-recorded at the commit before the quiet-timer planner was
//! deleted (PR 16), again with `engine.rs` untouched and the scheduler
//! arming plain timers, so they are that engine's `min_next +
//! lookahead` plan — and once more, in that field alone and from the
//! new code, when the lookahead became the locality cut's (PR 22): the
//! storm's 64 torus-filled nodes are cut along 16 blades, so its
//! windows are 1,700 ns wide where they were 1,400. Every other field
//! of every literal is as first recorded; the other pins run on 8 nodes
//! (node cut, 1,400 ns) and did not move. The rack-cut pin at the end
//! of the storm block is new with that PR and recorded from it: what it
//! holds is that threads 1, 2 and 3 agree. The three span-collecting
//! lines were recorded at
//! the commit before the calendar queue was deleted (PR 19), with
//! `crates/` untouched and the calendar as the engine's queue, so they
//! are the calendar's schedule and hold the `BinaryHeap` that replaced
//! it to account. A fourth, in the benchmark's `observed_faulty` shape,
//! was recorded at the commit before spans moved from per-rank buffers
//! into the engine's per-shard log (PR 21), with `crates/` untouched.
//! A fifth, a skewed faulty run's activity trace and everything read
//! from it, was recorded at the commit before the `Worker`'s own trace
//! and the sorted sweep were deleted (PR 26), again with `crates/`
//! untouched. When the clock-skew model was deleted, the two
//! runs that set a skew lost it and the gossip fleet's timestamps moved
//! to the global clock, in one commit with `crates/` untouched: only
//! those pins' `json=` (the config's skew key) and `lists=` parts were
//! re-recorded. The bit-identity matrix proper lives in
//! `crates/core/tests` and runs only under `--workspace`; this slice
//! (its faulty thread-count check included) is what the root
//! `cargo test -q` sees.

mod common;

use common::five_record_form;
use dws::core::{
    run_experiment, ExperimentConfig, ExperimentResult, FaultToleranceCfg, StealAmount,
    VictimPolicy,
};
use dws::metrics::lifestory;
use dws::metrics::perflab::fingerprint;
use dws::simnet::{Crash, FaultPlan, Partition};
use dws::topology::{AllocationPolicy, CutClass, RankMapping};
use dws::uts::{presets, TreeSpec, Workload};

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

/// Everything pinned about one run, as one comparable line. A run that
/// collected spans also pins its serialized report, its span records
/// and its fault ledger.
fn identity(cfg: &ExperimentConfig) -> String {
    identity_of(&run_experiment(cfg))
}

fn identity_of(r: &ExperimentResult) -> String {
    assert!(r.completed, "the pinned run must terminate");
    let stats: String = r.stats.per_rank.iter().map(|s| format!("{s:?}")).collect();
    let (dropped, duplicated) = r
        .fault
        .as_ref()
        .map_or((0, 0), |f| (f.stats.dropped, f.stats.duplicated));
    let mut line = format!(
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
    );
    if let Some(spans) = &r.spans {
        let ledger = r
            .fault
            .as_ref()
            .map(|f| (f.stats, &f.crashed_ranks, f.lost_subtree_nodes));
        line += &format!(
            " json={} spans={} fault={ledger:?}",
            fingerprint(&r.json_report().to_string()),
            fingerprint(&five_record_form(spans.records()).1),
        );
    }
    line
}

#[test]
fn starved_storm_schedule_is_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            identity(&storm(FaultPlan::default(), threads)),
            "makespan_ns=4190655 window_plan=bcb1954881fe07fb/2261 events=29097 delivered=15891 \
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
            "makespan_ns=14045868 window_plan=53bd64f3144587fa/2488 events=37999 delivered=16563 \
             dropped=145 duplicated=171 nodes=22235 stats=e113ff432e50dc5b",
            "1% drop + duplicate storm diverged from the recorded schedule at {threads} thread(s)"
        );
    }
}

/// The storm on 1,024 torus-filled nodes (4×4×8 cubes, 16 racks) is
/// cut along racks, so this is tier-1's run at the widest window,
/// 8,400 ns: one schedule and one plan whether the 16 racks sit on one
/// shard or on sixteen.
#[test]
fn rack_cut_storm_is_pinned_at_one_two_and_three_threads() {
    for threads in [1, 2, 3] {
        let mut cfg = storm(FaultPlan::default(), threads);
        cfg.n_nodes = 1024;
        let r = run_experiment(&cfg);
        assert_eq!(
            (r.cut.class, r.cut.units, r.cut.lookahead_ns),
            (CutClass::Rack, 16, 8_400)
        );
        assert_eq!(r.cut.shards, if threads == 1 { 1 } else { 16 });
        assert_eq!(
            identity_of(&r),
            "makespan_ns=17430170 window_plan=e147ad77d4ad7367/2069 events=905433 \
             delivered=602005 dropped=0 duplicated=0 nodes=22235 stats=d5f7558574cf8149",
            "rack-cut storm diverged from the recorded schedule at {threads} thread(s)"
        );
    }
}

/// Plan purity, the tier-1 slice of `crates/core/tests`'
/// `window_plan_is_identical_across_thread_counts`: on 32 ranks the
/// window plan, makespan and per-rank stats digest are the same at
/// every thread count, clean and under 1% drop + 1% duplication.
#[test]
fn window_plan_and_schedule_are_pure_across_thread_counts() {
    for seed in [7, 0xBEEF] {
        for plan in [
            FaultPlan::default(),
            FaultPlan::message_faults(0.01, 0.01, 0.0),
        ] {
            let at = |threads| {
                let mut cfg = storm(plan.clone(), threads);
                cfg.n_nodes = 32;
                cfg.seed = seed;
                identity(&cfg)
            };
            let one = at(1);
            for threads in [2, 3] {
                assert_eq!(at(threads), one, "seed {seed}, {threads} threads");
            }
        }
    }
}

/// The faulty slice of the thread matrix in `parallel_determinism.rs`: 5%
/// drop, 2% duplication, 5% spikes and a crash, and one report —
/// occupancy and blame included — at one and three threads.
#[test]
fn faulty_runs_are_identical_across_thread_counts() {
    let mut plan = FaultPlan::message_faults(0.05, 0.02, 0.05);
    plan.crashes.push(Crash {
        rank: 5,
        at_ns: 400_000,
    });
    let at = |threads| {
        let workload = Workload {
            name: "par-det",
            seed: 19,
            ..binomial(1200)
        };
        let mut cfg = ExperimentConfig::new(workload, 8)
            .with_mapping(RankMapping::Grouped { ppn: 2 })
            .with_victim(VictimPolicy::Uniform);
        cfg.fault_plan = plan.clone();
        cfg.collect_spans = true;
        cfg.threads = threads;
        run_experiment(&cfg)
    };
    let baseline = at(1);
    let fr = baseline.fault.as_ref().expect("fault plan was active");
    assert!(
        fr.stats.dropped + fr.stats.spiked + fr.stats.duplicated > 0,
        "faults must actually fire for this test to mean anything"
    );
    assert_eq!(fr.crashed_ranks, vec![5]);
    let report = baseline.json_report();
    assert!(report.get("occupancy").is_some() && report.get("blame").is_some());
    assert_eq!(identity_of(&at(3)), identity_of(&baseline));
}

// ---------------------------------------------------------------------
// Calendar-queue pins (PR 19): the configurations the deleted
// `crates/core/tests/queue_differential.rs` compared queue against
// queue, as the calendar queue ran them.
// ---------------------------------------------------------------------

fn binomial(b0: u32) -> Workload {
    Workload {
        name: "queue-diff",
        spec: TreeSpec::Binomial { b0, m: 2, q: 0.47 },
        seed: 23,
        gen_rounds: 1,
        base_node_ns: 1_000,
    }
}

#[test]
fn jittered_skewed_span_runs_are_pinned_to_the_calendar_queue_at_one_and_four_threads() {
    for (seed, pinned) in [
        (
            3,
            "makespan_ns=2558728 window_plan=2f54bcda8b8a7439/1379 events=5864 delivered=1639 \
             dropped=0 duplicated=0 nodes=13951 stats=4bc77f87fafa422f json=c312a399ac3156ae \
             spans=f6249463c0628b6c fault=None",
        ),
        (
            0xACE,
            "makespan_ns=2529414 window_plan=512905dd911f8cd8/1351 events=5812 delivered=1597 \
             dropped=0 duplicated=0 nodes=13951 stats=58f24845a249a29f json=7e7f1df0ee134b4d \
             spans=700ae337fccd200e fault=None",
        ),
    ] {
        for threads in [1, 4] {
            let mut cfg = ExperimentConfig::new(binomial(900), 8)
                .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 });
            cfg.seed = seed;
            cfg.jitter = 0.2;
            cfg.collect_spans = true;
            cfg.threads = threads;
            assert_eq!(identity(&cfg), pinned, "seed {seed}, {threads} thread(s)");
        }
    }
}

#[test]
fn faulty_crash_run_is_pinned_to_the_calendar_queue_at_one_and_four_threads() {
    let mut plan = FaultPlan::message_faults(0.05, 0.02, 0.05);
    plan.crashes.push(Crash {
        rank: 5,
        at_ns: 400_000,
    });
    for threads in [1, 4] {
        let mut cfg = ExperimentConfig::new(binomial(1200), 8)
            .with_mapping(RankMapping::Grouped { ppn: 2 })
            .with_victim(VictimPolicy::Uniform);
        cfg.fault_plan = plan.clone();
        cfg.collect_spans = true;
        cfg.threads = threads;
        assert_eq!(
            identity(&cfg),
            "makespan_ns=3518586 window_plan=e38a3addf3831abd/1855 events=10866 delivered=3262 \
             dropped=177 duplicated=58 nodes=18789 stats=b1c900c3abf3b5c8 json=4d424c5e67db1f68 \
             spans=e1c40cc2c3ad09c2 fault=Some((FaultStats { dropped: 177, duplicated: 58, \
             spiked: 160, brownout_drops: 0, partition_drops: 0, crash_lost_deliveries: 2, \
             crash_lost_timers: 1 }, [5], 20))",
            "{threads} thread(s)"
        );
    }
}

// ---------------------------------------------------------------------
// Span-spine pin (PR 21): the benchmark's `observed_faulty` shape at
// test size, recorded at the parent commit with `crates/` untouched —
// spans pushed into per-rank buffers, copied out and merged by the
// runner — so it holds the per-shard span log to that stream.
// ---------------------------------------------------------------------

#[test]
fn observed_faulty_span_run_is_pinned_at_one_two_and_four_threads() {
    for threads in [1, 2, 4] {
        let mut cfg = ExperimentConfig::new(presets::t3sim_s(), 8)
            .with_mapping(RankMapping::RoundRobin { ppn: 8 })
            .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
            .with_steal(StealAmount::Half);
        cfg.fault_plan = FaultPlan::message_faults(0.01, 0.0, 0.0);
        cfg.fault_tolerance = Some(FaultToleranceCfg { timeout_mult: 8 });
        cfg.collect_spans = true;
        cfg.threads = threads;
        assert_eq!(
            identity(&cfg),
            "makespan_ns=8131138 window_plan=21ba9864da7c5f11/3541 events=45584 delivered=20170 \
             dropped=180 duplicated=0 nodes=22235 stats=dfd59d89ab6bd425 json=6fd9730bf9823118 \
             spans=6eb6064b69a0853d fault=Some((FaultStats { dropped: 180, duplicated: 0, \
             spiked: 0, brownout_drops: 0, partition_drops: 0, crash_lost_deliveries: 0, \
             crash_lost_timers: 0 }, [], 0))",
            "{threads} thread(s)"
        );
    }
}

// ---------------------------------------------------------------------
// Activity pin (PR 26): a traced run on skewed clocks with drops and a
// crash, recorded at the parent commit with `crates/` untouched — every
// `Worker` pushing its transitions into its own local-clock buffer, the
// runner copying them out and subtracting the skew, and a sorted sweep
// beside the streaming fold building the curve — so it holds the
// engine's per-shard activity log and the one occupancy fold to that
// trace and to everything read from it.
// ---------------------------------------------------------------------

#[test]
fn skewed_faulty_activity_trace_is_pinned_at_one_two_and_four_threads() {
    const CRASH_NS: u64 = 1_000_000;
    let mut plan = FaultPlan::message_faults(0.02, 0.0, 0.0);
    plan.crashes.push(Crash {
        rank: 5,
        at_ns: CRASH_NS,
    });
    for threads in [1, 2, 4] {
        let mut cfg = ExperimentConfig::new(presets::t3sim_s(), 8)
            .with_mapping(RankMapping::RoundRobin { ppn: 4 })
            .with_victim(VictimPolicy::Uniform)
            .with_steal(StealAmount::Half);
        cfg.jitter = 0.2;
        cfg.fault_plan = plan.clone();
        cfg.collect_spans = true;
        cfg.threads = threads;
        let r = run_experiment(&cfg);
        let trace = r.trace.as_ref().expect("trace on by default");
        // Sorted here, so the pin does not depend on harvest order.
        let mut transitions = trace.transitions().to_vec();
        transitions.sort_by_key(|t| (t.at_ns, t.rank));
        let occ = r.occupancy().expect("traced run");
        let mut chrome = Vec::new();
        r.write_chrome_trace(&mut chrome).unwrap();
        let chrome = String::from_utf8(chrome).unwrap();
        let line = format!(
            "{} transitions={}/{} latency={} w_max={} average={:?} recovery={:?} \
             lifestory={} chrome={}",
            identity_of(&r),
            transitions.len(),
            fingerprint(&format!("{transitions:?}")),
            fingerprint(&format!("{:?}", occ.latency_series(100))),
            occ.w_max(),
            occ.average_occupancy(),
            [0.5, 0.75, 0.85].map(|x| occ.recovery_time_ns(CRASH_NS, x)),
            fingerprint(&lifestory::render(trace, r.makespan.ns(), 72, 24)),
            fingerprint(&chrome),
        );
        assert_eq!(
            line,
            "makespan_ns=4887239 window_plan=1beb72d3d3849de2/2104 events=25179 delivered=9910 \
             dropped=195 duplicated=0 nodes=22235 stats=3cdab436d10c8e68 json=5fd9e6778f57b982 \
             spans=0bd6dd98c812f27d fault=Some((FaultStats { dropped: 195, duplicated: 0, \
             spiked: 0, brownout_drops: 0, partition_drops: 0, crash_lost_deliveries: 1, \
             crash_lost_timers: 4 }, [5], 0)) transitions=278/2995101448c62058 \
             latency=eed4925d2fd3f68d w_max=28 average=0.15078992581496423 \
             recovery=[Some(26275), None, None] lifestory=3368c7beb2fc33a5 chrome=f924c7bbefcd2b79",
            "{threads} thread(s)"
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
use std::collections::BTreeSet;

const GOSSIP_RANKS: u32 = 12;
/// Flat latency of the gossip fleet, which is also its lookahead.
const GOSSIP_LATENCY_NS: u64 = 1_000;
/// Token of the poll timer; the other timers count 1, 2, 3, 4.
const QUIET: u64 = 100;

/// Messages, two kinds of timers and per-rank RNG draws, timestamped
/// on the global clock. The poll timer's handler only sends when
/// a delivery arrived since it was armed.
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
        ctx.set_timer(900 + 11 * u64::from(me), QUIET);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: Rank, msg: u64) {
        self.heard = true;
        self.got.push((from, msg, ctx.now().ns()));
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
        self.fired.push((token, ctx.now().ns()));
        if token == QUIET {
            if std::mem::take(&mut self.heard) {
                let to = Self::peer(ctx);
                ctx.send(to, 16, 1);
            }
            if ctx.now().ns() < 8_000 {
                ctx.set_timer(400, QUIET);
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

/// Where [`drive`] pauses a run: at every multiple of a simulated time
/// or of an event count. A time limit clips per event; an event limit
/// stops between windows, with the last window's cross-shard sends
/// still deposited for their shards.
#[derive(Debug, Clone, Copy)]
enum Pause {
    Ns(u64),
    Events(u64),
}

/// Run `sim` to completion: uninterrupted through `run`, or stepped
/// through `run_with_limits` at every `pause` until the queue drains.
fn drive<A>(sim: &mut Simulation<A>, pause: Option<Pause>) -> RunReport
where
    A: Actor + Send,
    A::Msg: Send,
{
    let Some(pause) = pause else {
        return sim.run();
    };
    for k in 1.. {
        let r = match pause {
            Pause::Ns(step) => sim.run_with_limits(Some(SimTime(k * step)), None),
            Pause::Events(step) => sim.run_with_limits(None, Some(k * step)),
        };
        if !r.halted {
            return r;
        }
    }
    unreachable!("the pauses never run out")
}

/// One gossip run as `(pinned line, window plan)`, [`drive`]n
/// uninterrupted or paused.
fn gossip(fault: FaultPlan, layout: Layout, pause: Option<Pause>) -> (String, (u64, u64)) {
    let cfg = SimConfig {
        seed: 0xD15_7EA1,
        latency_jitter: 0.3,
        fault,
    };
    let mut sim = Simulation::new(Gossip::fleet(), ConstantLatency(GOSSIP_LATENCY_NS), cfg);
    if let Some((shards, threads)) = layout {
        let map = (0..GOSSIP_RANKS).map(|r| r * shards / GOSSIP_RANKS);
        sim.configure_parallel(
            ParallelConfig::new(threads, GOSSIP_LATENCY_NS).with_shard_map(map.collect()),
        );
    }
    let report = drive(&mut sim, pause);
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
/// layout must reproduce the unconfigured run, uninterrupted, paused
/// every 700 ns and paused every 97 events; configured layouts also
/// share one window plan per drive mode. An event pause stops between
/// windows, so its plan is the uninterrupted one.
fn assert_gossip_pinned(fault: FaultPlan, pinned: &str) {
    let mut plans = Vec::new();
    for pause in [None, Some(Pause::Ns(700)), Some(Pause::Events(97))] {
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
        plans.push(plan);
    }
    assert_eq!(plans[2], plans[0], "an event pause moved the window plan");
}

#[test]
fn raw_engine_fleet_is_pinned_to_the_serial_loop_across_layouts() {
    assert_gossip_pinned(
        FaultPlan::default(),
        "RunReport { end_time: SimTime(10773), events: 840, messages: 564, timers: 276, halted: false } \
         sent=564 FaultStats { dropped: 0, duplicated: 0, spiked: 0, brownout_drops: 0, \
         partition_drops: 0, crash_lost_deliveries: 0, crash_lost_timers: 0 } \
         lists=b2fa424b098a89c3",
    );
}

#[test]
fn raw_engine_fleet_under_message_faults_is_pinned_to_the_serial_loop_across_layouts() {
    assert_gossip_pinned(
        FaultPlan::message_faults(0.1, 0.1, 0.1),
        "RunReport { end_time: SimTime(1481213), events: 734, messages: 458, timers: 276, halted: false } \
         sent=462 FaultStats { dropped: 46, duplicated: 42, spiked: 46, brownout_drops: 0, \
         partition_drops: 0, crash_lost_deliveries: 0, crash_lost_timers: 0 } \
         lists=5ac897e24e836e5d",
    );
}

// ---------------------------------------------------------------------
// The window planner against a model that is not the planner.
// ---------------------------------------------------------------------

const TICK_RANKS: u32 = 8;
const TICK_LOOKAHEAD_NS: u64 = 1_000;
/// Timers each rank fires before it falls silent.
const TICKS_PER_RANK: u64 = 40;

/// Delay of `rank`'s `k`-th timer: 300..2,000 ns, so a window holds
/// several chained successors of some ranks and none of others.
fn tick_delay_ns(rank: Rank, k: u64) -> u64 {
    300 + (u64::from(rank) * 97 + k * 61) % 1_700
}

/// A rank that only arms timers, each from the handler of the last.
struct Ticker;

impl Actor for Ticker {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer(tick_delay_ns(ctx.me(), 0), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: Rank, _: ()) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, k: u64) {
        if k + 1 < TICKS_PER_RANK {
            ctx.set_timer(tick_delay_ns(ctx.me(), k + 1), k + 1);
        }
    }
}

/// The plan the ticker fleet must produce, `(FNV-1a fold of the window
/// ends, window count)`: a window ends one lookahead past the earliest
/// pending timer and retires every timer before that end (and, when
/// paused, not past the pause), successors included. A paused run stops
/// planning when the earliest timer lies past the pause and resumes
/// there on the next call; a run paused on an event count stops between
/// windows, so it plans as an uninterrupted one.
fn model_plan(pause_every_ns: Option<u64>) -> (u64, u64) {
    let mut pending: BTreeSet<(u64, Rank, u64)> = (0..TICK_RANKS)
        .map(|r| (tick_delay_ns(r, 0), r, 0))
        .collect();
    let (mut digest, mut windows) = (0xcbf2_9ce4_8422_2325_u64, 0);
    let mut until = pause_every_ns.unwrap_or(u64::MAX);
    while let Some(&(first, ..)) = pending.first() {
        if first > until {
            until += pause_every_ns.expect("only a paused run has a limit");
            continue;
        }
        let end = first + TICK_LOOKAHEAD_NS;
        for byte in end.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        windows += 1;
        while let Some(&(t, rank, k)) = pending.first().filter(|e| e.0 < end && e.0 <= until) {
            pending.remove(&(t, rank, k));
            if k + 1 < TICKS_PER_RANK {
                pending.insert((t + tick_delay_ns(rank, k + 1), rank, k + 1));
            }
        }
    }
    (digest, windows)
}

#[test]
fn window_plan_of_a_timer_fleet_matches_the_min_next_plus_lookahead_model() {
    for pause in [None, Some(Pause::Ns(700)), Some(Pause::Events(37))] {
        let model = model_plan(match pause {
            Some(Pause::Ns(step)) => Some(step),
            _ => None,
        });
        assert!(model.1 > 10, "the fleet spans many windows");
        for (shards, threads) in [(1, 1), (4, 1), (4, 2)] {
            let fleet = (0..TICK_RANKS).map(|_| Ticker).collect();
            let mut sim = Simulation::new(
                fleet,
                ConstantLatency(TICK_LOOKAHEAD_NS),
                SimConfig::default(),
            );
            let map = (0..TICK_RANKS).map(|r| r * shards / TICK_RANKS);
            sim.configure_parallel(
                ParallelConfig::new(threads, TICK_LOOKAHEAD_NS).with_shard_map(map.collect()),
            );
            let report = drive(&mut sim, pause);
            assert_eq!(report.timers, u64::from(TICK_RANKS) * TICKS_PER_RANK);
            assert_eq!(
                sim.window_plan(),
                model,
                "{shards} shards on {threads} threads, pause {pause:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Recovery pin: one run through every recovery path — lifelines under
// drops and duplicates, a partition, a crash and the adaptive overlay's
// draw — recorded at the commit before the scheduler was split into
// protocol and recovery modules, with `crates/` untouched.
// ---------------------------------------------------------------------

/// `dws run --tree t3sim-l --ranks 32 --lifelines 4 --victim
/// adaptive-rand --fault-drop 0.02 --fault-dup 0.01 --fault-partition
/// 16@200000:900000 --fault-crash 9@3000000`, spans on.
fn recovery_run(threads: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_l(), 32).with_victim(VictimPolicy::Uniform);
    cfg.adaptive = true;
    cfg.lifeline_threshold = Some(4);
    let mut plan = FaultPlan::message_faults(0.02, 0.01, 0.0);
    plan.partitions.push(Partition {
        boundary: 16,
        from_ns: 200_000,
        until_ns: 900_000,
    });
    plan.crashes.push(Crash {
        rank: 9,
        at_ns: 3_000_000,
    });
    cfg.fault_plan = plan;
    cfg.collect_spans = true;
    cfg.threads = threads;
    cfg
}

#[test]
fn every_recovery_path_is_pinned_at_one_and_four_threads() {
    for threads in [1, 4] {
        let r = run_experiment(&recovery_run(threads));
        let t = r.stats.total();
        let fr = r.fault.as_ref().expect("fault plan was active");
        let exercised = [
            ("lifeline dormancies", t.lifeline_dormancies),
            ("lifeline pushes", t.lifeline_pushes),
            ("steal timeouts", t.steal_timeouts),
            ("retransmits", t.retransmits),
            ("duplicate replies", t.dup_replies_dropped),
            ("stale replies", t.stale_replies_dropped),
            ("late-work absorptions", t.late_work_absorbed),
            ("token regenerations", t.token_regenerations),
            ("quarantines", t.quarantines),
            ("probe steals", t.probe_steals),
            ("partition drops", fr.stats.partition_drops),
            ("lost frontier nodes", fr.lost_frontier_nodes),
        ];
        for (path, count) in exercised {
            assert!(count > 0, "no {path} at {threads} thread(s)");
        }
        assert_eq!(
            identity_of(&r),
            "makespan_ns=18284496 window_plan=8fe23d4e43e5e016/11317 events=132140 \
             delivered=17398 dropped=333 duplicated=174 nodes=413863 stats=367206b8ef36aaeb \
             json=058126b85584c013 spans=274cc4294de3961e fault=Some((FaultStats { dropped: 333, \
             duplicated: 174, spiked: 0, brownout_drops: 0, partition_drops: 198, \
             crash_lost_deliveries: 105, crash_lost_timers: 2 }, [9], 1960))",
            "{threads} thread(s)"
        );
    }
}

/// The Chrome trace of the recovery run, critical-path overlay on,
/// recorded at the commit before the exporter became a streaming
/// writer, with `crates/` untouched. The run draws the recovery events
/// the skewed pin above lacks: timeouts, retransmits, token
/// regenerations and quarantines. Abandoned attempts are in that pin;
/// attempts left unresolved are pinned by the exporter's own tests.
#[test]
fn recovery_run_chrome_trace_is_pinned_at_one_and_four_threads() {
    for threads in [1, 4] {
        let r = run_experiment(&recovery_run(threads));
        let mut chrome = Vec::new();
        r.write_chrome_trace(&mut chrome).unwrap();
        let chrome = String::from_utf8(chrome).unwrap();
        for drawn in [
            "\"steal timeout\"",
            "\"retransmit\"",
            "\"token regenerated\"",
            "\"quarantined\"",
            "\"ok\"",
            "\"empty\"",
            "\"critical path\"",
        ] {
            assert!(chrome.contains(drawn), "no {drawn} at {threads} thread(s)");
        }
        assert_eq!(
            format!("{} bytes, chrome={}", chrome.len(), fingerprint(&chrome)),
            "4388842 bytes, chrome=358095d92e0d8487",
            "{threads} thread(s)"
        );
    }
}
