//! Hot-path microbenchmarks for the engine overhaul, measuring the
//! quantities the overhaul targets:
//!
//! 0. **Send path over ever-new pairs** — the engine's per-message
//!    cost (egress, pairwise-FIFO state, route, queue) when almost
//!    every send opens a (source, destination) pair never used before,
//!    as failed steals do at scale; the binary asserts in-process that
//!    resident memory does not grow with the number of sends. Runs
//!    first, while the process's RSS high-water mark is still its own.
//! 1. **Event throughput** — the engine's per-shard `BinaryHeap` on a
//!    deep-queue churn workload: 131,072 concurrently pending timers,
//!    so every event pays the full `O(log n)` sift. A stress depth, not
//!    traffic (see [`PENDING`]); the recorded rate feeds the `dws diff`
//!    CI gate.
//! 2. **Allocations per event** — the steady-state allocation rate of a
//!    full profiled experiment (pooled outboxes, pooled steal chunks),
//!    via the same `CountingAlloc` probe `dws profile` uses.
//! 3. **Victim-draw cost** — ns per draw for the shared offset-alias
//!    table (torus-symmetric jobs), the per-rank alias table, and the
//!    rejection oracle.
//!
//! Like `micro`, results go to `results/BENCH_hotpath.json` and can be
//! appended to the trajectory store with `--trajectory`.

use dws_core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy, VictimSelector};
use dws_metrics::perflab::{self, BenchMetric, BenchRecord, Polarity};
use dws_simnet::{
    Actor, ConstantLatency, Ctx, DetRng, ParallelConfig, Rank, SimConfig, SimTime, Simulation,
};
use dws_topology::{AllocationPolicy, Job, LatencyParams, Machine, RankMapping};
use dws_uts::presets;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counting allocator: the allocs-per-event probe below needs it.
#[global_allocator]
static ALLOC: dws_simnet::CountingAlloc = dws_simnet::CountingAlloc;

static TRIAL_SEED: AtomicU64 = AtomicU64::new(0);

fn trial_seed() -> u64 {
    TRIAL_SEED.load(Ordering::Relaxed)
}

/// Concurrently pending events in the churn workload: deep enough that
/// the heap pays 17 sift levels per pop and its backing array spills
/// out of L2. No run is this deep — streamed `queue_depth` is median
/// 254 / max 485 on the repo benchmark's `flagship` configuration,
/// 4,097 / 7,453 on `steal_storm`'s and 8,193 / 15,993 at 8,192 ranks,
/// one or two pending events per rank — so this row bounds the queue's
/// cost from above; it does not predict a run.
const PENDING: u64 = 131_072;
/// Re-arm delays are uniform in `[1, SPREAD]` ns.
const SPREAD: u64 = 131_072;
/// Simulated horizon: each pending timer re-fires every `SPREAD/2` ns
/// on average, so ≈ `PENDING * LIMIT / (SPREAD/2)` ≈ 1M events.
const LIMIT_NS: u64 = 2_000_000;
/// Timed trials per measurement: the best is printed, the record
/// carries the mean and 95% CI over all of them.
const TRIALS: usize = 5;

/// The fastest of a set of per-trial costs: what the tables print.
fn fastest(ns: &[f64]) -> f64 {
    ns.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Message payload sized like the worker protocol's largest variant
/// (`Msg::StealReply`: two ids plus a chunk vector, 48 bytes). The
/// heap stores `Event<Msg>` inline and moves the whole event on every
/// sift level, so the payload size is part of the workload even for
/// timer events — `EventKind<M>` is an enum, so every event is as
/// large as the largest message.
type FatMsg = [u64; 6];

/// One actor keeping [`PENDING`] timers in flight forever: every fired
/// timer re-arms itself at a deterministic pseudo-random delay. Pure
/// queue churn — each event is one pop and one push.
struct Churn;

impl Actor for Churn {
    type Msg = FatMsg;
    fn on_start(&mut self, ctx: &mut Ctx<'_, FatMsg>) {
        for t in 0..PENDING {
            let d = 1 + ctx.rng().next_below(SPREAD);
            ctx.set_timer(d, t);
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, FatMsg>, _from: Rank, _msg: FatMsg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, FatMsg>, token: u64) {
        let d = 1 + ctx.rng().next_below(SPREAD);
        ctx.set_timer(d, token);
    }
}

/// Run the churn workload once; returns `(events, wall_ns)` for the
/// simulation loop only.
fn churn_run() -> (u64, u64) {
    let cfg = SimConfig {
        seed: 0x40_77A9 ^ trial_seed(),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(vec![Churn], ConstantLatency(100), cfg);
    let wall = Instant::now();
    let report = sim.run_with_limits(Some(SimTime(LIMIT_NS)), None);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    (report.events, wall_ns)
}

fn bench_queue_throughput(metrics: &mut Vec<BenchMetric>) {
    println!("-- event queue: {PENDING} pending timers, {LIMIT_NS} ns horizon --");
    let (events, _) = churn_run(); // warm-up
    let rates: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let (ev, wall_ns) = churn_run();
            ev as f64 / (wall_ns as f64 / 1e9)
        })
        .collect();
    let best = rates.iter().copied().fold(0.0, f64::max);
    println!("deep churn          {best:>12.0} events/s  ({events} events/run)");
    metrics.push(BenchMetric::from_samples(
        "churn_events_per_sec",
        "events/s",
        Polarity::HigherIsBetter,
        &rates,
    ));
}

/// Ranks in the distinct-pairs workload: 4.2M possible pairs, so 2M
/// sends to uniformly drawn peers open ~1.6M distinct ones.
const SPRAY_RANKS: u32 = 2_048;
/// Sends per run.
const SPRAY_SENDS: u64 = 2_000_000;

/// One token per rank, forwarded on every delivery to a freshly drawn
/// peer: [`SPRAY_RANKS`] messages in flight forever, between ever-new
/// (source, destination) pairs.
struct Spray;

impl Spray {
    fn forward(ctx: &mut Ctx<'_, FatMsg>) {
        let peers = u64::from(ctx.n_ranks()) - 1;
        let to = ctx.rng().next_below(peers) as Rank;
        ctx.send(to + Rank::from(to >= ctx.me()), 32, [0; 6]);
    }
}

impl Actor for Spray {
    type Msg = FatMsg;
    fn on_start(&mut self, ctx: &mut Ctx<'_, FatMsg>) {
        Self::forward(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, FatMsg>, _from: Rank, _msg: FatMsg) {
        Self::forward(ctx);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, FatMsg>, _token: u64) {}
}

/// Run the spray once; returns `(ns per send, RSS high-water growth in
/// bytes over the last three quarters of the sends)`.
fn spray_run() -> (f64, u64) {
    let cfg = SimConfig {
        seed: 0x5B_4A71 ^ trial_seed(),
        ..SimConfig::default()
    };
    // Pair-dependent latency spreads the deliveries over distinct
    // timestamps, as jittered traffic does, instead of marching the
    // whole fleet in lockstep.
    let lat = |f: Rank, t: Rank, _bytes: usize| 1_000 + u64::from((31 * f + 17 * t) % 1_024);
    let actors = (0..SPRAY_RANKS).map(|_| Spray).collect();
    let mut sim = Simulation::new(actors, lat, cfg);
    // Event limits are tested between windows; 1,000 ns is the floor
    // of `lat`, so it is a valid lookahead for the one shard.
    sim.configure_parallel(ParallelConfig::new(1, 1_000));
    let wall = Instant::now();
    sim.run_with_limits(None, Some(SPRAY_SENDS / 4));
    let rss_quarter = perflab::peak_rss_bytes().unwrap_or(0);
    sim.run_with_limits(None, Some(SPRAY_SENDS));
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let growth = perflab::peak_rss_bytes().unwrap_or(0) - rss_quarter;
    (wall_ns / sim.messages_sent() as f64, growth)
}

fn bench_send_distinct_pairs(metrics: &mut Vec<BenchMetric>) {
    println!("-- send path: {SPRAY_RANKS} ranks, {SPRAY_SENDS} sends to fresh peers --");
    let rss_before = perflab::peak_rss_bytes().unwrap_or(0);
    // The warm-up run is the one that sets the high-water mark.
    let (_, growth) = spray_run();
    let rss_delta = perflab::peak_rss_bytes().unwrap_or(0) - rss_before;
    let samples: Vec<f64> = (0..TRIALS).map(|_| spray_run().0).collect();
    let best = fastest(&samples);
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    println!("engine send         {best:>12.1} ns/send");
    println!(
        "peak RSS delta      {:>12.1} MiB  (+{:.1} MiB over the last 1.5M sends)",
        mib(rss_delta),
        mib(growth)
    );
    assert!(
        growth <= 2 << 20,
        "RSS grew {:.1} MiB between 0.5M and 2M sends: the engine keeps state per message \
         sent, not per message in flight",
        mib(growth)
    );
    metrics.push(BenchMetric::from_samples(
        "engine/send_distinct_pairs",
        "ns/send",
        Polarity::LowerIsBetter,
        &samples,
    ));
    metrics.push(BenchMetric::point(
        "engine/send_distinct_pairs_peak_rss_delta",
        "MiB",
        Polarity::LowerIsBetter,
        mib(rss_delta),
    ));
}

fn bench_allocs_per_event(metrics: &mut Vec<BenchMetric>) {
    println!("-- steady-state allocations (profiled 64-rank experiment) --");
    let mut cfg = ExperimentConfig::new(presets::t3sim_l(), 64)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.seed = cfg.seed.wrapping_add(trial_seed());
    cfg.collect_trace = false;
    cfg.profile = true;
    let profiles: Vec<_> = (0..TRIALS)
        .map(|_| run_experiment(&cfg).profile.expect("profile was requested"))
        .collect();
    let p = profiles
        .iter()
        .max_by(|a, b| a.events_per_sec().total_cmp(&b.events_per_sec()))
        .expect("TRIALS > 0");
    println!(
        "allocs/event        {:>12.4}  ({} allocs / {} events, {:.0} events/s)",
        p.allocs_per_event(),
        p.allocs,
        p.events,
        p.events_per_sec()
    );
    let allocs: Vec<f64> = profiles.iter().map(|p| p.allocs_per_event()).collect();
    let rates: Vec<f64> = profiles.iter().map(|p| p.events_per_sec()).collect();
    metrics.push(BenchMetric::from_samples(
        "profile_allocs_per_event",
        "allocs/event",
        Polarity::LowerIsBetter,
        &allocs,
    ));
    metrics.push(BenchMetric::from_samples(
        "profile_events_per_sec",
        "events/s",
        Polarity::HigherIsBetter,
        &rates,
    ));
}

/// ns per victim draw, one sample per trial after a warm-up pass.
fn draw_cost(sel: &mut VictimSelector, seed: u64) -> Vec<f64> {
    const DRAWS: u64 = 200_000;
    let mut samples = Vec::with_capacity(TRIALS);
    for trial in 0..=TRIALS {
        let mut rng = DetRng::new(seed ^ trial as u64);
        let wall = Instant::now();
        for _ in 0..DRAWS {
            black_box(sel.next_victim(&mut rng));
        }
        if trial > 0 {
            // Trial 0 is the warm-up.
            samples.push(wall.elapsed().as_nanos() as f64 / DRAWS as f64);
        }
    }
    samples
}

fn bench_victim_draws(metrics: &mut Vec<BenchMetric>) {
    println!("-- victim draws (1,020-rank torus-symmetric job) --");
    let ranks = 1_020u32; // divisible by 12: every cube fully occupied
    let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
    let symmetric = Arc::new(Job::place(
        Machine::torus_for_nodes(ranks),
        ranks,
        AllocationPolicy::TorusFill,
        RankMapping::OneToOne,
        LatencyParams::default(),
    ));
    let compact = Arc::new(Job::compact(ranks, RankMapping::OneToOne));
    let ctx = policy.prepare(&symmetric);
    assert!(
        ctx.uses_shared_table(),
        "TorusFill job must take the shared offset-alias path"
    );
    let cases: [(&str, VictimSelector); 3] = [
        ("shared_offset_alias", policy.build(&symmetric, 3, &ctx)),
        (
            "per_rank_alias",
            policy.build(&compact, 3, &policy.prepare(&compact)),
        ),
        (
            "rejection_oracle",
            VictimSelector::SkewedRejection {
                job: Arc::clone(&compact),
                me: 3,
                alpha: 1.0,
            },
        ),
    ];
    for (name, mut sel) in cases {
        let samples = draw_cost(&mut sel, 7 ^ trial_seed());
        let best = fastest(&samples);
        println!("{name:20} {best:>12.1} ns/draw");
        metrics.push(BenchMetric::from_samples(
            &format!("victim_ns_per_draw_{name}"),
            "ns/draw",
            Polarity::LowerIsBetter,
            &samples,
        ));
    }
}

fn build_record(started: Instant, metrics: Vec<BenchMetric>) -> BenchRecord {
    let names: String = metrics.iter().map(|m| m.name.as_str()).collect();
    let mut metrics = metrics;
    metrics.push(BenchMetric::point(
        "wall_s_total",
        "s",
        Polarity::LowerIsBetter,
        started.elapsed().as_secs_f64(),
    ));
    BenchRecord {
        schema: perflab::BENCH_SCHEMA_VERSION,
        bench: "micro_hotpath".to_string(),
        git_rev: perflab::git_rev(),
        fingerprint: perflab::fingerprint(&names),
        trial_seed: trial_seed(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        trials: TRIALS as u64,
        threads: 1,
        metrics,
    }
}

fn write_record(path: &str, record: &BenchRecord) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, format!("{}\n", record.to_json()))
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = Some("results/BENCH_hotpath.json".to_string());
    let mut trajectory: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = it.next().or(json_path),
            "--no-json" => json_path = None,
            "--trajectory" => trajectory = it.next(),
            "--trial-seed" => {
                let seed: u64 = it
                    .next()
                    .expect("--trial-seed needs a value")
                    .parse()
                    .expect("--trial-seed must be an integer");
                TRIAL_SEED.store(seed, Ordering::Relaxed);
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let mut metrics = Vec::new();
    bench_send_distinct_pairs(&mut metrics);
    bench_queue_throughput(&mut metrics);
    bench_allocs_per_event(&mut metrics);
    bench_victim_draws(&mut metrics);
    let record = build_record(started, metrics);
    if let Some(path) = json_path {
        match write_record(&path, &record) {
            Ok(()) => println!("[results written to {path}]"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    if let Some(path) = trajectory {
        match perflab::append_record(&path, &record) {
            Ok(()) => println!("[record appended to {path}]"),
            Err(e) => eprintln!("warning: could not append to {path}: {e}"),
        }
    }
}
