//! Micro-probes: one layer's public function in a timed loop, so a
//! change can be placed in that layer. Each probe runs [`BATCHES`] timed
//! batches after one warm-up batch and reports the median and the 95th
//! percentile of the per-batch figure. Nothing here depends on a
//! workload, only on the seed.

use crate::spans::{self, Tracer};
use crate::stats::percentile;
use crate::workloads::{self, Variant};
use dws::core::{ChunkedStack, NicContendedNetwork, VictimPolicy};
use dws::metrics::JsonValue;
use dws::simnet::{
    Actor, ConstantLatency, Ctx, DetRng, NetworkModel, ParallelConfig, PureNetwork, Rank,
    SimConfig, SimTime, Simulation,
};
use dws::topology::Job;
use dws::uts::{presets, sha1::Sha1, Node, RngState};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per probe: p95 then has ten samples beyond it.
const BATCHES: usize = 200;

/// Timed batches per probe in a smoke run.
const SMOKE_BATCHES: usize = 20;

/// Runs probes and keeps their rows and spans.
struct Bench {
    tracer: Tracer,
    batches: usize,
    rows: Vec<(String, JsonValue)>,
}

impl Bench {
    /// Time `batch` `batches` times after one warm-up. `batch` returns
    /// how many operations it performed; the sample is ns per operation
    /// or, for a [`Figure::Rate`], operations per second. `p95` is the
    /// slow tail either way: the figure 95% of batches were no worse
    /// than.
    fn probe(&mut self, name: &str, figure: Figure, mut batch: impl FnMut() -> u64) {
        let open = self.tracer.enter(&format!("probe:{name}"));
        batch();
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let t0 = Instant::now();
                let ops = batch() as f64;
                let ns = t0.elapsed().as_nanos() as f64;
                match figure {
                    Figure::NsPerOp => ns / ops,
                    Figure::Rate => ops / (ns / 1e9),
                }
            })
            .collect();
        self.tracer.exit(open);
        let (unit, slow_tail) = match figure {
            Figure::NsPerOp => ("ns", 95.0),
            Figure::Rate => ("1/s", 5.0),
        };
        self.rows.push((
            name.to_string(),
            JsonValue::obj(vec![
                ("p50", percentile(&samples, 50.0).into()),
                ("p95", percentile(&samples, slow_tail).into()),
                ("n", samples.len().into()),
                ("unit", unit.into()),
            ]),
        ));
    }
}

/// What a probe reports per batch.
#[derive(Clone, Copy)]
enum Figure {
    NsPerOp,
    Rate,
}
use Figure::{NsPerOp, Rate};

/// `(from, to)` rank pairs with `from != to`, drawn from the seed.
fn rank_pairs(n_ranks: u32, count: usize, seed: u64) -> Vec<(Rank, Rank)> {
    let mut rng = DetRng::new(seed);
    (0..count)
        .map(|_| {
            let from = rng.next_below(u64::from(n_ranks)) as Rank;
            let to = (from + 1 + rng.next_below(u64::from(n_ranks) - 1) as Rank) % n_ranks;
            (from, to)
        })
        .collect()
}

/// The placed job of a workload at full scale.
fn placed(name: &str) -> Arc<Job> {
    let job = workloads::job(name, 0, false, Variant::Main).expect("known workload");
    workloads::place(&job.cfg)
}

fn uts(b: &mut Bench) {
    let data = [0xA5u8; 24];
    b.probe("uts.sha1_ns_per_digest", NsPerOp, || {
        for _ in 0..2_000 {
            black_box(Sha1::digest(black_box(&data)));
        }
        2_000
    });
    let wl = presets::t3wl();
    let root = wl.spec.root(wl.seed);
    let mut children = Vec::new();
    b.probe("uts.child_ns", NsPerOp, || {
        u64::from(
            wl.spec
                .children_into(black_box(&root), wl.gen_rounds, &mut children),
        )
    });
    let tree = presets::t3sim_s();
    b.probe("uts.search_nodes_per_s", Rate, || {
        dws::uts::search(black_box(&tree)).nodes
    });
}

fn topology(b: &mut Bench, seed: u64) {
    let job = placed("flagship");
    let pairs = rank_pairs(job.n_ranks(), 4_096, seed);
    b.probe("topology.latency_ns_per_call", NsPerOp, || {
        for &(from, to) in &pairs {
            black_box(job.latency_ns(from, to, 64));
        }
        pairs.len() as u64
    });
}

fn victim(b: &mut Bench, seed: u64) {
    let skew = VictimPolicy::DistanceSkewed { alpha: 1.0 };
    let (compact, torus) = (placed("flagship"), placed("steal_storm"));
    let shared = skew.prepare(&torus);
    assert!(
        shared.uses_shared_table(),
        "the steal_storm job must take the shared offset-alias path"
    );
    let cases = [
        (
            "victim.draw_ns_shared_alias",
            skew.build(&torus, 3, &shared),
        ),
        (
            "victim.draw_ns_per_rank_alias",
            skew.build(&compact, 3, &skew.prepare(&compact)),
        ),
        (
            "victim.draw_ns_uniform",
            VictimPolicy::Uniform.build(&compact, 3, &Default::default()),
        ),
        (
            "victim.draw_ns_round_robin",
            VictimPolicy::RoundRobin.build(&compact, 3, &Default::default()),
        ),
    ];
    for (name, mut selector) in cases {
        let mut rng = DetRng::new(seed);
        b.probe(name, NsPerOp, || {
            for _ in 0..20_000 {
                black_box(selector.next_victim(&mut rng));
            }
            20_000
        });
    }
}

fn stack(b: &mut Bench) {
    let node = Node {
        state: RngState::from_seed(1),
        height: 0,
    };
    let mut s = ChunkedStack::new(20);
    b.probe("stack.push_pop_ns", NsPerOp, || {
        for _ in 0..100 {
            for _ in 0..100 {
                s.push(black_box(node));
            }
            for _ in 0..100 {
                black_box(s.pop());
            }
        }
        10_000
    });
    // Both ends of a steal: the victim gives up half of 100 chunks, the
    // thief takes them in. Handing the loot straight back keeps the
    // stack at 100 chunks, so nothing but the steal is timed.
    for _ in 0..2_000 {
        s.push(node);
    }
    b.probe("stack.steal_half_ns", NsPerOp, || {
        for _ in 0..200 {
            let loot = s.steal_chunks(black_box(50));
            s.receive_chunks(loot);
        }
        200
    });
}

fn network(b: &mut Bench, seed: u64) {
    let job = placed("flagship");
    let pairs = rank_pairs(job.n_ranks(), 4_096, seed);
    let latency = {
        let job = Arc::clone(&job);
        move |from: Rank, to: Rank, bytes: usize| job.latency_ns(from, to, bytes)
    };
    let models: [(&str, Box<dyn NetworkModel>); 2] = [
        (
            "network.nic_ns_per_msg",
            Box::new(NicContendedNetwork::new(Arc::clone(&job), 2_000, 5.0)),
        ),
        ("network.pure_ns_per_msg", Box::new(PureNetwork(latency))),
    ];
    for (name, mut net) in models {
        let mut now = 0u64;
        b.probe(name, NsPerOp, || {
            for &(from, to) in &pairs {
                now += 500;
                let arrive = now + net.egress_ns(from, to, 64, now);
                black_box(net.ingress_ns(to, 64, arrive));
            }
            pairs.len() as u64
        });
    }
}

/// Pending timers in the churn probe (as `micro_hotpath`): deep enough
/// that the queue's backing store spills out of L2.
const PENDING: u64 = 131_072;

/// One actor keeping [`PENDING`] timers in flight: every fired timer
/// re-arms itself at a pseudo-random delay in `[1, PENDING]` ns.
struct Churn;

impl Actor for Churn {
    type Msg = [u64; 6];
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        for token in 0..PENDING {
            let delay = 1 + ctx.rng().next_below(PENDING);
            ctx.set_timer(delay, token);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Self::Msg>, _: Rank, _: Self::Msg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
        let delay = 1 + ctx.rng().next_below(PENDING);
        ctx.set_timer(delay, token);
    }
}

/// Ranks in the message ring.
const RING: u32 = 1_024;
/// Flat latency of the ring, which is also its lookahead.
const RING_LATENCY_NS: u64 = 1_000;

/// Every rank forwards each message it gets to the next rank, so
/// [`RING`] messages circulate for ever.
struct Forward;

impl Actor for Forward {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send((ctx.me() + 1) % RING, 8, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _: Rank, hops: u64) {
        ctx.send((ctx.me() + 1) % RING, 8, hops + 1);
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, u64>, _: u64) {}
}

fn engine(b: &mut Bench, seed: u64) {
    let config = || SimConfig {
        seed,
        ..SimConfig::default()
    };
    // Each batch resumes the same simulation for a further slice of
    // simulated time and is credited the events that slice processed.
    let mut sim = Simulation::new(vec![Churn], ConstantLatency(100), config());
    let (mut until, mut seen) = (0u64, 0u64);
    b.probe("engine.timer_events_per_s", Rate, || {
        until += 4_000;
        let events = sim.run_with_limits(Some(SimTime(until)), None).events;
        let done = events - seen;
        seen = events;
        done
    });
    for (name, threads, shards) in [
        ("engine.msg_events_per_s", 1, 1),
        ("engine.msg_events_per_s_16shards", 1, 16),
        ("engine.msg_events_per_s_2t", 2, 16),
    ] {
        let ring = (0..RING).map(|_| Forward).collect();
        let mut sim = Simulation::new(ring, ConstantLatency(RING_LATENCY_NS), config());
        sim.configure_parallel(
            ParallelConfig::new(threads, RING_LATENCY_NS)
                .with_shard_map((0..RING).map(|r| r * shards / RING).collect()),
        );
        let (mut until, mut seen) = (0u64, 0u64);
        b.probe(name, Rate, || {
            until += 10 * RING_LATENCY_NS;
            let events = sim
                .run_parallel_with_limits(Some(SimTime(until)), None)
                .events;
            let done = events - seen;
            seen = events;
            done
        });
    }
}

/// Run every probe; returns `{"probes": {name: {p50, p95, n, unit}},
/// "spans": [...]}`.
pub fn run_all(seed: u64, smoke: bool) -> JsonValue {
    let mut b = Bench {
        tracer: Tracer::new(true),
        batches: if smoke { SMOKE_BATCHES } else { BATCHES },
        rows: Vec::new(),
    };
    uts(&mut b);
    topology(&mut b, seed);
    victim(&mut b, seed);
    stack(&mut b);
    network(&mut b, seed);
    engine(&mut b, seed);
    JsonValue::obj(vec![
        ("probes", JsonValue::Obj(b.rows)),
        (
            "spans",
            JsonValue::Arr(spans::to_json(b.tracer.spans(), "all", "probes")),
        ),
    ])
}
