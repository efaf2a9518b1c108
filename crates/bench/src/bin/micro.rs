//! Microbenchmarks for the building blocks: SHA-1 hashing, UTS child
//! generation, the chunked steal stack, the alias sampler and victim
//! selectors, the discrete-event queue, the Chase–Lev deque, and a
//! small end-to-end simulated experiment.
//!
//! These complement the `fig*` binaries (which regenerate the paper's
//! charts): the figures measure *simulated* time; these measure the
//! *host* cost of the primitives the simulator and the shared-memory
//! executor are built from.
//!
//! The harness is a plain `Instant`-based timer (the workspace is
//! dependency-free): each benchmark warms up, then reports the best of
//! several timed batches — the minimum is the stablest location
//! estimator for short, allocation-light loops.

use dws_core::{
    run_experiment, AliasTable, ChunkedStack, ExperimentConfig, StealAmount, VictimPolicy,
};
use dws_metrics::perflab::{self, BenchMetric, BenchRecord, Polarity};
use dws_simnet::{Actor, ConstantLatency, Ctx, DetRng, Rank, SimConfig, Simulation};
use dws_topology::{Job, RankMapping};
use dws_uts::{presets, sha1::Sha1, Node, RngState};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counting allocator so allocation-heavy regressions show up in the
/// `allocs_per_iter` metrics of the bench record.
#[global_allocator]
static ALLOC: dws_simnet::CountingAlloc = dws_simnet::CountingAlloc;

/// Per-batch ns/iter samples, collected for `BENCH_micro.json`.
static RESULTS: Mutex<Vec<(String, Vec<f64>)>> = Mutex::new(Vec::new());

/// Trial seed from `--trial-seed`: offsets every seeded RNG below so
/// repeated CI trials exercise slightly different (but deterministic)
/// inputs. Excluded from the config fingerprint.
static TRIAL_SEED: AtomicU64 = AtomicU64::new(0);

fn trial_seed() -> u64 {
    TRIAL_SEED.load(Ordering::Relaxed)
}

/// Timed batches per benchmark; doubles as the record's trial count.
const BATCHES: usize = 7;

/// Time `f` (which runs `iters` inner iterations per call): print the
/// best per-iteration time across the batches (the minimum is the
/// stablest location estimator for short loops), and buffer all batch
/// samples so the bench record can carry a mean and 95% CI.
fn bench<F: FnMut()>(name: &str, iters: u64, mut f: F) {
    // Warm-up batch: populate caches and branch predictors.
    f();
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let unit = if best >= 1e6 {
        format!("{:.3} ms", best / 1e6)
    } else if best >= 1e3 {
        format!("{:.3} µs", best / 1e3)
    } else {
        format!("{best:.1} ns")
    };
    println!("{name:44} {unit:>12} /iter");
    RESULTS
        .lock()
        .expect("results mutex")
        .push((name.to_string(), samples));
}

fn bench_sha1() {
    println!("-- sha1 --");
    for size in [24usize, 64, 1024] {
        let data = vec![0xA5u8; size];
        bench(&format!("sha1/digest_{size}B"), 10_000, || {
            for _ in 0..10_000 {
                black_box(Sha1::digest(black_box(&data)));
            }
        });
    }
}

fn bench_uts_generation() {
    println!("-- uts --");
    let spec = presets::t3xxl().spec;
    let root = spec.root(316i32.wrapping_add(trial_seed() as i32));
    bench("uts/spawn_child", 100_000, || {
        let mut i = 0u32;
        for _ in 0..100_000 {
            i = i.wrapping_add(1);
            black_box(root.state.spawn(i, 1));
        }
    });
    // Per digest, like `spawn_child`: 50,000 pairs are 100,000 children.
    bench("uts/spawn_pair", 100_000, || {
        let mut i = 0u32;
        for _ in 0..50_000 {
            i = i.wrapping_add(2);
            black_box(root.state.spawn_pair(i, 1));
        }
    });
    bench("uts/children_of_root_b0_2000", 10, || {
        let mut buf = Vec::new();
        for _ in 0..10 {
            spec.children_into(black_box(&root), 1, &mut buf);
            black_box(buf.len());
        }
    });
    bench("uts/sequential_search_xs_tree", 1, || {
        let mut w = presets::t3sim_xs();
        w.seed = w.seed.wrapping_add(trial_seed() as i32);
        black_box(dws_uts::search(&w).nodes);
    });
}

fn bench_chunked_stack() {
    println!("-- chunked_stack --");
    let node = Node {
        state: RngState::from_seed(1),
        height: 0,
    };
    bench("chunked_stack/push_pop_cycle_100", 1_000, || {
        let mut s = ChunkedStack::new(20);
        for _ in 0..1_000 {
            for _ in 0..100 {
                s.push(black_box(node));
            }
            for _ in 0..100 {
                black_box(s.pop());
            }
        }
    });
    bench("chunked_stack/steal_half_of_100_chunks", 100, || {
        for _ in 0..100 {
            let mut s = ChunkedStack::new(20);
            for _ in 0..2000 {
                s.push(node);
            }
            let loot = s.steal_chunks(50);
            black_box(loot.len());
        }
    });
}

fn bench_victim_selection() {
    println!("-- victim_selection --");
    let job = Arc::new(Job::compact(1024, RankMapping::OneToOne));
    bench("victim/alias_build_1024", 100, || {
        for _ in 0..100 {
            let weights: Vec<f64> = (0..1023)
                .map(|j| dws_core::skew_weight(&job, 0, j + 1, 1.0))
                .collect();
            black_box(AliasTable::new(&weights));
        }
    });
    let policies = [
        ("round_robin", VictimPolicy::RoundRobin),
        ("uniform", VictimPolicy::Uniform),
        ("skew_alias", VictimPolicy::DistanceSkewed { alpha: 1.0 }),
    ];
    for (name, policy) in policies {
        let ctx = policy.prepare(&job);
        let mut selector = policy.build(&job, 0, &ctx);
        let mut rng = DetRng::new(7 ^ trial_seed());
        bench(&format!("victim/draw_{name}"), 100_000, || {
            for _ in 0..100_000 {
                black_box(selector.next_victim(&mut rng));
            }
        });
    }
    let mut rejection = dws_core::VictimSelector::SkewedRejection {
        job: Arc::clone(&job),
        me: 0,
        alpha: 1.0,
    };
    let mut rng = DetRng::new(7 ^ trial_seed());
    bench("victim/draw_skew_rejection", 100_000, || {
        for _ in 0..100_000 {
            black_box(rejection.next_victim(&mut rng));
        }
    });
}

/// Actor ping-ponging a counter, to measure raw engine throughput.
struct Pinger {
    left: u64,
}
impl Actor for Pinger {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.me() == 0 {
            ctx.send(1, 8, self.left);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: Rank, msg: u64) {
        if msg > 0 {
            ctx.send(from, 8, msg - 1);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _t: u64) {}
}

fn bench_engine() {
    println!("-- simnet --");
    bench("simnet/event_throughput_10k_messages", 10_000, || {
        let actors = vec![Pinger { left: 10_000 }, Pinger { left: 0 }];
        let mut sim = Simulation::new(actors, ConstantLatency(100), SimConfig::default());
        black_box(sim.run().events);
    });
}

fn bench_deque() {
    println!("-- chase_lev --");
    bench("chase_lev/owner_push_pop_64", 1_000, || {
        let (w, _s) = dws_shmem::new_deque::<u64>(1024);
        for _ in 0..1_000 {
            for i in 0..64u64 {
                w.push(black_box(i));
            }
            for _ in 0..64 {
                black_box(w.pop());
            }
        }
    });
    bench("chase_lev/uncontended_steal", 10_000, || {
        let (w, s) = dws_shmem::new_deque::<u64>(1024);
        for i in 0..20_000u64 {
            w.push(i);
        }
        for _ in 0..10_000 {
            black_box(s.steal());
        }
    });
}

fn bench_end_to_end() {
    println!("-- end_to_end --");
    bench("end_to_end/simulated_16_ranks_xs_tree", 1, || {
        let mut cfg = ExperimentConfig::new(presets::t3sim_xs(), 16)
            .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
            .with_steal(StealAmount::Half);
        cfg.seed = cfg.seed.wrapping_add(trial_seed());
        cfg.collect_trace = false;
        black_box(run_experiment(&cfg).total_nodes);
    });
    bench("end_to_end/threads_4_xs_tree", 1, || {
        black_box(
            dws_shmem::parallel_search(&presets::t3sim_xs(), 4)
                .stats
                .nodes,
        );
    });
}

/// Fold the collected batch samples into a [`BenchRecord`]: one metric
/// per benchmark (mean ns/iter with a 95% CI across batches), plus the
/// process-wide allocation count and peak RSS. The fingerprint hashes
/// the benchmark names that ran, so filtered runs do not diff against
/// full ones — but deliberately not the trial seed.
fn build_record(started: Instant) -> BenchRecord {
    let results = RESULTS.lock().expect("results mutex");
    let mut metrics: Vec<BenchMetric> = results
        .iter()
        .map(|(name, samples)| {
            BenchMetric::from_samples(name, "ns/iter", Polarity::LowerIsBetter, samples)
        })
        .collect();
    metrics.push(BenchMetric::point(
        "wall_s_total",
        "s",
        Polarity::LowerIsBetter,
        started.elapsed().as_secs_f64(),
    ));
    metrics.push(BenchMetric::point(
        "allocs_total",
        "count",
        Polarity::LowerIsBetter,
        dws_simnet::allocation_count() as f64,
    ));
    if let Some(rss) = perflab::peak_rss_bytes() {
        metrics.push(BenchMetric::point(
            "peak_rss_bytes",
            "B",
            Polarity::LowerIsBetter,
            rss as f64,
        ));
    }
    let names: String = results.iter().map(|(n, _)| n.as_str()).collect();
    BenchRecord {
        schema: perflab::BENCH_SCHEMA_VERSION,
        bench: "micro".to_string(),
        git_rev: perflab::git_rev(),
        fingerprint: perflab::fingerprint(&names),
        trial_seed: trial_seed(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        trials: BATCHES as u64,
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
    let mut only: Vec<String> = Vec::new();
    let mut json_path: Option<String> = Some("results/BENCH_micro.json".to_string());
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
            _ => only.push(a),
        }
    }
    let run = |name: &str| only.is_empty() || only.iter().any(|o| name.contains(o.as_str()));
    if run("sha1") {
        bench_sha1();
    }
    if run("uts") {
        bench_uts_generation();
    }
    if run("stack") {
        bench_chunked_stack();
    }
    if run("victim") {
        bench_victim_selection();
    }
    if run("simnet") {
        bench_engine();
    }
    if run("deque") {
        bench_deque();
    }
    if run("end_to_end") {
        bench_end_to_end();
    }
    let record = build_record(started);
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
