//! Subcommand implementations.

use crate::args::{parse, parse_mapping, parse_paths, parse_steal, parse_victim, Flags};
use dws_core::{
    run_experiment, run_experiment_streamed, ExperimentConfig, ExperimentResult, FaultToleranceCfg,
    StreamingSpec, STREAMING_FLAGS,
};
use dws_simnet::{Brownout, Crash, CrashDomain, FaultPlan, Partition};

use dws_metrics::export::link_matrix_json;
use dws_metrics::perflab::{self, BenchMetric, BenchRecord, MetricDelta, Verdict};
use dws_metrics::{lifestory, render_table, write_csv, JsonValue, Summary};
use dws_topology::routing::Link;
use dws_uts::Workload;
use std::fs::File;
use std::io::{self, BufWriter, Write};

/// Flags every experiment-running subcommand understands.
const CONFIG_FLAGS: &[&str] = &[
    "tree",
    "nodes",
    "ranks",
    "mapping",
    "victim",
    "alpha",
    "local-tries",
    "steal",
    "lifelines",
    "seed",
    "chunk",
    "poll",
    "gen-rounds",
    "jitter",
    "fault-drop",
    "fault-dup",
    "fault-spike",
    "fault-spike-min-ns",
    "fault-spike-cap-ns",
    "fault-crash",
    "fault-brownout",
    "fault-partition",
    "fault-node-crash",
    "fault-timeout-mult",
    "threads",
    "alloc",
];

/// The `--tree` preset at `--gen-rounds` SHA rounds a node.
fn workload_flag(flags: &Flags, default: &str) -> Result<Workload, String> {
    let name = flags.get("tree").unwrap_or(default);
    let workload = dws_uts::presets::by_name(name).ok_or_else(|| {
        format!(
            "unknown preset {name:?}; available: {}",
            dws_uts::presets::all()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    match flags.parse_or("gen-rounds", 1u32)? {
        0 => Err("--gen-rounds must be at least 1".into()),
        rounds => Ok(workload.with_gen_rounds(rounds)),
    }
}

/// Split a `rank@rest` fault spec.
fn rank_at(spec: &str) -> Result<(u32, &str), String> {
    let (r, rest) = spec
        .split_once('@')
        .ok_or_else(|| format!("bad fault spec {spec:?} (expected rank@...)"))?;
    let rank = r
        .parse()
        .map_err(|_| format!("bad rank in fault spec {spec:?}"))?;
    Ok((rank, rest))
}

/// Build a [`FaultPlan`] from `--fault-*` flags (inactive when absent).
/// The mapping and node count expand `--fault-node-crash` node indices
/// into full per-node rank crash domains.
fn fault_plan_from(
    flags: &Flags,
    mapping: dws_topology::RankMapping,
    n_nodes: u32,
) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan {
        drop_prob: flags.parse_or("fault-drop", 0.0)?,
        dup_prob: flags.parse_or("fault-dup", 0.0)?,
        spike_prob: flags.parse_or("fault-spike", 0.0)?,
        ..FaultPlan::default()
    };
    plan.spike_min_ns = flags.parse_or("fault-spike-min-ns", plan.spike_min_ns)?;
    plan.spike_cap_ns = flags.parse_or("fault-spike-cap-ns", plan.spike_cap_ns)?;
    if let Some(list) = flags.get("fault-crash") {
        for spec in list.split(',') {
            let (rank, at) = rank_at(spec.trim())?;
            let at_ns = at
                .parse()
                .map_err(|_| format!("bad crash time in {spec:?} (expected rank@ns)"))?;
            plan.crashes.push(Crash { rank, at_ns });
        }
    }
    if let Some(list) = flags.get("fault-brownout") {
        for spec in list.split(',') {
            let (rank, rest) = rank_at(spec.trim())?;
            let (from, until) = rest
                .split_once(':')
                .ok_or_else(|| format!("bad brownout {spec:?} (expected rank@from:until)"))?;
            plan.brownouts.push(Brownout {
                rank,
                from_ns: from.parse().map_err(|_| format!("bad brownout {spec:?}"))?,
                until_ns: until
                    .parse()
                    .map_err(|_| format!("bad brownout {spec:?}"))?,
            });
        }
    }
    if let Some(list) = flags.get("fault-partition") {
        for spec in list.split(',') {
            let (boundary, rest) = rank_at(spec.trim())?;
            let (from, until) = rest
                .split_once(':')
                .ok_or_else(|| format!("bad partition {spec:?} (expected boundary@from:until)"))?;
            plan.partitions.push(Partition {
                boundary,
                from_ns: from
                    .parse()
                    .map_err(|_| format!("bad partition {spec:?}"))?,
                until_ns: until
                    .parse()
                    .map_err(|_| format!("bad partition {spec:?}"))?,
            });
        }
    }
    if let Some(list) = flags.get("fault-node-crash") {
        for spec in list.split(',') {
            let (node, at) = rank_at(spec.trim())?;
            if node >= n_nodes {
                return Err(format!(
                    "--fault-node-crash: node {node} out of range ({n_nodes} nodes)"
                ));
            }
            plan.crash_domains.push(CrashDomain {
                ranks: mapping.ranks_on_slot(node as usize, n_nodes),
                at_ns: at
                    .parse()
                    .map_err(|_| format!("bad node crash in {spec:?} (expected node@ns)"))?,
            });
        }
    }
    Ok(plan)
}

/// Parse `--alloc`: `compact`, `strip`, `scatter[:seed]`, or `torus`.
fn parse_alloc(name: &str) -> Result<dws_topology::AllocationPolicy, String> {
    use dws_topology::AllocationPolicy;
    Ok(match name {
        "compact" => AllocationPolicy::CompactRectangle,
        "strip" => AllocationPolicy::LinearStrip,
        "torus" => AllocationPolicy::TorusFill,
        other => {
            if let Some(rest) = other.strip_prefix("scatter") {
                let seed = match rest.strip_prefix(':') {
                    None if rest.is_empty() => 0,
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("bad scatter seed in --alloc {other:?}"))?,
                    None => return Err(format!("unknown --alloc {other:?}")),
                };
                AllocationPolicy::Scattered { seed }
            } else {
                return Err(format!(
                    "unknown --alloc {other:?}; expected compact, strip, \
                     scatter[:seed], or torus"
                ));
            }
        }
    })
}

fn config_from(flags: &Flags) -> Result<ExperimentConfig, String> {
    let workload = workload_flag(flags, "t3wl")?;
    let n_nodes: u32 = flags.parse_or("nodes", 128)?;
    let mut cfg = ExperimentConfig::new(workload, n_nodes);
    cfg.mapping = parse_mapping(flags.get("mapping").unwrap_or("1/N"))?;
    if let Some(ranks) = flags.parse_opt::<u32>("ranks")? {
        // `--ranks` talks about the quantity the paper plots; convert
        // through the mapping's ranks-per-node to physical nodes.
        let ppn = cfg.mapping.ppn();
        if ranks == 0 || ranks % ppn != 0 {
            return Err(format!(
                "--ranks {ranks} must be a positive multiple of the mapping's \
                 {ppn} ranks per node"
            ));
        }
        cfg.n_nodes = ranks / ppn;
    }
    let alpha: f64 = flags.parse_or("alpha", 1.0)?;
    let local_tries: u32 = flags.parse_or("local-tries", 4)?;
    (cfg.victim, cfg.adaptive) = parse_victim(
        flags.get("victim").unwrap_or("reference"),
        alpha,
        local_tries,
    )?;
    cfg.steal = parse_steal(flags.get("steal").unwrap_or("one"))?;
    cfg.lifeline_threshold = flags.parse_opt("lifelines")?;
    cfg.seed = flags.parse_or("seed", cfg.seed)?;
    cfg.chunk_size = flags.parse_or("chunk", cfg.chunk_size)?;
    cfg.poll_interval = flags.parse_or("poll", cfg.poll_interval)?;
    cfg.jitter = flags.parse_or("jitter", 0.0)?;
    if let Some(name) = flags.get("alloc") {
        cfg.alloc = parse_alloc(name)?;
    }
    if flags.has("no-trace") {
        cfg.collect_trace = false;
    }
    cfg.fault_plan = fault_plan_from(flags, cfg.mapping, cfg.n_nodes)?;
    if flags.has("fault-tolerant") {
        cfg.fault_tolerance = Some(FaultToleranceCfg::default());
    }
    if let Some(mult) = flags.parse_opt::<u32>("fault-timeout-mult")? {
        if mult == 0 {
            return Err("--fault-timeout-mult must be at least 1".into());
        }
        let mut ft = cfg.effective_fault_tolerance().unwrap_or_default();
        ft.timeout_mult = mult;
        cfg.fault_tolerance = Some(ft);
    }
    if let Some(raw) = flags.get("threads") {
        let ranks = cfg.mapping.rank_count(cfg.n_nodes);
        if raw == "auto" || raw == "0" {
            // `auto` (or the shell-friendly `0`) resolves to the host's
            // available parallelism, capped at the rank count — more
            // threads than ranks can only idle at the window barrier.
            let cores = std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1);
            cfg.threads = cores.min(ranks).max(1);
            eprintln!(
                "--threads auto: host reports {cores} hardware threads, \
                 job has {ranks} ranks -> running with {} threads",
                cfg.threads
            );
        } else {
            let threads = flags
                .parse_opt::<u32>("threads")?
                .expect("flag value present");
            if threads > ranks {
                eprintln!(
                    "warning: --threads {threads} exceeds the job's {ranks} ranks; \
                     extra threads will idle"
                );
            }
            cfg.threads = threads;
        }
    }
    // Surface config mistakes (bad probabilities, unknown ranks, a
    // rank-0 crash) as CLI errors instead of a panic inside the run.
    cfg.validate()?;
    Ok(cfg)
}

/// Pretty-print `Link` as e.g. `(1,0,2,0,0,0)+x`.
fn link_label(l: &Link) -> String {
    let axis = ["x", "y", "z", "a", "b", "c"][l.axis as usize];
    let sign = if l.positive { '+' } else { '-' };
    let c = l.from;
    format!(
        "({},{},{},{},{},{}){}{}",
        c.x, c.y, c.z, c.a, c.b, c.c, sign, axis
    )
}

/// Write one artifact of `dws run` to `path` through a buffered file
/// writer.
fn write_artifact(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), String> {
    let mut out = BufWriter::new(File::create(path).map_err(|e| format!("{path}: {e}"))?);
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing {path}: {e}"))
}

/// Emit the `--trace`, `--json`, and `--links` artifacts of a traced run.
fn write_observability(flags: &Flags, r: &ExperimentResult) -> Result<(), String> {
    if let Some(path) = flags.get("trace") {
        write_artifact(path, |out| {
            r.write_chrome_trace(out)?;
            writeln!(out)
        })?;
        println!("[chrome trace written to {path} — load in Perfetto or chrome://tracing]");
    }
    if let Some(path) = flags.get("json") {
        write_artifact(path, |out| writeln!(out, "{}", r.json_report()))?;
        println!("[run report written to {path}]");
    }
    if let Some(path) = flags.get("links") {
        let load = r
            .link_load()
            .expect("observability outputs imply a network trace");
        let rows: Vec<(String, u64)> = load
            .hottest(load.links_used())
            .iter()
            .map(|(l, units)| (link_label(l), *units))
            .collect();
        let doc = link_matrix_json(&rows, load.hotspot_factor());
        write_artifact(path, |out| writeln!(out, "{doc}"))?;
        println!("[per-link load matrix written to {path}]");
    }
    Ok(())
}

/// Valued output-file flags of `dws run`.
const OUTPUT_FLAGS: &[&str] = &["csv", "trace", "json", "links"];

/// Boolean flags of `dws run`.
const RUN_SWITCHES: &[&str] = &["lifestory", "fault-tolerant", "profile", "no-trace", "live"];

/// `dws run`
pub fn run(rest: &[String]) -> Result<(), String> {
    let valued: Vec<&str> = CONFIG_FLAGS
        .iter()
        .chain(OUTPUT_FLAGS)
        .chain(STREAMING_FLAGS)
        .copied()
        .collect();
    let flags = parse(rest, &valued, RUN_SWITCHES)?;
    let mut cfg = config_from(&flags)?;
    // Any observability artifact turns the span/network tracer on.
    cfg.collect_spans =
        flags.get("trace").is_some() || flags.get("json").is_some() || flags.get("links").is_some();
    cfg.profile = flags.has("profile");
    let stream_flags = STREAMING_FLAGS
        .iter()
        .filter_map(|&name| Some((name, flags.get(name)?)));
    let live = flags.has("live").then_some(("live", ""));
    let spec = StreamingSpec::parse(stream_flags.chain(live))?;
    let streaming = spec.map(|spec| spec.open()).transpose()?;
    eprintln!(
        "running {} on {} nodes ({} ranks), tree {}...",
        cfg.label(),
        cfg.n_nodes,
        cfg.mapping.rank_count(cfg.n_nodes),
        cfg.workload.name
    );
    let r = run_experiment_streamed(&cfg, streaming);
    println!("configuration : {}", r.label);
    println!("tree nodes    : {}", r.total_nodes);
    println!("makespan      : {}", r.makespan);
    println!("T1 (exact)    : {:.3}s", r.t1_ns as f64 / 1e9);
    println!("speedup       : {:.1}", r.perf.speedup());
    println!("efficiency    : {:.3}", r.perf.efficiency());
    let t = r.stats.total();
    println!(
        "steals        : {} ok, {} failed",
        t.steals_ok, t.steals_failed
    );
    println!(
        "sessions      : {:.0} per rank, avg {:.1} us",
        r.stats.avg_sessions_per_rank(),
        r.stats.avg_session_ns() / 1e3
    );
    println!(
        "search time   : avg {:.2} ms per rank",
        r.stats.avg_search_ns() / 1e6
    );
    if t.lifeline_pushes > 0 || t.lifeline_dormancies > 0 {
        println!(
            "lifelines     : {} dormancies, {} pushed chunks",
            t.lifeline_dormancies, t.lifeline_pushes
        );
    }
    if let Some(fr) = &r.fault {
        println!(
            "faults        : {} dropped, {} duplicated, {} spiked, {} brownout-lost, \
             {} partition-lost",
            fr.stats.dropped,
            fr.stats.duplicated,
            fr.stats.spiked,
            fr.stats.brownout_drops,
            fr.stats.partition_drops
        );
        println!(
            "recovery      : {} timeouts, {} retransmits, {} dup + {} stale replies dropped",
            t.steal_timeouts, t.retransmits, t.dup_replies_dropped, t.stale_replies_dropped
        );
        println!(
            "              : {} late-work absorptions, {} token regenerations",
            t.late_work_absorbed, t.token_regenerations
        );
        if !fr.crashed_ranks.is_empty() {
            println!(
                "crashed       : ranks {:?} — {} frontier nodes lost ({} nodes with subtrees)",
                fr.crashed_ranks, fr.lost_frontier_nodes, fr.lost_subtree_nodes
            );
        }
    }
    if t.quarantines > 0 || t.probe_steals > 0 || t.overlay_rejections > 0 {
        println!(
            "adaptive      : {} quarantines, {} probe steals, {} overlay rejections",
            t.quarantines, t.probe_steals, t.overlay_rejections
        );
    }
    if let Some(occ) = r.occupancy() {
        println!(
            "occupancy     : Wmax {}/{} ({:.0}%), average {:.1}%",
            occ.w_max(),
            occ.n_ranks(),
            100.0 * occ.w_max() as f64 / occ.n_ranks() as f64,
            100.0 * occ.average_occupancy()
        );
        for pct in [25u32, 50, 90] {
            let x = pct as f64 / 100.0;
            if let (Some(sl), Some(el)) = (occ.starting_latency(x), occ.ending_latency(x)) {
                println!(
                    "  SL({pct:2}%) = {:5.2}%   EL({pct:2}%) = {:5.2}%",
                    sl * 100.0,
                    el * 100.0
                );
            }
        }
    }
    if flags.has("lifestory") {
        if let Some(trace) = &r.trace {
            println!("\n{}", lifestory::render(trace, r.makespan.ns(), 72, 24));
        }
    }
    if r.profile.is_some() {
        print_profile(&r, cfg.threads);
    }
    if let Some(path) = flags.get("csv") {
        let header = [
            "rank",
            "nodes",
            "steals_ok",
            "steals_failed",
            "nodes_given",
            "nodes_received",
            "search_ns",
            "sessions",
        ];
        let rows: Vec<Vec<String>> = r
            .stats
            .per_rank
            .iter()
            .enumerate()
            .map(|(i, s)| {
                vec![
                    i.to_string(),
                    s.nodes_processed.to_string(),
                    s.steals_ok.to_string(),
                    s.steals_failed.to_string(),
                    s.nodes_given.to_string(),
                    s.nodes_received.to_string(),
                    s.search_ns.to_string(),
                    s.sessions.to_string(),
                ]
            })
            .collect();
        write_artifact(path, |out| write_csv(out, &header, &rows))?;
        println!("[per-rank stats written to {path}]");
    }
    write_observability(&flags, &r)?;
    if let Some(path) = flags.get("snapshot") {
        println!("[snapshot stream written to {path}; replay with `dws top {path}`]");
    }
    if !r.completed {
        // An aborted run dies loudly, after writing artifacts that say
        // `completed: false`.
        let limits: Vec<String> = ["wall-budget", "rss-budget-mb"]
            .iter()
            .filter_map(|&name| Some(format!("--{name} {}", flags.get(name)?)))
            .chain(dws_simnet::sigterm_requested().then(|| "SIGTERM".to_string()))
            .collect();
        return Err(format!(
            "the run was aborted before termination by {}",
            limits.join(" or ")
        ));
    }
    Ok(())
}

/// `dws chaos`
pub fn chaos(rest: &[String]) -> Result<(), String> {
    let flags = parse(
        rest,
        &[
            "tree",
            "nodes",
            "mapping",
            "steal",
            "seeds",
            "rates",
            "dup-frac",
            "spike-frac",
            "gen-rounds",
            "victim",
            "alpha",
            "local-tries",
            "fault-partition",
            "fault-node-crash",
            "threads",
        ],
        &[],
    )?;
    let workload = workload_flag(&flags, "t3sim-l")?;
    let n_nodes: u32 = flags.parse_or("nodes", 64)?;
    let mapping = parse_mapping(flags.get("mapping").unwrap_or("1/N"))?;
    let steal = parse_steal(flags.get("steal").unwrap_or("half"))?;
    let seeds: u64 = flags.parse_or("seeds", 2u64)?;
    let threads: u32 = flags.parse_or("threads", 1u32)?;
    let rates: Vec<f64> = flags
        .get("rates")
        .unwrap_or("0,0.01,0.02,0.05")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad rate {s:?}")))
        .collect::<Result<_, _>>()?;
    // Duplication and spike probabilities ride along as fractions of
    // the drop rate, so one knob sweeps the whole fault mix.
    let dup_frac: f64 = flags.parse_or("dup-frac", 0.5)?;
    let spike_frac: f64 = flags.parse_or("spike-frac", 1.0)?;
    // Structural faults (partitions, whole-node crash domains) apply on
    // top of every rate in the sweep.
    let structural = fault_plan_from(&flags, mapping, n_nodes)?;
    // `--victim` narrows the sweep to one policy (e.g. `adaptive` for
    // the failure-aware overlay); default is the paper's static trio.
    let strategies: Vec<(dws_core::VictimPolicy, bool)> = if let Some(name) = flags.get("victim") {
        let alpha: f64 = flags.parse_or("alpha", 1.0)?;
        let local_tries: u32 = flags.parse_or("local-tries", 4)?;
        vec![parse_victim(name, alpha, local_tries)?]
    } else {
        vec![
            (dws_core::VictimPolicy::RoundRobin, false),
            (dws_core::VictimPolicy::Uniform, false),
            (dws_core::VictimPolicy::DistanceSkewed { alpha: 1.0 }, false),
        ]
    };
    let mut rows = Vec::new();
    for &rate in &rates {
        for &(victim, adaptive) in &strategies {
            let mut base = ExperimentConfig::new(workload.clone(), n_nodes);
            base.mapping = mapping;
            base.victim = victim;
            base.adaptive = adaptive;
            base.steal = steal;
            base.collect_trace = false;
            base.threads = threads;
            let label = base.victim_label();
            let mut makespan_ms = Summary::new();
            let mut timeouts = Summary::new();
            let mut retransmits = Summary::new();
            let mut stale = Summary::new();
            let mut quarantines = Summary::new();
            for k in 0..seeds {
                let mut cfg = base.clone();
                cfg.seed = 0xC4A0_5000 + k;
                let mut plan = FaultPlan::message_faults(rate, rate * dup_frac, rate * spike_frac);
                plan.partitions = structural.partitions.clone();
                plan.crash_domains = structural.crash_domains.clone();
                cfg.fault_plan = plan;
                cfg.validate()?;
                eprint!("  {label} rate={rate} seed={k}...        \r");
                let r = run_experiment(&cfg);
                let t = r.stats.total();
                makespan_ms.add(r.makespan.ns() as f64 / 1e6);
                timeouts.add(t.steal_timeouts as f64);
                retransmits.add(t.retransmits as f64);
                stale.add((t.stale_replies_dropped + t.dup_replies_dropped) as f64);
                quarantines.add(t.quarantines as f64);
            }
            rows.push(vec![
                format!("{rate}"),
                label.to_string(),
                makespan_ms.display(2),
                format!("{:.0}", timeouts.mean()),
                format!("{:.0}", retransmits.mean()),
                format!("{:.0}", stale.mean()),
                format!("{:.0}", quarantines.mean()),
            ]);
        }
    }
    eprintln!();
    println!(
        "{}",
        render_table(
            &[
                "drop rate",
                "strategy",
                "makespan ms (mean ± sd)",
                "timeouts",
                "retransmits",
                "dup+stale dropped",
                "quarantines",
            ],
            &rows
        )
    );
    Ok(())
}

/// `dws tree`
pub fn tree(rest: &[String]) -> Result<(), String> {
    let flags = parse(rest, &["tree", "limit", "gen-rounds"], &[])?;
    let w = workload_flag(&flags, "t3sim-l")?;
    let limit: u64 = flags.parse_or("limit", 60_000_000u64)?;
    eprintln!("measuring {}...", w.name);
    let shape = dws_uts::measure_shape(&w, limit)
        .ok_or_else(|| format!("tree exceeds --limit {limit} nodes"))?;
    println!("preset          : {}", w.name);
    println!("spec            : {:?}", w.spec);
    println!("nodes           : {}", shape.nodes);
    println!("max depth       : {}", shape.max_depth);
    println!("root subtrees   : {}", shape.root_subtree_sizes.len());
    println!(
        "largest subtree : {} nodes ({:.1}% of tree)",
        shape.root_subtree_sizes.first().copied().unwrap_or(0),
        100.0 * shape.largest_subtree_fraction()
    );
    println!("subtree gini    : {:.3}", shape.subtree_gini());
    println!("peak frontier   : {} nodes", shape.peak_frontier);
    println!(
        "feedable ranks  : ~{} (at 2 chunks of 20 per rank)",
        shape.feedable_ranks(40)
    );
    Ok(())
}

/// Render the engine self-profile of a run: per-phase wall time,
/// throughput, allocation rate, peak RSS, and the tree floor (what the
/// run's nodes cost to generate with nothing around them). `threads`
/// is the *resolved* worker count (after `--threads auto`), so the
/// table is honest about what actually ran.
fn print_profile(r: &ExperimentResult, threads: u32) {
    let p = r.profile.as_ref().expect("print_profile needs a profile");
    println!();
    println!(
        "profile       : {:.1} ms wall, {} events, {:.0} events/s",
        p.wall_ns as f64 / 1e6,
        p.events,
        p.events_per_sec()
    );
    println!(
        "threads       : {threads} resolved, {} cut (units {}, shards {}, lookahead {} ns), \
         {} lookahead windows",
        r.cut.class.name(),
        r.cut.units,
        r.cut.shards,
        r.cut.lookahead_ns,
        r.window_plan.1
    );
    if p.allocs > 0 {
        println!(
            "allocations   : {} total, {:.2} per event",
            p.allocs,
            p.allocs_per_event()
        );
    } else {
        println!("allocations   : unavailable (counting allocator not installed)");
    }
    if p.peak_rss_bytes > 0 {
        println!(
            "peak RSS      : {:.1} MiB",
            p.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    println!(
        "tree floor    : {} nodes × {:.1} ns/child = {:.1} ms ({:.1}% of wall)",
        p.tree_nodes,
        p.child_ns,
        p.tree_floor_ns() / 1e6,
        100.0 * p.tree_floor_share()
    );
    let rows: Vec<Vec<String>> = p
        .phases
        .iter()
        .map(|(name, calls, total_ns)| {
            let per_call = if *calls > 0 {
                *total_ns as f64 / *calls as f64
            } else {
                0.0
            };
            vec![
                name.clone(),
                calls.to_string(),
                format!("{:.2}", *total_ns as f64 / 1e6),
                format!("{per_call:.0}"),
                format!("{:.1}", 100.0 * *total_ns as f64 / p.wall_ns.max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["phase", "calls", "total ms", "ns/call", "% of wall"],
            &rows
        )
    );
    if !p.shards.is_empty() {
        let rows: Vec<Vec<String>> = p
            .shards
            .iter()
            .map(|(shard, ranks, events, windows, busy_ns, wait_ns)| {
                let turnaround = busy_ns + wait_ns;
                vec![
                    shard.to_string(),
                    ranks.to_string(),
                    events.to_string(),
                    windows.to_string(),
                    format!("{:.2}", *busy_ns as f64 / 1e6),
                    format!("{:.2}", *wait_ns as f64 / 1e6),
                    format!("{:.1}", 100.0 * *busy_ns as f64 / turnaround.max(1) as f64),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["shard", "ranks", "events", "windows", "busy ms", "wait ms", "% busy"],
                &rows
            )
        );
    }
}

/// One side of a `dws diff`: its comparable metrics, its config
/// fingerprint when known, and a human label.
struct DiffSide {
    metrics: Vec<BenchMetric>,
    fingerprint: Option<String>,
    label: String,
}

/// Load a diffable artifact: a run report (`dws run --json`) or a
/// single bench record. Anything else is an error naming the path.
fn load_diff_side(path: &str) -> Result<DiffSide, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = dws_metrics::export::parse(text.trim()).map_err(|e| {
        format!("{path}: not a run report or a bench record (not one JSON document: {e})")
    })?;
    if perflab::is_run_report(&doc) {
        let label = doc
            .get("label")
            .and_then(|v| v.as_str())
            .unwrap_or("run report");
        return Ok(DiffSide {
            metrics: perflab::metrics_from_run_report(&doc),
            fingerprint: perflab::fingerprint_of_doc(&doc),
            label: format!("{path} ({label})"),
        });
    }
    let rec = BenchRecord::from_json(&doc)
        .map_err(|e| format!("{path}: not a run report or a bench record ({e})"))?;
    Ok(DiffSide {
        label: format!("{path} ({}, {})", rec.bench, rec.git_rev),
        fingerprint: Some(rec.fingerprint),
        metrics: rec.metrics,
    })
}

/// Compact number formatting for the diff table.
fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e7 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// `dws diff <a> <b>` — per-metric deltas between two runs with a
/// noise-aware verdict. Exits 2 when any metric regresses, so CI can
/// gate on it.
pub fn diff(rest: &[String]) -> Result<(), String> {
    let flags = parse_paths(rest, &["tol"], &[])?;
    let tol: f64 = flags.parse_or("tol", 0.02)?;
    if !(0.0..10.0).contains(&tol) {
        return Err(format!("--tol {tol} outside [0, 10)"));
    }
    let [a_spec, b_spec] = &flags.paths[..] else {
        return Err("diff needs exactly two artifacts: dws diff <a> <b> [--tol f]".into());
    };
    let a = load_diff_side(a_spec)?;
    let b = load_diff_side(b_spec)?;
    println!("A: {}", a.label);
    println!("B: {}", b.label);
    if let (Some(fa), Some(fb)) = (&a.fingerprint, &b.fingerprint) {
        if fa != fb {
            println!(
                "note: config fingerprints differ ({fa} vs {fb}) — deltas may \
                 reflect configuration changes, not code changes"
            );
        }
    }
    let deltas = perflab::compare(&a.metrics, &b.metrics, tol);
    if deltas.is_empty() {
        return Err("the two artifacts share no metric names — nothing to compare".into());
    }
    let skipped = a.metrics.len().max(b.metrics.len()) - deltas.len();
    if skipped > 0 {
        println!("({skipped} metrics present on only one side were skipped)");
    }
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .map(|d: &MetricDelta| {
            vec![
                d.name.clone(),
                fmt_num(d.a),
                fmt_num(d.b),
                format!("{:+.2}%", 100.0 * d.rel),
                fmt_num(d.threshold),
                d.verdict.label().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["metric", "A", "B", "delta", "threshold", "verdict"],
            &rows
        )
    );
    let regressions = deltas
        .iter()
        .filter(|d| d.verdict == Verdict::Regression)
        .count();
    let improvements = deltas
        .iter()
        .filter(|d| d.verdict == Verdict::Improvement)
        .count();
    let overall = if regressions > 0 {
        "REGRESSION"
    } else if improvements > 0 {
        "improvement"
    } else {
        "within-noise"
    };
    println!(
        "verdict: {overall} ({regressions} regressed, {improvements} improved, \
         {} within noise, tol {tol})",
        deltas.len() - regressions - improvements
    );
    if regressions > 0 {
        // Exit 2 distinguishes "a metric regressed" from usage errors
        // (exit 1), so CI can gate precisely.
        std::process::exit(2);
    }
    Ok(())
}

/// `dws top <snapshots.jsonl>` — replay a snapshot stream (or the
/// snapshot line of a flight dump) as the `--live` terminal view, then
/// summarize it. A run report (`dws run --json`) is accepted too: its
/// histogram quantiles are summarized instead of a replay. Errors when
/// the file holds neither, so CI can use it as a stream validator.
pub fn top(rest: &[String]) -> Result<(), String> {
    let flags = parse_paths(rest, &["tail"], &[])?;
    let [path] = &flags.paths[..] else {
        return Err("usage: dws top <snapshots.jsonl | report.json> [--tail <n>]".into());
    };
    let tail: usize = flags.parse_or("tail", usize::MAX)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut snaps: Vec<dws_metrics::Snapshot> = Vec::new();
    let mut histograms: Option<JsonValue> = None;
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match dws_metrics::export::parse(line)
            .ok()
            .and_then(|doc| dws_metrics::Snapshot::from_json(&doc).ok())
        {
            Some(snap) => snaps.push(snap),
            // Flight dumps interleave header and event lines with the
            // snapshot; anything non-snapshot is skipped, not fatal —
            // except a run report, whose histograms we summarize.
            None => match dws_metrics::export::parse(line)
                .ok()
                .and_then(|doc| doc.get("histograms").cloned())
            {
                Some(h) => histograms = Some(h),
                None => skipped += 1,
            },
        }
    }
    if snaps.is_empty() && histograms.is_none() {
        return Err(format!(
            "{path}: no well-formed snapshot lines (schema {}; {skipped} other lines)",
            dws_metrics::SNAPSHOT_SCHEMA_VERSION
        ));
    }
    if !snaps.is_empty() {
        let start = snaps.len().saturating_sub(tail);
        for snap in &snaps[start..] {
            println!("{}", snap.progress_line());
        }
        let last = snaps.last().expect("non-empty");
        println!(
            "---\n{} snapshots ({} other lines) | wall {:.1}s | final: {} events, {} ranks busy (peak {}), \
             {} steals ok / {} empty",
            snaps.len(),
            skipped,
            last.wall_ms as f64 / 1e3,
            last.events,
            last.active_workers,
            last.w_max,
            last.steals_ok,
            last.steals_empty,
        );
    }
    if let Some(h) = &histograms {
        print_histogram_quantiles(h);
    }
    Ok(())
}

/// Print the quantile summary (p50/p95/p99) of every log-bucketed
/// histogram in a run report's `histograms` section.
fn print_histogram_quantiles(histograms: &JsonValue) {
    let JsonValue::Obj(pairs) = histograms else {
        return;
    };
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .filter_map(|(name, hist)| {
            let q = |k: &str| hist.get(k).and_then(|v| v.as_u64());
            Some(vec![
                name.clone(),
                q("count")?.to_string(),
                q("p50")?.to_string(),
                q("p95")?.to_string(),
                q("p99")?.to_string(),
                q("max")?.to_string(),
            ])
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    println!(
        "{}",
        render_table(&["histogram", "count", "p50", "p95", "p99", "max"], &rows)
    );
}

/// `dws why <report.json>` — explain where a run's makespan went by
/// rendering the blame section of a run report (from `dws run --json`).
/// Exits 2 when the attribution-sum invariant fails, so CI can gate on
/// it.
pub fn why(rest: &[String]) -> Result<(), String> {
    let [p] = &parse_paths(rest, &[], &[])?.paths[..] else {
        return Err("usage: dws why <report.json> (write one with `dws run --json`)".into());
    };
    let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
    let doc = dws_metrics::export::parse(text.trim()).map_err(|e| format!("{p}: {e}"))?;
    if let Err(e) = dws_metrics::blame::verify_report(&doc) {
        // Distinct from usage errors (exit 1).
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    print!("{}", dws_metrics::blame::render_report(&doc)?);
    Ok(())
}

/// `dws shmem`
pub fn shmem(rest: &[String]) -> Result<(), String> {
    let flags = parse(rest, &["tree", "workers", "gen-rounds"], &[])?;
    let w = workload_flag(&flags, "t3sim-l")?;
    let workers: usize = flags.parse_or("workers", 4usize)?;
    eprintln!("searching {} with {workers} threads...", w.name);
    let result = dws_shmem::parallel_search(&w, workers);
    println!("nodes      : {}", result.stats.nodes);
    println!("leaves     : {}", result.stats.leaves);
    println!("max depth  : {}", result.stats.max_depth);
    println!("elapsed    : {:?}", result.elapsed);
    let rows: Vec<Vec<String>> = result
        .workers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                i.to_string(),
                s.nodes.to_string(),
                s.steals.to_string(),
                s.failed_steals.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["worker", "nodes", "steals", "failed"], &rows)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_run_flag() {
        let usage = crate::usage();
        // `--name` must appear whole: `--fault-spike` does not count as
        // written out by `--fault-spike-min-ns`.
        let listed = |name: &str| {
            let flag = format!("--{name}");
            usage.match_indices(&flag).any(|(at, _)| {
                !usage[at + flag.len()..]
                    .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
            })
        };
        let missing: Vec<&str> = [CONFIG_FLAGS, STREAMING_FLAGS, OUTPUT_FLAGS, RUN_SWITCHES]
            .concat()
            .into_iter()
            .filter(|name| !listed(name))
            .collect();
        assert!(missing.is_empty(), "`dws help` omits {missing:?}");
    }

    #[test]
    fn config_errors_name_their_flag_instead_of_running() {
        let config_err = |extra: &[&str]| {
            let args: Vec<String> = ["--tree", "t3sim-xs", "--ranks", "16"]
                .iter()
                .chain(extra)
                .map(|s| s.to_string())
                .collect();
            run(&args).expect_err("the config is refused")
        };
        // A zero multiplier arms every recovery timer at 0 ns.
        let err = config_err(&["--fault-drop", "0.01", "--fault-timeout-mult", "0"]);
        assert!(err.contains("--fault-timeout-mult"), "{err}");
        // A NaN exponent reaches the alias table's weight check.
        for victim in ["tofu", "latskew"] {
            let err = config_err(&["--victim", victim, "--alpha", "nan"]);
            assert!(err.contains("alpha"), "{err}");
        }
        // Tofu's rejection sampler accepts with 1/e^alpha.
        let err = config_err(&["--victim", "tofu", "--alpha", "-1"]);
        assert!(err.contains("--alpha"), "{err}");
        // Every weight 1/x^alpha underflows to 0.
        for (victim, alpha) in [("latskew", "100"), ("latskew", "inf"), ("tofu", "700")] {
            let err = config_err(&["--victim", victim, "--alpha", alpha]);
            assert!(err.contains("--alpha"), "{err}");
        }
        // `with_gen_rounds` asserts at least one round.
        let err = config_err(&["--gen-rounds", "0"]);
        assert!(err.contains("--gen-rounds"), "{err}");
    }

    #[test]
    fn help_after_any_command_prints_usage_instead_of_running() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let help = Err(crate::args::HELP.to_string());
        for cmd in [
            "run", "chaos", "tree", "shmem", "diff", "top", "why", "help",
        ] {
            for flag in ["--help", "-h"] {
                assert_eq!(crate::dispatch(cmd, &args(&[flag])), help, "{cmd} {flag}");
            }
        }
        // After other flags and positionals, before any work is done.
        for (cmd, rest) in [
            ("run", &["--tree", "t3sim-xs", "-h"][..]),
            ("diff", &["a.json", "b.json", "--help"]),
            ("top", &["missing.jsonl", "--tail", "3", "-h"]),
            ("why", &["missing.json", "-h"]),
        ] {
            assert_eq!(crate::dispatch(cmd, &args(rest)), help, "{cmd} {rest:?}");
        }
        // An unknown command stays an error, and a flag's value is a value.
        let err = crate::dispatch("bogus", &args(&["--help"])).unwrap_err();
        assert!(err.starts_with("unknown command \"bogus\""), "{err}");
        let flags = parse(&args(&["--json", "-h"]), &["json"], &[]).unwrap();
        assert_eq!(flags.get("json"), Some("-h"));
    }

    #[test]
    fn diff_loads_one_report_or_one_record_per_file() {
        let dir = std::env::temp_dir().join(format!("dws-diff-sides-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let rec = BenchRecord {
            schema: perflab::BENCH_SCHEMA_VERSION,
            bench: "micro".into(),
            git_rev: "abc1234".into(),
            fingerprint: perflab::fingerprint("micro"),
            trial_seed: 0,
            unix_time_s: 1,
            trials: 7,
            threads: 1,
            metrics: vec![BenchMetric::point(
                "m",
                "ns",
                perflab::Polarity::LowerIsBetter,
                5.0,
            )],
        };
        let line = rec.to_json().to_string();
        // A bench record, labelled with its bench and rev; a name with
        // `@` in it is a path like any other.
        for name in ["record.json", "record.json@0", "record@-1"] {
            std::fs::write(path(name), format!("{line}\n")).unwrap();
            let side = load_diff_side(&path(name)).unwrap();
            assert_eq!(side.label, format!("{} (micro, abc1234)", path(name)));
            assert_eq!(side.fingerprint, Some(rec.fingerprint.clone()));
            assert_eq!(side.metrics, rec.metrics);
        }
        // A `dws run --json` report.
        let report = path("report.json");
        let args = ["--tree", "t3sim-xs", "--ranks", "4", "--json", &report].map(String::from);
        run(&args).unwrap();
        let side = load_diff_side(&report).unwrap();
        assert!(side.metrics.iter().any(|m| m.name == "makespan_ns"));
        assert!(side.fingerprint.is_some());
        // Two records in one file are neither artifact.
        let jsonl = path("two.jsonl");
        std::fs::write(&jsonl, format!("{line}\n{line}\n")).unwrap();
        let err = load_diff_side(&jsonl)
            .err()
            .expect("a JSON-lines file is refused");
        assert!(err.starts_with(&jsonl), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_aborted_run_writes_its_artifacts_then_fails() {
        let dir = std::env::temp_dir().join(format!("dws-aborted-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("report.json");
        let args = [
            "--tree",
            "t3sim-xs",
            "--nodes",
            "16",
            "--wall-budget",
            "0ns",
            "--json",
            json.to_str().unwrap(),
        ]
        .map(String::from);
        let err = run(&args).expect_err("an aborted run fails");
        assert!(err.contains("--wall-budget 0ns"), "{err}");
        let report = std::fs::read_to_string(&json).unwrap();
        let report = dws_metrics::export::parse(report.trim()).unwrap();
        assert_eq!(report.get("completed"), Some(&JsonValue::Bool(false)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
