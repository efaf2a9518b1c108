//! Every figure that simulates, as one table. An entry says what to
//! run, how the runs fold into rows and how to chart the rows; [`run`]
//! is the one driver, behind `figures <id>`.
//!
//! Most rows come from one run each. fig16 folds three runs into a row,
//! and fig04, fig05, fig12 and fig13 fan one run's occupancy curve out
//! into many rows. `ablation_fault_crash` and `ablation_adaptive` time
//! their faults from clean makespans, so they run a second stage built
//! from the first stage's makespans.

use crate::{chart, emit, f, run_logged, strategy, FigArgs, Samples, MAPPINGS, STRATEGIES};
use dws_core::{ExperimentConfig, ExperimentResult, StealAmount, VictimPolicy};
use dws_metrics::Component;
use dws_simnet::{Brownout, Crash, CrashDomain, FaultPlan, Partition};
use dws_topology::{LatencyParams, RankMapping};
use dws_uts::Workload;

/// One run of a figure: its leading columns and what to simulate.
struct Cell {
    /// Leading columns.
    lead: Vec<String>,
    /// The run.
    cfg: ExperimentConfig,
}

/// A cell that ran: its leading columns and its result.
struct Run {
    lead: Vec<String>,
    r: ExperimentResult,
}

/// One figure: its runs, in order, and how they fold into rows.
pub struct Figure {
    /// CSV and bench-record name.
    pub id: &'static str,
    /// Table title.
    title: &'static str,
    /// Column names.
    header: &'static [&'static str],
    /// Every run of the first stage, in run order.
    cells: fn(&FigArgs) -> Vec<Cell>,
    /// A second stage, run after the first.
    then: Option<Then>,
    /// The rows, from every run of both stages, in run order.
    rows: fn(&[Run]) -> Vec<Vec<String>>,
    /// The chart, read from the rows.
    chart: Option<Chart>,
}

/// A second stage's runs, in run order, built from the first stage's
/// makespans in ns.
type Then = fn(&FigArgs, &[u64]) -> Vec<Cell>;

/// A chart read from a figure's rows.
#[derive(Clone, Copy)]
enum Chart {
    /// Column 2 over column 1, one series per run of equal column 0:
    /// y over ranks (or occupancy), one series per config.
    PerConfig(&'static str),
    /// Every other column over column 0, one series per column, named
    /// by its header.
    PerColumn(&'static str),
}

impl Chart {
    fn draw<'a>(self, header: &[&'a str], rows: &'a [Vec<String>]) -> String {
        let num = |cell: &str| -> f64 { cell.parse().expect("charted columns are numeric") };
        let (title, x, ys, by) = match self {
            Chart::PerConfig(title) => (title, 1, 2..3, Some(0)),
            Chart::PerColumn(title) => (title, 0, 1..header.len(), None),
        };
        let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
        for y in ys {
            for row in rows {
                let label = by.map_or(header[y], |c| row[c].as_str());
                let point = (num(&row[x]), num(&row[y]));
                match series.last_mut() {
                    Some((l, points)) if *l == label => points.push(point),
                    _ => series.push((label, vec![point])),
                }
            }
        }
        chart(title, &series)
    }
}

/// A chart line: legend label, strategy name, mapping.
type Line = (String, &'static str, RankMapping);

/// The line `"{strategy} {mapping}"`.
fn line(strategy: &'static str, mapping: RankMapping) -> Line {
    (format!("{strategy} {}", mapping.label()), strategy, mapping)
}

/// One line per paper mapping.
fn per_mapping(strategy: &'static str) -> impl Iterator<Item = Line> {
    MAPPINGS.iter().map(move |m| line(strategy, *m))
}

/// Every line at every rank count, line-major, untraced.
fn sweep(
    args: &FigArgs,
    tree: Workload,
    ranks: &[u32],
    lines: impl IntoIterator<Item = Line>,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (label, name, mapping) in lines {
        let (victim, steal) = strategy(name);
        for &r in ranks {
            let mut cfg = args
                .config(tree.clone(), r / mapping.ppn())
                .with_victim(victim)
                .with_steal(steal)
                .with_mapping(mapping);
            cfg.collect_trace = false;
            let lead = vec![label.clone()];
            cells.push(Cell { lead, cfg });
        }
    }
    cells
}

/// [`sweep`] on the large tree at the large rank counts.
fn large(args: &FigArgs, lines: impl IntoIterator<Item = Line>) -> Vec<Cell> {
    sweep(args, args.large_tree(), &args.large_ranks(), lines)
}

/// Reference 1/N followed by `strategy` under every mapping.
fn reference_and(args: &FigArgs, strategy: &'static str) -> Vec<Cell> {
    let reference = line("Reference", RankMapping::OneToOne);
    large(
        args,
        std::iter::once(reference).chain(per_mapping(strategy)),
    )
}

/// A figure of one unlabelled run.
fn one(cfg: ExperimentConfig) -> Vec<Cell> {
    let lead = Vec::new();
    vec![Cell { lead, cfg }]
}

/// Reference and Tofu Half at the flagship rank count, 1/N, traced.
fn reference_vs_tofu_half(args: &FigArgs) -> Vec<Cell> {
    ["Reference", "Tofu Half"]
        .map(|name| {
            let (victim, steal) = strategy(name);
            let cfg = args
                .config(args.large_tree(), args.flagship_ranks())
                .with_victim(victim)
                .with_steal(steal);
            let lead = vec![name.to_string()];
            Cell { lead, cfg }
        })
        .into()
}

/// Rank count of the single-scale ablations: `compressed`, or 1,024
/// under `--full`.
fn ablation_ranks(args: &FigArgs, compressed: u32) -> u32 {
    if args.full {
        1024
    } else {
        compressed
    }
}

/// Every knob value × every named strategy, knob-major, at
/// [`ablation_ranks`] 256; the leading columns are the knob's label and
/// the strategy.
fn knob_sweep<L: ToString, K>(
    args: &FigArgs,
    knobs: impl IntoIterator<Item = (L, K)>,
    names: &[&str],
    set: impl Fn(&mut ExperimentConfig, &K),
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (label, knob) in knobs {
        for &name in names {
            let mut cfg = ablation(args, ablation_ranks(args, 256), strategy(name));
            set(&mut cfg, &knob);
            let lead = vec![label.to_string(), name.to_string()];
            cells.push(Cell { lead, cfg });
        }
    }
    cells
}

/// An untraced large-tree ablation run.
fn ablation(
    args: &FigArgs,
    n_nodes: u32,
    (victim, steal): (VictimPolicy, StealAmount),
) -> ExperimentConfig {
    let mut cfg = args
        .config(args.large_tree(), n_nodes)
        .with_victim(victim)
        .with_steal(steal);
    cfg.collect_trace = false;
    cfg
}

/// A traced small-tree run at [`ablation_ranks`] 128, the fault
/// ablations' scale.
fn small(args: &FigArgs, (victim, steal): (VictimPolicy, StealAmount)) -> ExperimentConfig {
    args.config(args.small_tree(), ablation_ranks(args, 128))
        .with_victim(victim)
        .with_steal(steal)
}

/// One row per run: its leading columns, then `row`'s.
fn each(runs: &[Run], row: impl Fn(&ExperimentResult) -> Vec<String>) -> Vec<Vec<String>> {
    runs.iter()
        .map(|run| run.lead.iter().cloned().chain(row(&run.r)).collect())
        .collect()
}

fn session_us(r: &ExperimentResult, prec: usize) -> String {
    f(r.stats.avg_session_ns() / 1000.0, prec)
}

fn ranks_speedup(r: &ExperimentResult) -> Vec<String> {
    vec![r.n_ranks.to_string(), f(r.perf.speedup(), 1)]
}

fn ranks_failed(r: &ExperimentResult) -> Vec<String> {
    vec![r.n_ranks.to_string(), r.stats.failed_steals().to_string()]
}

/// One row per whole occupancy percent up to `upto` (by default the
/// run's peak, at least 1) at which every picked latency (0 = SL,
/// 1 = EL) is defined: the run's leading columns, the percent, then
/// each picked latency in % of runtime.
fn latencies(run: &Run, upto: Option<u32>, picked: &[usize], prec: usize) -> Vec<Vec<String>> {
    let occ = run.r.occupancy().expect("activity trace collected");
    let peak = (100 * occ.w_max() / occ.n_ranks()).max(1);
    occ.latency_series(upto.unwrap_or(peak))
        .into_iter()
        .filter_map(|(pct, sl, el)| {
            let values: Option<Vec<String>> = picked
                .iter()
                .map(|&i| [sl, el][i].map(|v| f(v * 100.0, prec)))
                .collect();
            let lead = run.lead.iter().cloned().chain([pct.to_string()]);
            Some(lead.chain(values?).collect())
        })
        .collect()
}

/// The steal-half strategies, Reference first.
const HALF: [&str; 3] = ["Reference Half", "Rand Half", "Tofu Half"];

/// `ablation_adaptive`'s policies: static 1/d-skew, and the same with
/// the adaptive overlay.
const OVERLAY: [(&str, bool); 2] = [("Tofu", false), ("AdaptTofu", true)];

/// A traced `ablation_adaptive` run of 1/d-skew under `mapping`.
fn adaptive_cfg(args: &FigArgs, mapping: RankMapping, adaptive: bool) -> ExperimentConfig {
    let n_nodes = ablation_ranks(args, 128) / mapping.ppn();
    let mut cfg = args
        .config(args.small_tree(), n_nodes)
        .with_mapping(mapping)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 });
    cfg.adaptive = adaptive;
    cfg
}

/// `ablation_adaptive`'s correlated faults under `mapping`, timed from
/// the static clean makespan `t_ns`: one physical node's worth of ranks
/// away from rank 0 (which owns the token ring and may not die) crashes
/// at T/4, or browns out, or the network splits in half, over
/// [T/4, 3T/4).
fn correlated_faults(args: &FigArgs, mapping: RankMapping, t_ns: u64) -> [(&str, FaultPlan); 3] {
    let ranks = ablation_ranks(args, 128);
    let n_nodes = ranks / mapping.ppn();
    let (from_ns, until_ns) = (t_ns / 4, t_ns * 3 / 4);
    let slot = (n_nodes / 3).max(1) as usize;
    let domain = mapping.ranks_on_slot(slot, n_nodes);
    let brownouts = domain
        .iter()
        .map(|&rank| Brownout {
            rank,
            from_ns,
            until_ns,
        })
        .collect();
    [
        (
            "node-crash",
            FaultPlan {
                crash_domains: vec![CrashDomain {
                    ranks: domain,
                    at_ns: from_ns,
                }],
                ..FaultPlan::default()
            },
        ),
        (
            "partition",
            FaultPlan {
                partitions: vec![Partition {
                    boundary: ranks / 2,
                    from_ns,
                    until_ns,
                }],
                ..FaultPlan::default()
            },
        ),
        (
            "brownout",
            FaultPlan {
                brownouts,
                ..FaultPlan::default()
            },
        ),
    ]
}

/// Time the last tree node was processed, before the termination wave.
fn work_done_ns(r: &ExperimentResult) -> u64 {
    r.occupancy()
        .and_then(|occ| occ.last_reach_ns(0.0))
        .unwrap_or_else(|| r.makespan.ns())
}

/// The table, in `run_all_figures.sh` order.
pub const FIGURES: &[Figure] = &[
    // Figure 2: efficiency of the reference implementation, 8–128
    // ranks, under the three process allocations, on T3XXL.
    Figure {
        id: "fig02",
        title: "Efficiency of the reference implementation, 8-128 ranks",
        header: &["config", "ranks", "efficiency", "makespan_s"],
        cells: |a| {
            sweep(
                a,
                a.small_tree(),
                &a.small_ranks(),
                per_mapping("Reference"),
            )
        },
        then: None,
        rows: |runs| {
            each(runs, |r| {
                vec![
                    r.n_ranks.to_string(),
                    f(r.perf.efficiency(), 4),
                    f(r.makespan.as_secs_f64(), 4),
                ]
            })
        },
        chart: Some(Chart::PerConfig("efficiency vs ranks")),
    },
    // Figure 3: the reference implementation at large scale (paper:
    // 1,024–8,192 ranks on T3WL).
    Figure {
        id: "fig03",
        title: "Speedup of the reference implementation at large scale",
        header: &["config", "ranks", "speedup", "makespan_s"],
        cells: |a| large(a, per_mapping("Reference")),
        then: None,
        rows: |runs| {
            each(runs, |r| {
                vec![
                    r.n_ranks.to_string(),
                    f(r.perf.speedup(), 1),
                    f(r.makespan.as_secs_f64(), 4),
                ]
            })
        },
        chart: Some(Chart::PerConfig("speedup vs ranks")),
    },
    // Figure 4: starting and ending latencies of the reference
    // implementation at 128 ranks (1/N): both stay tiny — the scheduler
    // fills and drains the machine almost instantly at small scale.
    Figure {
        id: "fig04",
        title: "Starting/ending latency, Reference 1/N, 128 ranks",
        header: &["occupancy_%", "SL_%runtime", "EL_%runtime"],
        cells: |a| one(a.config(a.small_tree(), 128)),
        then: None,
        rows: |runs| latencies(&runs[0], Some(90), &[0, 1], 3),
        chart: Some(Chart::PerColumn("latency (% of runtime) vs occupancy (%)")),
    },
    // Figure 5: the same at the largest scale — the paper's smoking
    // gun: the scheduler "struggles to provide work to most workers"
    // (their 8,192-rank run never exceeded 43% occupancy). The rows end
    // at the run's peak occupancy.
    Figure {
        id: "fig05",
        title: "Starting/ending latency, Reference 1/N, largest scale",
        header: &["occupancy_%", "SL_%runtime", "EL_%runtime"],
        cells: |a| one(a.config(a.large_tree(), a.flagship_ranks())),
        then: None,
        rows: |runs| latencies(&runs[0], None, &[0, 1], 2),
        chart: Some(Chart::PerColumn("latency (% of runtime) vs occupancy (%)")),
    },
    // Figures 6 and 7: uniform random selection ("Rand") under the
    // three allocations, with Reference 1/N for comparison; fewer
    // failed steals track better performance.
    Figure {
        id: "fig06",
        title: "Speedup with random victim selection",
        header: &["config", "ranks", "speedup"],
        cells: |a| reference_and(a, "Rand"),
        then: None,
        rows: |runs| each(runs, ranks_speedup),
        chart: Some(Chart::PerConfig("speedup vs ranks")),
    },
    Figure {
        id: "fig07",
        title: "Failed steals: random vs reference selection",
        header: &["config", "ranks", "failed_steals"],
        cells: |a| reference_and(a, "Rand"),
        then: None,
        rows: |runs| each(runs, ranks_failed),
        chart: Some(Chart::PerConfig("failed steals vs ranks")),
    },
    // Figure 9: distance-skewed ("Tofu") selection under the three
    // allocations, with Rand 8G and Rand 1/N for reference.
    Figure {
        id: "fig09",
        title: "Speedup with distance-skewed victim selection",
        header: &["config", "ranks", "speedup"],
        cells: |a| {
            let rand = [
                line("Rand", RankMapping::Grouped { ppn: 8 }),
                line("Rand", RankMapping::OneToOne),
            ];
            large(a, rand.into_iter().chain(per_mapping("Tofu")))
        },
        then: None,
        rows: |runs| each(runs, ranks_speedup),
        chart: Some(Chart::PerConfig("speedup vs ranks")),
    },
    // Figure 10: average duration of a work-discovery session (from a
    // rank running dry until work arrives or the run ends).
    Figure {
        id: "fig10",
        title: "Average work-discovery session duration (ms)",
        header: &["config", "ranks", "avg_session_ms"],
        cells: |a| {
            let baselines = [
                line("Reference", RankMapping::OneToOne),
                line("Rand", RankMapping::OneToOne),
            ];
            large(a, baselines.into_iter().chain(per_mapping("Tofu")))
        },
        then: None,
        rows: |runs| {
            each(runs, |r| {
                let ms = r.stats.avg_session_ns() / 1e6;
                vec![r.n_ranks.to_string(), f(ms, 3)]
            })
        },
        chart: Some(Chart::PerConfig("session duration (ms) vs ranks")),
    },
    // Figure 11: the half-stealing variants, all 1/N. The paper's
    // headline: skewed selection + steal-half restores scaling.
    Figure {
        id: "fig11",
        title: "Speedup of half-stealing variants (1/N)",
        header: &["config", "ranks", "speedup"],
        cells: |a| {
            let names = [
                "Reference",
                "Reference Half",
                "Tofu",
                "Rand Half",
                "Tofu Half",
            ];
            large(a, names.map(|n| line(n, RankMapping::OneToOne)))
        },
        then: None,
        rows: |runs| each(runs, ranks_speedup),
        chart: Some(Chart::PerConfig("speedup vs ranks")),
    },
    // Figures 12 and 13: starting and ending latencies, Reference vs
    // the optimized Tofu Half, at the largest scale (1/N): the
    // optimized scheduler reaches high occupancy far earlier in the
    // run, and keeps it until late.
    Figure {
        id: "fig12",
        title: "Starting latencies: Reference vs Tofu Half (1/N)",
        header: &["config", "occupancy_%", "SL_%runtime"],
        cells: reference_vs_tofu_half,
        then: None,
        rows: |runs| {
            runs.iter()
                .flat_map(|run| latencies(run, None, &[0], 2))
                .collect()
        },
        chart: Some(Chart::PerConfig("SL (% of runtime) vs occupancy (%)")),
    },
    Figure {
        id: "fig13",
        title: "Ending latencies: Reference vs Tofu Half (1/N)",
        header: &["config", "occupancy_%", "EL_%runtime"],
        cells: reference_vs_tofu_half,
        then: None,
        rows: |runs| {
            runs.iter()
                .flat_map(|run| latencies(run, None, &[1], 2))
                .collect()
        },
        chart: Some(Chart::PerConfig("EL (% of runtime) vs occupancy (%)")),
    },
    // Figures 14 and 15: per-rank search time (waiting for steal
    // answers) and failed steals, Reference vs Tofu Half.
    Figure {
        id: "fig14",
        title: "Average per-rank search time (ms)",
        header: &["config", "ranks", "avg_search_ms"],
        cells: |a| reference_and(a, "Tofu Half"),
        then: None,
        rows: |runs| {
            each(runs, |r| {
                let ms = r.stats.avg_search_ns() / 1e9 * 1e3;
                vec![r.n_ranks.to_string(), f(ms, 3)]
            })
        },
        chart: Some(Chart::PerConfig("search time (ms) vs ranks")),
    },
    Figure {
        id: "fig15",
        title: "Failed steals: Reference vs Tofu Half",
        header: &["config", "ranks", "failed_steals"],
        cells: |a| reference_and(a, "Tofu Half"),
        then: None,
        rows: |runs| each(runs, ranks_failed),
        chart: Some(Chart::PerConfig("failed steals vs ranks")),
    },
    // Figure 16: runtime improvement of Rand Half and Tofu Half over
    // Reference Half as per-node work granularity (SHA rounds per node
    // creation) grows. As each steal carries more compute time, the
    // latency-awareness advantage shrinks.
    Figure {
        id: "fig16",
        title: "Runtime improvement over Reference Half vs work granularity",
        header: &["sha_rounds", "rand_half_improv_%", "tofu_half_improv_%"],
        cells: |a| {
            let mut cells = Vec::new();
            for rounds in [1u32, 2, 4, 8, 16, 24] {
                for name in HALF {
                    let mut cfg = ablation(a, a.flagship_ranks(), strategy(name));
                    cfg.workload = cfg.workload.with_gen_rounds(rounds);
                    let lead = vec![rounds.to_string()];
                    cells.push(Cell { lead, cfg });
                }
            }
            cells
        },
        then: None,
        rows: |runs| {
            runs.chunks(3)
                .map(|three| {
                    let [base, rand, tofu] = [0, 1, 2].map(|i| three[i].r.makespan.ns() as f64);
                    vec![
                        three[0].lead[0].clone(),
                        f(100.0 * (base - rand) / base, 2),
                        f(100.0 * (base - tofu) / base, 2),
                    ]
                })
                .collect()
        },
        chart: Some(Chart::PerColumn("improvement (%) vs SHA rounds")),
    },
    // Polling interval: batching expansions between polls bounds the
    // event count, at the price of victim responsiveness.
    Figure {
        id: "ablation_polling",
        title: "Polling interval sweep",
        header: &["poll_interval", "strategy", "speedup", "failed_steals"],
        cells: |a| {
            let polls = [1u32, 2, 4, 8, 16, 32].map(|p| (p, p));
            knob_sweep(a, polls, &["Reference", "Rand"], |c, &p| {
                c.poll_interval = p
            })
        },
        then: None,
        rows: |runs| {
            each(runs, |r| {
                vec![f(r.perf.speedup(), 1), r.stats.failed_steals().to_string()]
            })
        },
        chart: None,
    },
    // Chunk size (the paper fixes 20): large chunks amortize steal
    // costs but hide work behind the private chunk.
    Figure {
        id: "ablation_chunk_size",
        title: "Chunk size sweep",
        header: &["chunk_size", "strategy", "speedup", "nodes_per_steal"],
        cells: |a| {
            let chunks = [5usize, 10, 20, 50, 100].map(|c| (c, c));
            knob_sweep(a, chunks, &["Rand", "Tofu Half"], |c, &k| c.chunk_size = k)
        },
        then: None,
        rows: |runs| {
            each(runs, |r| {
                let t = r.stats.total();
                let per_steal = t.nodes_received as f64 / t.steals_ok.max(1) as f64;
                vec![f(r.perf.speedup(), 1), f(per_steal, 1)]
            })
        },
        chart: None,
    },
    // Skew exponent (the paper weights victims by 1/e): how much more
    // concentration helps before it starves thieves of distant work.
    Figure {
        id: "ablation_skew_exponent",
        title: "Skew exponent sweep (Tofu Half, 1/N)",
        header: &["alpha", "speedup", "avg_session_us", "failed_steals"],
        cells: |a| {
            [0.0f64, 0.5, 1.0, 2.0, 4.0, 8.0]
                .into_iter()
                .map(|alpha| Cell {
                    lead: vec![format!("{alpha}")],
                    cfg: ablation(
                        a,
                        a.flagship_ranks(),
                        (VictimPolicy::DistanceSkewed { alpha }, StealAmount::Half),
                    ),
                })
                .collect()
        },
        then: None,
        rows: |runs| {
            each(runs, |r| {
                vec![
                    f(r.perf.speedup(), 1),
                    session_us(r, 1),
                    r.stats.failed_steals().to_string(),
                ]
            })
        },
        chart: None,
    },
    // Flat network: with every pair equidistant, skewed selection is
    // uniform, so the Tofu-vs-Rand gap must vanish.
    Figure {
        id: "ablation_flat_network",
        title: "Flat vs Tofu network: skew only helps when latency has structure",
        header: &["network", "strategy", "speedup", "avg_session_us"],
        cells: |a| {
            let networks = [
                ("tofu", LatencyParams::default()),
                ("flat", LatencyParams::flat(8_000)),
            ];
            knob_sweep(a, networks, &["Rand", "Tofu"], |c, l| c.latency = l.clone())
        },
        then: None,
        rows: |runs| each(runs, |r| vec![f(r.perf.speedup(), 1), session_us(r, 1)]),
        chart: None,
    },
    // Shared-NIC contention on/off across mappings: without it,
    // packing 8 ranks per node looks free.
    Figure {
        id: "ablation_nic",
        title: "Shared-NIC contention vs rank mapping (Rand)",
        header: &["nic", "mapping", "ranks", "speedup"],
        cells: |a| {
            let mut cells = Vec::new();
            for (nic, occupancy) in [("on", 2_000u64), ("off", 0)] {
                for mapping in MAPPINGS {
                    let n_nodes = ablation_ranks(a, 512) / mapping.ppn();
                    let mut cfg = ablation(a, n_nodes, strategy("Rand")).with_mapping(*mapping);
                    cfg.nic_occupancy_ns = occupancy;
                    let lead = vec![nic.to_string(), mapping.label()];
                    cells.push(Cell { lead, cfg });
                }
            }
            cells
        },
        then: None,
        rows: |runs| each(runs, ranks_speedup),
        chart: None,
    },
    // Lifelines (Saraswat et al., the paper's §VI): past a threshold of
    // failed attempts, idle ranks wait for their lifelines instead.
    Figure {
        id: "ablation_lifelines",
        title: "Lifeline threshold sweep (steal-half)",
        header: &[
            "victim",
            "threshold",
            "speedup",
            "failed_steals",
            "dormancies",
            "pushed_chunks",
        ],
        cells: |a| {
            let mut cells = Vec::new();
            for victim in [
                VictimPolicy::Uniform,
                VictimPolicy::DistanceSkewed { alpha: 1.0 },
            ] {
                for threshold in [None, Some(4u32), Some(16), Some(64)] {
                    let mut cfg = ablation(a, ablation_ranks(a, 256), (victim, StealAmount::Half));
                    cfg.lifeline_threshold = threshold;
                    let lead = vec![
                        victim.label().to_string(),
                        threshold.map_or("off".to_string(), |t| t.to_string()),
                    ];
                    cells.push(Cell { lead, cfg });
                }
            }
            cells
        },
        then: None,
        rows: |runs| {
            each(runs, |r| {
                let t = r.stats.total();
                vec![
                    f(r.perf.speedup(), 1),
                    t.steals_failed.to_string(),
                    t.lifeline_dormancies.to_string(),
                    t.lifeline_pushes.to_string(),
                ]
            })
        },
        chart: None,
    },
    // The paper's §VII future work: weight by inverse modelled latency
    // (LatSkew), or try node mates first (Hier), under 1/N (no node
    // mates, so Hier is Rand) and 8G.
    Figure {
        id: "ablation_future_selection",
        title: "Extended victim-selection strategies (all steal-half)",
        header: &[
            "policy",
            "mapping",
            "speedup",
            "session_us",
            "failed_steals",
        ],
        cells: |a| {
            let policies = [
                ("Rand", VictimPolicy::Uniform),
                ("Tofu", VictimPolicy::DistanceSkewed { alpha: 1.0 }),
                ("LatSkew", VictimPolicy::LatencySkewed { alpha: 1.0 }),
                ("Hier(4)", VictimPolicy::Hierarchical { local_tries: 4 }),
            ];
            let mut cells = Vec::new();
            for mapping in [RankMapping::OneToOne, RankMapping::Grouped { ppn: 8 }] {
                for (name, victim) in policies {
                    let n_nodes = ablation_ranks(a, 256) / mapping.ppn();
                    let cfg =
                        ablation(a, n_nodes, (victim, StealAmount::Half)).with_mapping(mapping);
                    let lead = vec![name.to_string(), mapping.label()];
                    cells.push(Cell { lead, cfg });
                }
            }
            cells
        },
        then: None,
        rows: |runs| {
            each(runs, |r| {
                vec![
                    f(r.perf.speedup(), 1),
                    session_us(r, 0),
                    r.stats.failed_steals().to_string(),
                ]
            })
        },
        chart: None,
    },
    // Why Tofu beats Rand: each makespan split along its critical path
    // into components that sum to it exactly, plus the predicted win of
    // taking steal travel off that path. {Rand, Tofu} × {one, half} ×
    // {no faults, 2% message faults}, 128 ranks, T3XXL.
    Figure {
        id: "ablation_blame",
        title: "Critical-path makespan attribution by victim policy",
        header: &[
            "policy",
            "steal",
            "fault",
            "makespan_ms",
            "compute_pct",
            "travel_pct",
            "queue_pct",
            "retry_pct",
            "quarantine_pct",
            "term_pct",
            "other_pct",
            "whatif_rtt_ms",
        ],
        cells: |a| {
            let policies = [
                ("Rand", VictimPolicy::Uniform),
                ("Tofu", VictimPolicy::DistanceSkewed { alpha: 1.0 }),
            ];
            let steals = [("one", StealAmount::OneChunk), ("half", StealAmount::Half)];
            let faults = [
                ("none", FaultPlan::default()),
                ("drop-2%", FaultPlan::message_faults(0.02, 0.01, 0.02)),
            ];
            let mut cells = Vec::new();
            for (fault, plan) in &faults {
                for (policy, victim) in policies {
                    for (steal_name, steal) in steals {
                        let mut cfg = a
                            .config(a.small_tree(), ablation_ranks(a, 128))
                            .with_victim(victim)
                            .with_steal(steal);
                        cfg.fault_plan = plan.clone();
                        cfg.collect_spans = true;
                        let lead = [policy, steal_name, fault].map(str::to_string).to_vec();
                        cells.push(Cell { lead, cfg });
                    }
                }
            }
            cells
        },
        then: None,
        rows: |runs| each(runs, blame_row),
        chart: None,
    },
    // Victim selection under message faults: drops, duplicates and
    // heavy-tailed latency spikes at rising rates, across all six
    // strategies. Each run's makespan inflation over its strategy's
    // fault-free run, and the recovery work. Skewed selection keeps
    // steal RTTs, and so failure-detection timeouts, short; this
    // measures how much of its advantage survives an unreliable fabric.
    Figure {
        id: "ablation_fault_tolerance",
        title: "Victim policies under message faults",
        header: &[
            "strategy",
            "fault_rate",
            "speedup",
            "slowdown_vs_clean",
            "timeouts",
            "retransmits",
            "replies_discarded",
            "late_absorbed",
        ],
        cells: |a| {
            let mut cells = Vec::new();
            for &(name, victim, steal) in STRATEGIES {
                for rate in [0.0, 0.01, 0.02, 0.05] {
                    let mut cfg = small(a, (victim, steal));
                    cfg.collect_trace = false;
                    cfg.fault_plan = FaultPlan::message_faults(rate, rate * 0.5, rate);
                    let lead = vec![name.to_string(), f(rate, 2)];
                    cells.push(Cell { lead, cfg });
                }
            }
            cells
        },
        then: None,
        rows: |runs| {
            // Four rates per strategy, the fault-free one first.
            let per_strategy = runs.chunks(4).map(|rates| {
                let clean_ms = rates[0].r.makespan.ns() as f64 / 1e6;
                each(rates, |r| {
                    let t = r.stats.total();
                    let ms = r.makespan.ns() as f64 / 1e6;
                    vec![
                        f(r.perf.speedup(), 1),
                        f(ms / clean_ms, 2),
                        t.steal_timeouts.to_string(),
                        t.retransmits.to_string(),
                        (t.dup_replies_dropped + t.stale_replies_dropped).to_string(),
                        t.late_work_absorbed.to_string(),
                    ]
                })
            });
            per_strategy.flatten().collect()
        },
        chart: None,
    },
    // One rank (ranks/3) dies a quarter of the way into each steal-half
    // strategy's clean makespan T: the subtree lost with it, and how
    // long the survivors take to regain 90% occupancy.
    Figure {
        id: "ablation_fault_crash",
        title: "Rank ranks/3 crash at T/4 (steal-half)",
        header: &[
            "strategy",
            "crash_at_ms",
            "slowdown_vs_clean",
            "lost_frontier",
            "lost_subtree",
            "recovery_90pct_ms",
            "token_regens",
        ],
        cells: |a| {
            let clean = HALF.map(|name| {
                let mut cfg = small(a, strategy(name));
                cfg.collect_trace = false;
                let lead = vec![name.to_string()];
                Cell { lead, cfg }
            });
            clean.into()
        },
        then: Some(|a, clean| {
            let rank = ablation_ranks(a, 128) / 3;
            let crashes = HALF.iter().zip(clean).map(|(&name, &t_ns)| {
                let at_ns = t_ns / 4;
                let mut cfg = small(a, strategy(name));
                cfg.fault_plan = FaultPlan {
                    crashes: vec![Crash { rank, at_ns }],
                    ..FaultPlan::default()
                };
                let lead = vec![name.to_string(), f(at_ns as f64 / 1e6, 2)];
                Cell { lead, cfg }
            });
            crashes.collect()
        }),
        rows: |runs| {
            let (clean, crashed) = runs.split_at(runs.len() / 2);
            let rows = clean.iter().zip(crashed).map(|(clean, run)| {
                let (r, t_ns) = (&run.r, clean.r.makespan.ns());
                let fr = r.fault.as_ref().expect("crash plan produces a report");
                let recovery_ms = r
                    .occupancy()
                    .and_then(|occ| occ.recovery_time_ns(t_ns / 4, 0.9))
                    .map_or("never".to_string(), |ns| f(ns as f64 / 1e6, 2));
                let cols = [
                    f(r.makespan.ns() as f64 / t_ns as f64, 2),
                    fr.lost_frontier_nodes.to_string(),
                    fr.lost_subtree_nodes.to_string(),
                    recovery_ms,
                    r.stats.total().token_regenerations.to_string(),
                ];
                run.lead.iter().cloned().chain(cols).collect()
            });
            rows.collect()
        },
        chart: None,
    },
    // Failure-aware adaptive victim selection vs static 1/d-skew under
    // correlated faults, across the three mappings, timed from each
    // mapping's static clean makespan T. The engine's crash oracle
    // shows crashes to every policy; partitions and brownouts are
    // invisible, so the static policy keeps paying timeouts on
    // unreachable victims while adaptive thieves quarantine them.
    // Compare policies on `work_done_ms` (the last tree node processed):
    // `makespan_ms` adds termination detection, whose token
    // regeneration backoff quantizes the tail.
    Figure {
        id: "ablation_adaptive",
        title: "Adaptive vs static 1/d-skew under correlated faults",
        header: &[
            "mapping",
            "fault",
            "policy",
            "work_done_ms",
            "slowdown_vs_clean",
            "makespan_ms",
            "timeouts",
            "quarantines",
            "probe_steals",
            "lost_subtree",
        ],
        cells: |a| {
            let mut cells = Vec::new();
            for &mapping in MAPPINGS {
                for (policy, adaptive) in OVERLAY {
                    let lead = [mapping.label(), "none".into(), policy.into()].to_vec();
                    let cfg = adaptive_cfg(a, mapping, adaptive);
                    cells.push(Cell { lead, cfg });
                }
            }
            cells
        },
        then: Some(|a, clean| {
            let mut cells = Vec::new();
            for (&mapping, t) in MAPPINGS.iter().zip(clean.chunks(OVERLAY.len())) {
                for (fault, plan) in correlated_faults(a, mapping, t[0]) {
                    for (policy, adaptive) in OVERLAY {
                        let lead = [mapping.label(), fault.into(), policy.into()].to_vec();
                        let mut cfg = adaptive_cfg(a, mapping, adaptive);
                        cfg.fault_plan = plan.clone();
                        cells.push(Cell { lead, cfg });
                    }
                }
            }
            cells
        }),
        rows: |runs| {
            // Per mapping: its clean runs, then its faulty ones, each
            // against its own policy's clean run.
            let (clean, faulty) = runs.split_at(OVERLAY.len() * MAPPINGS.len());
            let faulty = faulty.chunks(faulty.len() / MAPPINGS.len());
            let mut rows = Vec::new();
            for (clean, faulty) in clean.chunks(OVERLAY.len()).zip(faulty) {
                let clean_ns: Vec<u64> = clean.iter().map(|run| work_done_ns(&run.r)).collect();
                for (i, run) in clean.iter().chain(faulty).enumerate() {
                    let (r, t) = (&run.r, run.r.stats.total());
                    let work_ns = work_done_ns(r);
                    let lost = r.fault.as_ref().map_or(0, |fr| fr.lost_subtree_nodes);
                    let cols = [
                        f(work_ns as f64 / 1e6, 2),
                        f(work_ns as f64 / clean_ns[i % OVERLAY.len()] as f64, 3),
                        f(r.makespan.ns() as f64 / 1e6, 2),
                        t.steal_timeouts.to_string(),
                        t.quarantines.to_string(),
                        t.probe_steals.to_string(),
                        lost.to_string(),
                    ];
                    rows.push(run.lead.iter().cloned().chain(cols).collect());
                }
            }
            rows
        },
        chart: None,
    },
];

/// `ablation_blame`'s columns: the makespan, each component's share of
/// it in percent, and the predicted makespan reduction for "steal rtt
/// −100%". Asserts that the attribution sums to the makespan.
fn blame_row(r: &ExperimentResult) -> Vec<String> {
    let blame = r
        .blame_report()
        .expect("spans + activity trace were collected");
    blame
        .check()
        .expect("attribution must sum to the makespan exactly");
    let share = |c: Component| {
        let ns = blame
            .components
            .iter()
            .find(|&&(x, _)| x == c)
            .map_or(0, |&(_, v)| v);
        100.0 * ns as f64 / r.makespan.ns().max(1) as f64
    };
    let travel = share(Component::RequestTravel) + share(Component::ReplyTravel);
    let rtt_delta_ns = blame
        .whatif
        .iter()
        .find(|w| w.scenario == "steal rtt" && w.scale_pct == 100)
        .map_or(0, |w| w.predicted_delta_ns);
    vec![
        f(r.makespan.ns() as f64 / 1e6, 2),
        f(share(Component::Compute), 1),
        f(travel, 1),
        f(share(Component::QueueAtVictim), 1),
        f(share(Component::TimeoutRetry), 1),
        f(share(Component::QuarantineReselect), 1),
        f(share(Component::TerminationTail), 1),
        f(share(Component::IdleOther), 1),
        f(rtt_delta_ns as f64 / 1e6, 3),
    ]
}

/// Run every cell of `fig` — the first stage, then the second built
/// from its makespans — and [`emit`] the table, chart, CSV and bench
/// record. Every run carries the streaming flags. Fails before writing
/// anything when a run does not complete (an engine abort such as
/// `--wall-budget`), and when `--snapshot` is given for a figure of
/// several runs, each of which would truncate the file.
pub fn run(fig: &Figure, args: &FigArgs) -> Result<(), String> {
    let cells = (fig.cells)(args);
    let snapshot = args.stream.as_ref().is_some_and(|s| s.snapshot.is_some());
    if snapshot && (cells.len() > 1 || fig.then.is_some()) {
        return Err(format!(
            "{}: --snapshot streams one run, and this figure makes several",
            fig.id
        ));
    }
    let (mut runs, mut samples) = (Vec::new(), Samples::default());
    run_cells(fig, args, cells, &mut runs, &mut samples)?;
    if let Some(then) = fig.then {
        let makespans: Vec<u64> = runs.iter().map(|run| run.r.makespan.ns()).collect();
        run_cells(fig, args, then(args, &makespans), &mut runs, &mut samples)?;
    }
    let rows = (fig.rows)(&runs);
    let chart = fig.chart.map(|c| c.draw(fig.header, &rows));
    emit(args, fig.id, fig.title, fig.header, &rows, chart, samples);
    Ok(())
}

/// Run `cells` in order through [`run_logged`], appending each to
/// `runs` and its sample to `samples`; stop at the first run that does
/// not complete.
fn run_cells(
    fig: &Figure,
    args: &FigArgs,
    cells: Vec<Cell>,
    runs: &mut Vec<Run>,
    samples: &mut Samples,
) -> Result<(), String> {
    for Cell { lead, cfg } in cells {
        let (r, sample) = run_logged(&cfg, args.streaming()?);
        if !r.completed {
            return Err(format!(
                "{}: the run [{}] {} at {} ranks did not complete",
                fig.id,
                lead.join(", "),
                cfg.label(),
                r.n_ranks
            ));
        }
        runs.push(Run { lead, r });
        samples.runs.push(sample);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_core::StreamingSpec;
    use dws_metrics::perflab;

    /// Each figure's bench-record fingerprint at the default scale and
    /// seed: the hash of every run's config fingerprint, in run order.
    /// Each is what the binary the entry replaced recorded, except for
    /// the two two-stage entries (see [`STAGED`]).
    const RECORDED: &[(&str, &str)] = &[
        ("fig02", "0fd6d19be33ae49b"),
        ("fig03", "2172d811a484b953"),
        ("fig04", "54b9c1da4e4222bb"),
        ("fig05", "9cbfc439c3c3350c"),
        ("fig06", "bc2f6bca9d0b78be"),
        ("fig07", "bc2f6bca9d0b78be"),
        ("fig09", "d777ecfa826311bb"),
        ("fig10", "e774a12fc9ea3fb8"),
        ("fig11", "cb843890dafb90e7"),
        ("fig12", "7b69b269574c95f7"),
        ("fig13", "7b69b269574c95f7"),
        ("fig14", "209295d3a4a3d85d"),
        ("fig15", "209295d3a4a3d85d"),
        ("fig16", "a0b03dafbaf84708"),
        ("ablation_polling", "2a140508cb60a057"),
        ("ablation_chunk_size", "2fa24d17f16f511b"),
        ("ablation_skew_exponent", "4588e88a5666150d"),
        ("ablation_flat_network", "60b9ea9bb89be973"),
        ("ablation_nic", "02e45f4921774b94"),
        ("ablation_lifelines", "cbb893476014a2b3"),
        ("ablation_future_selection", "0d6ef4b096aeaf30"),
        ("ablation_blame", "0d03b34f6a22254d"),
        ("ablation_fault_tolerance", "6bd2e32f74a7af9b"),
        ("ablation_fault_crash", "26359e62d5074221"),
        ("ablation_adaptive", "515fa8426b41f7a9"),
    ];

    /// The two-stage entries: the clean makespans (ns) their first
    /// stage recorded at the default scale and seed, the number of
    /// groups (strategies or mappings) each stage splits into, and the
    /// fingerprint of the binary they replaced. That binary ran each
    /// group's clean runs right before the faulty runs timed from them,
    /// so its fingerprint hashes the same configs in that order.
    const STAGED: &[(&str, &[u64], usize, &str)] = &[
        (
            "ablation_fault_crash",
            &[88_355_701, 86_993_007, 84_536_503],
            3,
            "fac412c62c6b0a21",
        ),
        (
            "ablation_adaptive",
            &[
                81_808_165, 83_680_687, 76_925_474, 77_152_286, 76_975_622, 78_021_628,
            ],
            3,
            "6b919c7d3ae7fe85",
        ),
    ];

    fn fingerprint<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> String {
        let combined: String = cells.into_iter().map(|c| c.cfg.fingerprint()).collect();
        perflab::fingerprint(&combined)
    }

    #[test]
    fn figure_table_builds_the_recorded_configs() {
        let args = FigArgs::default();
        let mut ids: Vec<&str> = FIGURES.iter().map(|fig| fig.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "figure ids must be unique");
        assert_eq!(RECORDED.len(), FIGURES.len());
        for (fig, &(id, recorded)) in FIGURES.iter().zip(RECORDED) {
            assert_eq!(fig.id, id);
            let mut cells = (fig.cells)(&args);
            let staged = STAGED.iter().find(|s| s.0 == id);
            assert_eq!(fig.then.is_some(), staged.is_some(), "{id}");
            if let (Some(then), Some(&(_, clean, groups, replaced))) = (fig.then, staged) {
                assert_eq!(cells.len(), clean.len(), "{id}");
                let faulty = then(&args, clean);
                let per_group = |cells: &[Cell]| cells.len() / groups;
                let replaced_order = cells
                    .chunks(per_group(&cells))
                    .zip(faulty.chunks(per_group(&faulty)))
                    .flat_map(|(clean, faulty)| clean.iter().chain(faulty));
                assert_eq!(fingerprint(replaced_order), replaced, "{id}");
                cells.extend(faulty);
            }
            assert_eq!(fingerprint(&cells), recorded, "{id}");
        }
    }

    #[test]
    fn a_run_that_does_not_complete_fails_its_figure() {
        let fig04 = FIGURES.iter().find(|fig| fig.id == "fig04").unwrap();
        let aborted = FigArgs {
            stream: StreamingSpec::parse([("wall-budget", "0")]).unwrap(),
            csv_dir: None,
            ..FigArgs::default()
        };
        let err = run(fig04, &aborted).unwrap_err();
        assert!(
            err.contains("fig04") && err.contains("did not complete"),
            "{err}"
        );
    }

    #[test]
    fn snapshot_of_a_figure_of_several_runs_is_refused() {
        let path = std::env::temp_dir().join("dws_figures_refused_snapshot.jsonl");
        let _ = std::fs::remove_file(&path);
        let args = FigArgs {
            stream: StreamingSpec::parse([("snapshot", path.to_str().unwrap())]).unwrap(),
            csv_dir: None,
            ..FigArgs::default()
        };
        for id in ["fig02", "ablation_fault_crash"] {
            let fig = FIGURES.iter().find(|fig| fig.id == id).unwrap();
            let err = run(fig, &args).unwrap_err();
            assert!(err.contains("--snapshot"), "{err}");
        }
        assert!(!path.exists(), "a refused figure opens no snapshot file");
    }
}
