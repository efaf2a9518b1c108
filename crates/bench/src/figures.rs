//! Every figure whose rows each come from one simulated run, as one
//! table. An entry says what to run, what to read from each run and
//! how to chart it; [`run`] is the one driver, behind `figures <id>`.
//!
//! Figures whose rows fold several runs (fig16, the fault-tolerance
//! and adaptive ablations), fan one run's occupancy out into many rows
//! (fig04, fig05, fig12, fig13), or simulate nothing stay binaries.

use crate::{chart, emit, f, run_logged, strategy, FigArgs, MAPPINGS};
use dws_core::{ExperimentConfig, ExperimentResult, StealAmount, VictimPolicy};
use dws_metrics::Component;
use dws_simnet::FaultPlan;
use dws_topology::{LatencyParams, RankMapping};
use dws_uts::Workload;

/// One run of a figure: the row's leading columns and what to simulate.
struct Cell {
    /// Leading columns; the first one names the chart series.
    lead: Vec<String>,
    /// The run.
    cfg: ExperimentConfig,
}

/// One figure: its runs, in order, and the columns each one yields.
pub struct Figure {
    /// CSV and bench-record name.
    pub id: &'static str,
    /// Table title.
    title: &'static str,
    /// Column names: the cells' leading columns, then the row's.
    header: &'static [&'static str],
    /// Every run, in run order.
    cells: fn(&FigArgs) -> Vec<Cell>,
    /// The columns read from one run.
    row: fn(&ExperimentResult) -> Vec<String>,
    /// Chart title and y value: y over ranks, one series per first
    /// leading column.
    chart: Option<(&'static str, Metric)>,
}

/// A value read from one run.
type Metric = fn(&ExperimentResult) -> f64;

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
            cells.push(Cell {
                lead: vec![label.clone()],
                cfg,
            });
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

fn speedup(r: &ExperimentResult) -> f64 {
    r.perf.speedup()
}

fn failed(r: &ExperimentResult) -> f64 {
    r.stats.failed_steals() as f64
}

fn session_ms(r: &ExperimentResult) -> f64 {
    r.stats.avg_session_ns() / 1e6
}

fn search_ms(r: &ExperimentResult) -> f64 {
    r.stats.avg_search_ns() / 1e9 * 1e3
}

fn session_us(r: &ExperimentResult, prec: usize) -> String {
    f(r.stats.avg_session_ns() / 1000.0, prec)
}

fn ranks_speedup(r: &ExperimentResult) -> Vec<String> {
    vec![r.n_ranks.to_string(), f(speedup(r), 1)]
}

fn ranks_failed(r: &ExperimentResult) -> Vec<String> {
    vec![r.n_ranks.to_string(), r.stats.failed_steals().to_string()]
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
        row: |r| {
            vec![
                r.n_ranks.to_string(),
                f(r.perf.efficiency(), 4),
                f(r.makespan.as_secs_f64(), 4),
            ]
        },
        chart: Some(("efficiency vs ranks", |r| r.perf.efficiency())),
    },
    // Figure 3: the reference implementation at large scale (paper:
    // 1,024–8,192 ranks on T3WL).
    Figure {
        id: "fig03",
        title: "Speedup of the reference implementation at large scale",
        header: &["config", "ranks", "speedup", "makespan_s"],
        cells: |a| large(a, per_mapping("Reference")),
        row: |r| {
            vec![
                r.n_ranks.to_string(),
                f(speedup(r), 1),
                f(r.makespan.as_secs_f64(), 4),
            ]
        },
        chart: Some(("speedup vs ranks", speedup)),
    },
    // Figures 6 and 7: uniform random selection ("Rand") under the
    // three allocations, with Reference 1/N for comparison; fewer
    // failed steals track better performance.
    Figure {
        id: "fig06",
        title: "Speedup with random victim selection",
        header: &["config", "ranks", "speedup"],
        cells: |a| reference_and(a, "Rand"),
        row: ranks_speedup,
        chart: Some(("speedup vs ranks", speedup)),
    },
    Figure {
        id: "fig07",
        title: "Failed steals: random vs reference selection",
        header: &["config", "ranks", "failed_steals"],
        cells: |a| reference_and(a, "Rand"),
        row: ranks_failed,
        chart: Some(("failed steals vs ranks", failed)),
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
        row: ranks_speedup,
        chart: Some(("speedup vs ranks", speedup)),
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
        row: |r| vec![r.n_ranks.to_string(), f(session_ms(r), 3)],
        chart: Some(("session duration (ms) vs ranks", session_ms)),
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
        row: ranks_speedup,
        chart: Some(("speedup vs ranks", speedup)),
    },
    // Figures 14 and 15: per-rank search time (waiting for steal
    // answers) and failed steals, Reference vs Tofu Half.
    Figure {
        id: "fig14",
        title: "Average per-rank search time (ms)",
        header: &["config", "ranks", "avg_search_ms"],
        cells: |a| reference_and(a, "Tofu Half"),
        row: |r| vec![r.n_ranks.to_string(), f(search_ms(r), 3)],
        chart: Some(("search time (ms) vs ranks", search_ms)),
    },
    Figure {
        id: "fig15",
        title: "Failed steals: Reference vs Tofu Half",
        header: &["config", "ranks", "failed_steals"],
        cells: |a| reference_and(a, "Tofu Half"),
        row: ranks_failed,
        chart: Some(("failed steals vs ranks", failed)),
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
        row: |r| vec![f(speedup(r), 1), r.stats.failed_steals().to_string()],
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
        row: |r| {
            let t = r.stats.total();
            let per_steal = t.nodes_received as f64 / t.steals_ok.max(1) as f64;
            vec![f(speedup(r), 1), f(per_steal, 1)]
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
        row: |r| {
            vec![
                f(speedup(r), 1),
                session_us(r, 1),
                r.stats.failed_steals().to_string(),
            ]
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
        row: |r| vec![f(speedup(r), 1), session_us(r, 1)],
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
        row: ranks_speedup,
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
        row: |r| {
            let t = r.stats.total();
            vec![
                f(speedup(r), 1),
                t.steals_failed.to_string(),
                t.lifeline_dormancies.to_string(),
                t.lifeline_pushes.to_string(),
            ]
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
        row: |r| {
            vec![
                f(speedup(r), 1),
                session_us(r, 0),
                r.stats.failed_steals().to_string(),
            ]
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
        row: blame_row,
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

/// Run every cell of `fig` through [`run_logged`] and [`emit`] the
/// table, chart, CSV and bench record.
pub fn run(fig: &Figure, args: &FigArgs) {
    let mut rows = Vec::new();
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for Cell { lead, cfg } in (fig.cells)(args) {
        let r = run_logged(&cfg);
        if let Some((_, y)) = fig.chart {
            let point = (r.n_ranks as f64, y(&r));
            match series.last_mut() {
                Some((label, points)) if *label == lead[0] => points.push(point),
                _ => series.push((lead[0].clone(), vec![point])),
            }
        }
        rows.push(lead.into_iter().chain((fig.row)(&r)).collect());
    }
    let chart = fig.chart.map(|(title, _)| {
        let refs: Vec<(&str, Vec<(f64, f64)>)> = series
            .iter()
            .map(|(label, points)| (label.as_str(), points.clone()))
            .collect();
        chart(title, &refs)
    });
    emit(args, fig.id, fig.title, fig.header, &rows, chart);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_metrics::perflab;

    /// Each figure's bench-record fingerprint at the default scale and
    /// seed, as the binaries it replaced recorded them: the hash of
    /// every run's config fingerprint, in run order.
    const RECORDED: &[(&str, &str)] = &[
        ("fig02", "0fd6d19be33ae49b"),
        ("fig03", "2172d811a484b953"),
        ("fig06", "bc2f6bca9d0b78be"),
        ("fig07", "bc2f6bca9d0b78be"),
        ("fig09", "d777ecfa826311bb"),
        ("fig10", "e774a12fc9ea3fb8"),
        ("fig11", "cb843890dafb90e7"),
        ("fig14", "209295d3a4a3d85d"),
        ("fig15", "209295d3a4a3d85d"),
        ("ablation_polling", "2a140508cb60a057"),
        ("ablation_chunk_size", "2fa24d17f16f511b"),
        ("ablation_skew_exponent", "4588e88a5666150d"),
        ("ablation_flat_network", "60b9ea9bb89be973"),
        ("ablation_nic", "02e45f4921774b94"),
        ("ablation_lifelines", "cbb893476014a2b3"),
        ("ablation_future_selection", "0d6ef4b096aeaf30"),
        ("ablation_blame", "0d03b34f6a22254d"),
    ];

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
            let cells = (fig.cells)(&args);
            let combined: String = cells.iter().map(|c| c.cfg.fingerprint()).collect();
            assert_eq!(perflab::fingerprint(&combined), recorded, "{id}");
        }
    }
}
