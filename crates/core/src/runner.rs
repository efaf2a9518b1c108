//! Experiment orchestration: place a job, run the distributed search in
//! the simulator, verify it, and compute the paper's metrics.
//!
//! [`ExperimentConfig`] captures one cell of the paper's experimental
//! grid — workload × node count × rank mapping × victim selection ×
//! steal amount — and [`run_experiment`] produces an
//! [`ExperimentResult`] carrying everything the figures plot.
//!
//! Every run is verified before results are returned:
//!
//! - the sum of nodes processed across ranks must equal the sequential
//!   tree size (when known),
//! - nodes and chunks are conserved across steals,
//! - the activity trace must be well-formed,
//! - every rank must have observed termination with an empty stack.

use crate::health::VictimHealth;
use crate::scheduler::{FaultToleranceCfg, StealAmount, Worker, MAX_BACKOFF_DOUBLINGS};
use crate::victim::VictimPolicy;
use dws_metrics::export::{histograms_json, span_counts_json, write_chrome_trace};
use dws_metrics::perflab::{self, ProfileReport};
use dws_metrics::{
    ActivityTrace, BlameReport, JsonValue, LatencyHistograms, OccupancyCurve, Perf, RunStats,
    SpanTrace, StealStats,
};
use dws_simnet::profiler::{allocation_count, PhaseTimes};
use dws_simnet::{
    parse_duration_ns, FaultPlan, FaultStats, NetTrace, NetworkModel, ParallelConfig, PureNetwork,
    Recorders, RunReport, SimConfig, SimTime, Simulation, StreamingCfg,
};
use dws_topology::routing::LinkLoad;
use dws_topology::{AllocationPolicy, CutClass, Job, LatencyParams, RankMapping, TofuCoord};
use dws_uts::{Node, Workload};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Full description of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Tree to search.
    pub workload: Workload,
    /// Physical nodes to allocate.
    pub n_nodes: u32,
    /// Rank placement (1/N, 8RR, 8G, …).
    pub mapping: RankMapping,
    /// Node allocation policy (the K scheduler default is compact).
    pub alloc: AllocationPolicy,
    /// Network latency parameters.
    pub latency: LatencyParams,
    /// Victim-selection strategy.
    pub victim: VictimPolicy,
    /// Extension (robustness): overlay failure-aware adaptive selection
    /// on `victim`. Draws come from `victim` exactly as without it; the
    /// scheduler then filters them through an online per-victim health
    /// record (bounded rejection against learned outcome scores, plus
    /// quarantine of repeatedly timed-out victims — see
    /// `dws_core::health`). The label becomes `victim`'s
    /// [`adaptive_label`](VictimPolicy::adaptive_label).
    pub adaptive: bool,
    /// Steal granularity.
    pub steal: StealAmount,
    /// Nodes per chunk (paper: 20).
    pub chunk_size: usize,
    /// Node expansions between message polls.
    pub poll_interval: u32,
    /// Pause before retrying after a failed steal (0 = immediate).
    pub retry_delay_ns: u64,
    /// Delay before rank 0 reissues a termination probe.
    pub probe_backoff_ns: u64,
    /// CPU cost a *working* rank pays to service one incoming message
    /// at a poll point (MPI probe/recv/reply processing). This is the
    /// mechanism by which failed-steal convoys slow down the very ranks
    /// that hold work — the paper's link between failed-steal counts
    /// (Figures 7, 15) and performance. Idle ranks answer for free:
    /// they have nothing better to do.
    pub msg_handle_ns: u64,
    /// Victim-side CPU cost per chunk packaged into a reply.
    pub package_chunk_ns: u64,
    /// Extension: lifeline-based load balancing — after this many
    /// consecutive failed steals a thief goes dormant and waits for
    /// pushed work from its hypercube buddies. `None` = paper protocol.
    pub lifeline_threshold: Option<u32>,
    /// Per-message NIC occupancy for the shared per-node interface
    /// (0 disables NIC contention — the `ablation_nic` experiment).
    /// This is what makes 8 ranks per node pay for sharing a link.
    pub nic_occupancy_ns: u64,
    /// NIC serialization bandwidth in bytes per nanosecond.
    pub nic_bytes_per_ns: f64,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Latency jitter fraction (0 disables).
    pub jitter: f64,
    /// Keep the engine's activity log and merge it into
    /// [`ExperimentResult::trace`], checked, after the run. Off, an
    /// activity site costs one branch unless streaming folds it live.
    pub collect_trace: bool,
    /// Causal observability: record a span per steal-protocol step on
    /// every rank plus an engine-level network trace (delivery-latency
    /// histogram and per-pair traffic matrix). Off by default — and
    /// when off, not a single timer, message, or RNG draw differs from
    /// a build without the subsystem, so figure outputs stay
    /// byte-identical.
    pub collect_spans: bool,
    /// Abort the simulation beyond this simulated time.
    pub max_sim_time_ns: Option<u64>,
    /// Abort beyond this many events.
    pub max_events: Option<u64>,
    /// If known, the tree size to verify against.
    pub expect_nodes: Option<u64>,
    /// Deterministic fault schedule injected by the simulator. The
    /// default plan injects nothing and leaves the event schedule
    /// byte-identical to a fault-free build.
    pub fault_plan: FaultPlan,
    /// Failure tolerance: steal timeouts with exponential backoff,
    /// acknowledged work transfers with retransmission, termination
    /// tokens with regeneration, and crashed-rank avoidance. `None`
    /// means *auto*: enabled with defaults exactly when `fault_plan` is
    /// active, off otherwise — and off, the paper's bare protocol runs
    /// with zero extra timers, messages or RNG draws. Set explicitly to
    /// measure protocol overhead on a clean network.
    pub fault_tolerance: Option<FaultToleranceCfg>,
    /// Engine self-profiling: wall-clock phase timers, events/sec and
    /// allocations-per-event, reported in the run report's `profile`
    /// section. Off by default; like tracing, turning it on changes
    /// not a single simulated event.
    pub profile: bool,
    /// Simulation worker threads. The engine shards the job along its
    /// locality cut (see [`shard_plan`]) across this many OS threads and
    /// advances them in conservative lookahead windows; the schedule,
    /// and the window plan with it, is bit-identical for every
    /// value, so — like the observability switches — `threads` is
    /// excluded from the config fingerprint.
    pub threads: u32,
}

/// The largest skew exponent `validate` accepts, either sign: `x^32`
/// stays finite for every `x` below 4·10⁹, far above any distance or
/// latency in ns the models produce. The figures use at most 8.
const MAX_SKEW_ALPHA: f64 = 32.0;

impl ExperimentConfig {
    /// Paper-faithful defaults: compact allocation, K latencies,
    /// 20-node chunks, reference victim selection and one-chunk steals;
    /// polling every 4 expansions (the reference implementation polls
    /// every iteration — 4 keeps the victim-service wait below the
    /// network latency scale while bounding simulator event counts);
    /// a 2 µs retry pause modelling the thief-side bookkeeping between
    /// attempts.
    pub fn new(workload: Workload, n_nodes: u32) -> Self {
        Self {
            workload,
            n_nodes,
            mapping: RankMapping::OneToOne,
            alloc: AllocationPolicy::CompactRectangle,
            latency: LatencyParams::default(),
            victim: VictimPolicy::RoundRobin,
            adaptive: false,
            steal: StealAmount::OneChunk,
            chunk_size: 20,
            poll_interval: 4,
            retry_delay_ns: 2_000,
            probe_backoff_ns: 10_000,
            msg_handle_ns: 600,
            package_chunk_ns: 200,
            lifeline_threshold: None,
            nic_occupancy_ns: 2_000,
            nic_bytes_per_ns: 5.0,
            seed: 0xD15_7EA1,
            jitter: 0.0,
            collect_trace: true,
            collect_spans: false,
            max_sim_time_ns: None,
            max_events: None,
            expect_nodes: None,
            fault_plan: FaultPlan::default(),
            fault_tolerance: None,
            profile: false,
            threads: 1,
        }
    }

    /// Figure-legend label, e.g. `"Tofu Half 8RR"`.
    pub fn label(&self) -> String {
        format!(
            "{}{}{} {}",
            self.victim_label(),
            self.steal.label(),
            if self.lifeline_threshold.is_some() {
                " LL"
            } else {
                ""
            },
            self.mapping.label()
        )
    }

    /// The victim policy's legend name, `Adapt…` under the overlay.
    pub fn victim_label(&self) -> &'static str {
        if self.adaptive {
            self.victim.adaptive_label()
        } else {
            self.victim.label()
        }
    }

    /// Set the victim policy (builder style).
    pub fn with_victim(mut self, victim: VictimPolicy) -> Self {
        self.victim = victim;
        self
    }

    /// Set the steal amount (builder style).
    pub fn with_steal(mut self, steal: StealAmount) -> Self {
        self.steal = steal;
        self
    }

    /// Set the rank mapping (builder style).
    pub fn with_mapping(mut self, mapping: RankMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Validate the configuration, returning a human-readable error for
    /// every inconsistency a user could plausibly construct.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes == 0 {
            return Err("n_nodes must be positive".into());
        }
        if self.mapping.ppn() == 0 {
            return Err("mapping must place at least one rank per node".into());
        }
        if self.mapping.rank_count(self.n_nodes) < 2 {
            return Err(format!(
                "distributed work stealing needs at least 2 ranks, got {}; \
                 use dws_uts::search for the sequential baseline",
                self.mapping.rank_count(self.n_nodes)
            ));
        }
        if self.chunk_size == 0 {
            return Err("chunk_size must be positive".into());
        }
        if self.poll_interval == 0 {
            return Err("poll_interval must be positive".into());
        }
        if self.nic_bytes_per_ns <= 0.0 {
            return Err("nic_bytes_per_ns must be positive".into());
        }
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        if !(0.0..10.0).contains(&self.jitter) {
            return Err(format!("jitter {} outside [0, 10)", self.jitter));
        }
        if self.lifeline_threshold == Some(0) {
            return Err("lifeline_threshold of 0 would never steal at all".into());
        }
        match self.victim {
            VictimPolicy::DistanceSkewed { alpha } | VictimPolicy::LatencySkewed { alpha }
                if alpha.is_nan() =>
            {
                return Err("the skew exponent alpha is NaN".into());
            }
            // Above `FALLBACK_LIMIT` ranks an asymmetric job draws by
            // rejection, accepting with 1/e^alpha: a probability only
            // for alpha >= 0.
            VictimPolicy::DistanceSkewed { alpha } if alpha < 0.0 => {
                return Err(format!(
                    "the distance skew exponent alpha is {alpha}, below 0"
                ));
            }
            // Beyond it the weights 1/x^alpha can all round to 0 (or
            // overflow) for distances and latencies the models
            // produce, and `AliasTable::new` panics.
            VictimPolicy::DistanceSkewed { alpha } | VictimPolicy::LatencySkewed { alpha }
                if alpha.abs() > MAX_SKEW_ALPHA =>
            {
                return Err(format!(
                    "the skew exponent alpha is {alpha}, beyond ±{MAX_SKEW_ALPHA}"
                ));
            }
            _ => {}
        }
        if let Some(FaultToleranceCfg { timeout_mult: 0 }) = self.fault_tolerance {
            // Every recovery timer would fire at once, forever.
            return Err("fault tolerance's timeout_mult must be at least 1".into());
        }
        self.workload.spec.check()?;
        self.latency.check()?;
        self.fault_plan
            .validate(self.mapping.rank_count(self.n_nodes))?;
        if self.fault_plan.has_crashes() && self.effective_fault_tolerance().is_none() {
            return Err(
                "crash injection without fault tolerance would deadlock the token ring".into(),
            );
        }
        Ok(())
    }

    /// The fault-tolerance configuration actually in effect: the
    /// explicit one if set, else defaults exactly when faults are
    /// injected.
    pub fn effective_fault_tolerance(&self) -> Option<FaultToleranceCfg> {
        self.fault_tolerance.clone().or_else(|| {
            if self.fault_plan.is_active() {
                Some(FaultToleranceCfg::default())
            } else {
                None
            }
        })
    }

    /// Canonical JSON description of everything that shapes the
    /// simulated outcome — including the full fault plan, so two runs
    /// under different fault schedules never fingerprint as "same
    /// config". Observability switches (`collect_trace`,
    /// `collect_spans`, `profile`) and the `threads` count are
    /// deliberately excluded: they are proven not to perturb the
    /// schedule, and reports taken with and without them must stay
    /// diffable as the same configuration.
    pub fn config_json(&self) -> JsonValue {
        let opt_u64 = |v: Option<u64>| v.map(JsonValue::from).unwrap_or(JsonValue::Null);
        let mut pairs: Vec<(&str, JsonValue)> = vec![
            ("label", self.label().into()),
            ("seed", self.seed.into()),
            (
                "workload",
                JsonValue::obj(vec![
                    ("name", self.workload.name.into()),
                    ("spec", format!("{:?}", self.workload.spec).into()),
                    ("tree_seed", f64::from(self.workload.seed).into()),
                    ("gen_rounds", self.workload.gen_rounds.into()),
                    ("base_node_ns", self.workload.base_node_ns.into()),
                ]),
            ),
            ("n_nodes", self.n_nodes.into()),
            ("n_ranks", self.mapping.rank_count(self.n_nodes).into()),
            ("mapping", self.mapping.label().into()),
            ("alloc", format!("{:?}", self.alloc).into()),
            ("latency", format!("{:?}", self.latency).into()),
            ("victim", self.victim_label().into()),
            ("steal", self.steal.label().into()),
            ("chunk_size", self.chunk_size.into()),
            ("poll_interval", self.poll_interval.into()),
            ("retry_delay_ns", self.retry_delay_ns.into()),
            ("probe_backoff_ns", self.probe_backoff_ns.into()),
            ("msg_handle_ns", self.msg_handle_ns.into()),
            ("package_chunk_ns", self.package_chunk_ns.into()),
            (
                "lifeline_threshold",
                self.lifeline_threshold
                    .map(JsonValue::from)
                    .unwrap_or(JsonValue::Null),
            ),
            ("nic_occupancy_ns", self.nic_occupancy_ns.into()),
            ("nic_bytes_per_ns", self.nic_bytes_per_ns.into()),
            // No model reads this key; it stays so every pinned
            // fingerprint stays byte-equal until ROADMAP item 1(iii)'s
            // re-pin drops it.
            ("link_level_network", JsonValue::Null),
            ("jitter", self.jitter.into()),
            // Every rank reads the one global clock; the key stays, as
            // a constant, so every pinned fingerprint stays byte-equal
            // until ROADMAP item 1(iii)'s re-pin drops it.
            ("clock_skew_max_ns", 0u64.into()),
            ("max_sim_time_ns", opt_u64(self.max_sim_time_ns)),
            ("max_events", opt_u64(self.max_events)),
            ("fault_plan", fault_plan_json(&self.fault_plan)),
            (
                "fault_tolerance",
                match self.effective_fault_tolerance() {
                    // `fallback_rtt_ns` is a constant nothing reads; it
                    // stays so every pinned fingerprint stays byte-equal
                    // until ROADMAP item 1(iii)'s re-pin drops it.
                    Some(ft) => format!(
                        "FaultToleranceCfg {{ timeout_mult: {}, max_backoff_doublings: {}, \
                         fallback_rtt_ns: 200000 }}",
                        ft.timeout_mult, MAX_BACKOFF_DOUBLINGS
                    )
                    .into(),
                    None => JsonValue::Null,
                },
            ),
        ];
        let fingerprint = perflab::fingerprint(&JsonValue::obj(pairs.clone()).to_string());
        pairs.insert(0, ("fingerprint", fingerprint.into()));
        JsonValue::obj(pairs)
    }

    /// The configuration fingerprint alone (see
    /// [`config_json`](Self::config_json)).
    pub fn fingerprint(&self) -> String {
        self.config_json()
            .get("fingerprint")
            .and_then(|v| v.as_str())
            .expect("config_json always embeds a fingerprint")
            .to_string()
    }
}

/// The complete fault plan as JSON — every knob that changes what the
/// network does to the run, so it lands in the config fingerprint.
fn fault_plan_json(plan: &FaultPlan) -> JsonValue {
    JsonValue::obj(vec![
        ("active", plan.is_active().into()),
        ("drop_prob", plan.drop_prob.into()),
        ("dup_prob", plan.dup_prob.into()),
        ("spike_prob", plan.spike_prob.into()),
        ("spike_min_ns", plan.spike_min_ns.into()),
        ("spike_alpha", plan.spike_alpha.into()),
        ("spike_cap_ns", plan.spike_cap_ns.into()),
        // No fault reads this key; it stays so every pinned fingerprint
        // stays byte-equal until ROADMAP item 1(iii)'s re-pin drops it.
        ("slowdowns", JsonValue::Arr(Vec::new())),
        (
            "brownouts",
            JsonValue::Arr(
                plan.brownouts
                    .iter()
                    .map(|b| {
                        JsonValue::Arr(vec![b.rank.into(), b.from_ns.into(), b.until_ns.into()])
                    })
                    .collect(),
            ),
        ),
        (
            "crashes",
            JsonValue::Arr(
                plan.crashes
                    .iter()
                    .map(|c| JsonValue::Arr(vec![c.rank.into(), c.at_ns.into()]))
                    .collect(),
            ),
        ),
        (
            "partitions",
            JsonValue::Arr(
                plan.partitions
                    .iter()
                    .map(|p| {
                        JsonValue::Arr(vec![p.boundary.into(), p.from_ns.into(), p.until_ns.into()])
                    })
                    .collect(),
            ),
        ),
        (
            "crash_domains",
            JsonValue::Arr(
                plan.crash_domains
                    .iter()
                    .map(|d| {
                        JsonValue::Arr(vec![
                            JsonValue::Arr(d.ranks.iter().map(|&r| r.into()).collect()),
                            d.at_ns.into(),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Everything a figure needs from one run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Legend label of the configuration.
    pub label: String,
    /// Number of ranks that ran.
    pub n_ranks: u32,
    /// Simulated makespan.
    pub makespan: SimTime,
    /// Exact single-process time: tree size × per-node cost.
    pub t1_ns: u64,
    /// Tree size actually searched.
    pub total_nodes: u64,
    /// Speedup/efficiency summary.
    pub perf: Perf,
    /// Per-rank steal statistics.
    pub stats: RunStats,
    /// Activity trace on the global clock, when collected.
    pub trace: Option<ActivityTrace>,
    /// Engine-level counts (events, messages).
    pub report: RunReport,
    /// False when a limit aborted the run before termination.
    pub completed: bool,
    /// Fault-injection accounting, present when the plan was active.
    pub fault: Option<FaultReport>,
    /// Causal steal-protocol spans, when `collect_spans` was set.
    pub spans: Option<SpanTrace>,
    /// Engine-level network trace, when `collect_spans` was set.
    pub net: Option<NetTrace>,
    /// The placed job (rank → coordinate), kept for offline routing
    /// analysis of the network trace.
    pub job: Arc<Job>,
    /// The full configuration as JSON, fingerprint included — what the
    /// run report's `config` section carries.
    pub config: JsonValue,
    /// Configuration fingerprint (see [`ExperimentConfig::config_json`]).
    pub fingerprint: String,
    /// Engine self-profile, when the run was profiled.
    pub profile: Option<ProfileReport>,
    /// Adaptive victim selection: each rank's learned per-victim health
    /// records at the end of the run, in rank order. `None` unless the
    /// run used the [`ExperimentConfig::adaptive`] overlay.
    pub victim_health: Option<VictimHealthLedger>,
    /// Occupancy folded live at window barriers (O(ranks) memory, no
    /// step list), when the run streamed telemetry. The same fold as
    /// the one over `trace` — a property test holds the two to it.
    pub online_occupancy: Option<OccupancyCurve>,
    /// Window-planner identity: `(fnv1a digest of the window-end
    /// sequence, window count)`. The plan is a pure function of the
    /// configuration, so every `threads` setting must produce the
    /// identical pair — the window-planner property test asserts it.
    pub window_plan: (u64, u64),
    /// What the job was cut into to produce that plan: class, unit and
    /// shard counts, window width.
    pub cut: CutReport,
    /// Always 0: the engine no longer moves shards between threads.
    /// The benchmark's `engine.shard_rebalances` metric is the field's
    /// only reader, and the next change to the benchmark harness
    /// removes both.
    pub engine_steals: u64,
    /// [`blame_report`](Self::blame_report), computed on first use: the
    /// JSON report embeds the same one.
    blame: OnceLock<Option<BlameReport>>,
    /// The fold over `trace` behind [`occupancy`](Self::occupancy),
    /// computed on first use.
    traced_occupancy: OnceLock<OccupancyCurve>,
}

/// Per-rank adaptive health ledgers: `(rank, [(victim, health), …])`.
pub type VictimHealthLedger = Vec<(u32, Vec<(u32, VictimHealth)>)>;

/// What the faults actually did to one run.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Engine-level injection counters.
    pub stats: FaultStats,
    /// Ranks that crashed during the run.
    pub crashed_ranks: Vec<u32>,
    /// Frontier nodes lost with crashed ranks (their stack backlogs
    /// plus transfers never absorbed by a live thief).
    pub lost_frontier_nodes: u64,
    /// Full subtree size under those frontier nodes — the work the
    /// search never performed. `total_nodes + lost_subtree_nodes`
    /// equals the sequential tree size.
    pub lost_subtree_nodes: u64,
}

impl ExperimentResult {
    /// The run's occupancy: the fold over the trace when one was
    /// collected (step list included, computed once), else the live
    /// fold of a streamed run; `None` when the run kept neither.
    pub fn occupancy(&self) -> Option<&OccupancyCurve> {
        match &self.trace {
            Some(trace) => Some(
                self.traced_occupancy
                    .get_or_init(|| OccupancyCurve::from_trace(trace, self.makespan.ns())),
            ),
            None => self.online_occupancy.as_ref(),
        }
    }

    /// Latency histograms distilled from the spans, with the
    /// message-delivery distribution merged in from the network trace.
    /// `None` unless the run collected spans.
    pub fn latency_histograms(&self) -> Option<LatencyHistograms> {
        let spans = self.spans.as_ref()?;
        let mut h = spans.histograms();
        if let Some(net) = &self.net {
            h.msg_delivery_ns.merge(net.delivery_histogram());
        }
        Some(h)
    }

    /// Route every traced message over its dimension-ordered Tofu path
    /// and accumulate per-link byte loads. `None` unless the run
    /// collected spans (the network trace rides with them). The rank
    /// pairs' bytes are summed per node pair first, so each node pair
    /// is routed once; same-node traffic crosses no link.
    pub fn link_load(&self) -> Option<LinkLoad> {
        let net = self.net.as_ref()?;
        let mut node_pairs: HashMap<(TofuCoord, TofuCoord), u64> = HashMap::new();
        for (&(from, to), tally) in net.pair_tallies() {
            let (src, dst) = (self.job.coord_of(from), self.job.coord_of(to));
            if src != dst {
                *node_pairs.entry((src, dst)).or_insert(0) += tally.bytes;
            }
        }
        let mut load = LinkLoad::new();
        for ((src, dst), bytes) in node_pairs {
            load.add_route(self.job.machine(), src, dst, bytes);
        }
        Some(load)
    }

    /// The full machine-readable run report (`dws run --json`): config
    /// label, performance summary, per-rank and aggregate steal
    /// statistics, and — when spans were collected — latency
    /// histograms, span counts, and the network-level view.
    pub fn json_report(&self) -> JsonValue {
        let mut pairs: Vec<(&str, JsonValue)> = vec![
            ("label", self.label.as_str().into()),
            ("n_ranks", self.n_ranks.into()),
            ("makespan_ns", self.makespan.ns().into()),
            ("t1_ns", self.t1_ns.into()),
            ("total_nodes", self.total_nodes.into()),
            ("speedup", self.perf.speedup().into()),
            ("efficiency", self.perf.efficiency().into()),
            ("completed", self.completed.into()),
            (
                "engine",
                JsonValue::obj(vec![
                    ("events", self.report.events.into()),
                    ("messages", self.report.messages.into()),
                    ("timers", self.report.timers.into()),
                    ("halted", self.report.halted.into()),
                ]),
            ),
            ("totals", steal_stats_json(&self.stats.total())),
            (
                "per_rank",
                JsonValue::Arr(self.stats.per_rank.iter().map(steal_stats_json).collect()),
            ),
            ("config", self.config.clone()),
        ];
        // Occupancy section: one fold, over the trace or live, reads
        // the same either way.
        if let Some(occ) = self.occupancy() {
            let at = |latency: fn(&OccupancyCurve, f64) -> Option<f64>| {
                let value = |x| latency(occ, x).map_or(JsonValue::Null, JsonValue::from);
                JsonValue::obj(vec![
                    ("25", value(0.25)),
                    ("50", value(0.50)),
                    ("90", value(0.90)),
                ])
            };
            pairs.push((
                "occupancy",
                JsonValue::obj(vec![
                    ("w_max", occ.w_max().into()),
                    ("average", occ.average_occupancy().into()),
                    ("sl", at(OccupancyCurve::starting_latency)),
                    ("el", at(OccupancyCurve::ending_latency)),
                ]),
            ));
        }
        if let Some(profile) = &self.profile {
            pairs.push(("profile", profile.to_json()));
        }
        if let Some(h) = self.latency_histograms() {
            pairs.push(("histograms", histograms_json(&h)));
        }
        if let Some(spans) = &self.spans {
            pairs.push(("span_counts", span_counts_json(spans)));
        }
        if let Some(net) = &self.net {
            let load = self.link_load().expect("net implies link_load");
            pairs.push((
                "network",
                JsonValue::obj(vec![
                    ("messages", net.messages().into()),
                    ("links_used", load.links_used().into()),
                    ("total_link_units", load.total_link_units().into()),
                    ("hotspot_factor", load.hotspot_factor().into()),
                ]),
            ));
        }
        if let Some(vh) = &self.victim_health {
            pairs.push((
                "victim_health",
                JsonValue::Arr(
                    vh.iter()
                        .map(|(rank, tracked)| {
                            JsonValue::obj(vec![
                                ("rank", (*rank).into()),
                                (
                                    "victims",
                                    JsonValue::Arr(
                                        tracked
                                            .iter()
                                            .map(|(v, h)| victim_health_json(*v, h))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(fault) = &self.fault {
            pairs.push((
                "fault",
                JsonValue::obj(vec![
                    ("dropped", fault.stats.dropped.into()),
                    ("duplicated", fault.stats.duplicated.into()),
                    ("spiked", fault.stats.spiked.into()),
                    ("brownout_drops", fault.stats.brownout_drops.into()),
                    ("partition_drops", fault.stats.partition_drops.into()),
                    (
                        "crash_lost_deliveries",
                        fault.stats.crash_lost_deliveries.into(),
                    ),
                    ("crash_lost_timers", fault.stats.crash_lost_timers.into()),
                    (
                        "crashed_ranks",
                        JsonValue::Arr(fault.crashed_ranks.iter().map(|&r| r.into()).collect()),
                    ),
                    ("lost_frontier_nodes", fault.lost_frontier_nodes.into()),
                    ("lost_subtree_nodes", fault.lost_subtree_nodes.into()),
                ]),
            ));
        }
        if let Some(blame) = self.blame() {
            pairs.push(("blame", blame.to_json()));
        }
        JsonValue::obj(pairs)
    }

    /// Causal makespan attribution for this run: the critical-path
    /// blame report ([`BlameReport`]) behind the `blame` section of
    /// the JSON report and `dws why`. `None` unless the run collected
    /// both spans and the activity trace. Read-only over recorded
    /// data — computing it cannot perturb the schedule.
    pub fn blame_report(&self) -> Option<BlameReport> {
        self.blame().cloned()
    }

    /// The blame report, built at most once per result.
    fn blame(&self) -> Option<&BlameReport> {
        self.blame
            .get_or_init(|| {
                let spans = self.spans.as_ref()?;
                let trace = self.trace.as_ref()?;
                Some(BlameReport::from_run(spans, trace, self.makespan.ns()))
            })
            .as_ref()
    }

    /// Write the Chrome trace-event document for this run (`dws run
    /// --trace`) to `out`. When the activity trace is also present, the
    /// document gains a dedicated "critical path" track with flow
    /// arrows hopping rank tracks along the path — the blame report's
    /// path, so the run is analyzed once.
    ///
    /// # Panics
    /// Panics unless the run collected spans.
    pub fn write_chrome_trace(&self, out: &mut impl Write) -> io::Result<()> {
        write_chrome_trace(
            out,
            self.spans.as_ref().expect("a Chrome trace needs spans"),
            self.trace.as_ref(),
            self.makespan.ns(),
            self.blame().map(|b| &b.critical_path),
        )
    }
}

/// One learned health record as JSON (a row of the report's
/// `victim_health` section).
fn victim_health_json(victim: u32, h: &VictimHealth) -> JsonValue {
    JsonValue::obj(vec![
        ("victim", victim.into()),
        ("score", h.score.into()),
        ("rtt_ewma_ns", h.rtt_ewma_ns.into()),
        ("successes", h.successes.into()),
        ("empties", h.empties.into()),
        ("timeouts", h.timeouts.into()),
        ("quarantines", h.quarantines.into()),
        ("probes", h.probes.into()),
        ("quarantined_until_ns", h.quarantined_until_ns.into()),
    ])
}

fn steal_stats_json(s: &StealStats) -> JsonValue {
    JsonValue::obj(vec![
        ("steal_attempts", s.steal_attempts.into()),
        ("steals_ok", s.steals_ok.into()),
        ("steals_failed", s.steals_failed.into()),
        ("chunks_received", s.chunks_received.into()),
        ("nodes_received", s.nodes_received.into()),
        ("chunks_given", s.chunks_given.into()),
        ("nodes_given", s.nodes_given.into()),
        ("search_ns", s.search_ns.into()),
        ("sessions", s.sessions.into()),
        ("session_ns", s.session_ns.into()),
        ("nodes_processed", s.nodes_processed.into()),
        ("lifeline_dormancies", s.lifeline_dormancies.into()),
        ("lifeline_pushes", s.lifeline_pushes.into()),
        ("steal_timeouts", s.steal_timeouts.into()),
        ("retransmits", s.retransmits.into()),
        ("dup_replies_dropped", s.dup_replies_dropped.into()),
        ("stale_replies_dropped", s.stale_replies_dropped.into()),
        ("late_work_absorbed", s.late_work_absorbed.into()),
        ("token_regenerations", s.token_regenerations.into()),
        ("nodes_stranded", s.nodes_stranded.into()),
        ("nodes_refused", s.nodes_refused.into()),
        ("quarantines", s.quarantines.into()),
        ("probe_steals", s.probe_steals.into()),
        ("overlay_rejections", s.overlay_rejections.into()),
    ])
}

/// Exact number of tree nodes in the subtrees rooted at `roots`
/// (iterative DFS over the deterministic tree spec) — the work a
/// faulty run lost.
fn subtree_nodes(workload: &Workload, roots: Vec<Node>) -> u64 {
    let mut stack = roots;
    let mut buf = Vec::new();
    let mut count = 0u64;
    while let Some(node) = stack.pop() {
        count += 1;
        workload
            .spec
            .children_into(&node, workload.gen_rounds, &mut buf);
        stack.append(&mut buf);
    }
    count
}

/// Host nanoseconds to generate one child of `workload`'s root, timed
/// for a few milliseconds on the expansion routine the workers run: the
/// per-node cost under `dws run --profile`'s tree floor. Zero for a childless
/// root.
fn measure_child_ns(workload: &Workload) -> f64 {
    const BUDGET: Duration = Duration::from_millis(4);
    let root = workload.spec.root(workload.seed);
    let mut children = 0u64;
    let start = Instant::now();
    while start.elapsed() < BUDGET {
        // A few expansions per clock read, for roots with few children.
        for _ in 0..8 {
            let n = workload
                .spec
                .expand(black_box(&root), workload.gen_rounds, |child| {
                    black_box(child);
                });
            children += u64::from(n);
        }
        if children == 0 {
            return 0.0;
        }
    }
    start.elapsed().as_nanos() as f64 / children as f64
}

/// Streaming-telemetry attachment for one run: the engine-side
/// configuration plus an optional JSONL snapshot sink.
///
/// Deliberately *not* part of [`ExperimentConfig`]: streaming is an
/// observability switch, proven not to perturb the schedule, so — like
/// `collect_spans` and `threads` — it must stay out of the config
/// fingerprint and reports taken with and without it must stay
/// diffable as the same configuration.
pub struct StreamingSetup {
    /// Snapshot cadence, flight-recorder, and budget knobs.
    pub cfg: StreamingCfg,
    /// Where snapshot JSONL lines go (`None` folds accounting without
    /// emitting — still feeds `online_occupancy` and the abort path).
    pub sink: Option<Box<dyn std::io::Write + Send>>,
}

/// The valued streaming flags of `dws run` and the `figures` binary,
/// named without `--`; `--live` is the one switch.
pub const STREAMING_FLAGS: &[&str] = &[
    "snapshot",
    "snapshot-every",
    "flight-dump",
    "flight-ring",
    "wall-budget",
    "rss-budget-mb",
];

/// Streaming flags parsed and checked, nothing created yet: a
/// [`StreamingSetup`] without its snapshot file. A parse error shows
/// before any run starts; [`open`](Self::open) makes one setup per run.
#[derive(Debug, Clone)]
pub struct StreamingSpec {
    /// Snapshot cadence, flight-recorder, and budget knobs.
    pub cfg: StreamingCfg,
    /// The `--snapshot` file, if one was given.
    pub snapshot: Option<std::path::PathBuf>,
}

impl StreamingSpec {
    /// Parse streaming flags, `None` when none was given. `flags` are
    /// `(name, value)` pairs, named as in [`STREAMING_FLAGS`] or `live`
    /// (whose value is ignored). Touches no file.
    pub fn parse<'a>(
        flags: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Option<Self>, String> {
        let mut flags = flags.into_iter().peekable();
        if flags.peek().is_none() {
            return Ok(None);
        }
        let mut cfg = StreamingCfg::default();
        let mut snapshot = None;
        for (name, value) in flags {
            let number = || -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("--{name}: cannot parse {value:?}"))
            };
            let duration = || parse_duration_ns(value).map_err(|e| format!("--{name}: {e}"));
            match name {
                "live" => cfg.live = true,
                "snapshot" => snapshot = Some(value.into()),
                "snapshot-every" => cfg.snapshot_every_sim_ns = duration()?,
                "flight-dump" => cfg.flight_dump_path = Some(value.into()),
                "flight-ring" => cfg.flight_ring = number()? as usize,
                "wall-budget" => cfg.wall_budget = Some(Duration::from_nanos(duration()?)),
                "rss-budget-mb" => {
                    let bytes = number()?.checked_mul(1024 * 1024);
                    let bytes = bytes.ok_or_else(|| format!("--{name}: {value} MiB overflows"))?;
                    cfg.rss_budget_bytes = Some(bytes);
                }
                other => return Err(format!("--{other} is not a streaming flag")),
            }
        }
        Ok(Some(Self { cfg, snapshot }))
    }

    /// The setup for one run: creates (truncates) the snapshot file.
    pub fn open(&self) -> Result<StreamingSetup, String> {
        let sink = match &self.snapshot {
            Some(path) => {
                let file =
                    std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
                Some(Box::new(std::io::BufWriter::new(file)) as Box<dyn std::io::Write + Send>)
            }
            None => None,
        };
        Ok(StreamingSetup {
            cfg: self.cfg.clone(),
            sink,
        })
    }
}

/// Run one experiment to completion (or to its limits) and verify it.
///
/// # Panics
/// Panics on any integrity violation: lost work, malformed traces,
/// mismatched tree size, or a rank that never observed termination in a
/// completed run.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    run_experiment_streamed(cfg, None)
}

/// [`run_experiment`] with streaming telemetry attached: periodic
/// [`dws_metrics::Snapshot`] lines to the sink, online occupancy
/// aggregates in the result, and the flight-recorder / budget-abort
/// machinery from [`StreamingCfg`].
///
/// # Panics
/// Same integrity panics as [`run_experiment`].
pub fn run_experiment_streamed(
    cfg: &ExperimentConfig,
    streaming: Option<StreamingSetup>,
) -> ExperimentResult {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
    let n_ranks = cfg.mapping.rank_count(cfg.n_nodes);
    let machine = if cfg.alloc == dws_topology::AllocationPolicy::TorusFill {
        // TorusFill needs a machine the job fills uniformly (torus
        // symmetry is the point of the policy).
        dws_topology::Machine::torus_for_nodes(cfg.n_nodes)
    } else if cfg.n_nodes <= dws_topology::Machine::k_computer().node_count() {
        dws_topology::Machine::k_computer()
    } else {
        dws_topology::Machine::with_capacity(cfg.n_nodes)
    };
    let job = Arc::new(Job::place(
        machine,
        cfg.n_nodes,
        cfg.alloc,
        cfg.mapping,
        cfg.latency.clone(),
    ));
    // Every worker reads this one config, its "auto" fault tolerance
    // resolved once.
    let sched = Arc::new(ExperimentConfig {
        fault_tolerance: cfg.effective_fault_tolerance(),
        ..cfg.clone()
    });
    // One shared victim context for the whole job (builds the shared
    // offset-alias tables exactly once on symmetric jobs).
    let victim_ctx = cfg.victim.prepare(&job);
    let workers: Vec<Worker> = (0..n_ranks)
        .map(|me| {
            let selector = cfg.victim.build(&job, me, &victim_ctx);
            Worker::new(Arc::clone(&sched), &job, me, selector)
        })
        .collect();
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        latency_jitter: cfg.jitter,
        fault: cfg.fault_plan.clone(),
    };
    let net: Box<dyn NetworkModel> = if cfg.nic_occupancy_ns > 0 {
        Box::new(crate::network::NicContendedNetwork::new(
            Arc::clone(&job),
            cfg.nic_occupancy_ns,
            cfg.nic_bytes_per_ns,
        ))
    } else {
        let job = Arc::clone(&job);
        Box::new(PureNetwork(move |from, to, bytes| {
            job.latency_ns(from, to, bytes)
        }))
    };
    // Always configure a bounded lookahead (even at one thread). The
    // committed schedule is a pure function of the configuration and is
    // *independent of the shard decomposition* (the determinism matrix
    // asserts this), so the shard count is free to follow the host.
    let (cut, shard_of) = shard_plan(&job, cfg.threads);
    let mut sim: Simulation<Worker> = Simulation::with_network(workers, net, sim_cfg);
    sim.configure_parallel(
        ParallelConfig::new(cfg.threads, cut.lookahead_ns).with_shard_map(shard_of),
    );
    sim.record(Recorders {
        activity: cfg.collect_trace,
        spans: cfg.collect_spans,
        profiler: cfg.profile,
        streaming: streaming.map(|s| (s.cfg, s.sink)),
    });
    let child_ns = cfg.profile.then(|| measure_child_ns(&cfg.workload));
    // Wall-clock and allocation accounting bracket only the simulation
    // loop; both reads are no-ops for the simulated schedule.
    let allocs_before = allocation_count();
    let wall_start = Instant::now();
    let report = sim.run_parallel_with_limits(cfg.max_sim_time_ns.map(SimTime), cfg.max_events);
    let (wall_ns, allocs) = (
        wall_start.elapsed().as_nanos() as u64,
        allocation_count() - allocs_before,
    );
    let makespan = report.end_time;
    let recorded = sim.take_recordings();
    // The shards' profiles, summed: every phase, barrier wait included,
    // is the sum of the shards' own counters.
    let profile = recorded.profile.map(|shards| {
        let mut phases = PhaseTimes::default();
        let mut rows = Vec::with_capacity(shards.len());
        for s in &shards {
            phases.absorb(&s.phases);
            rows.push((
                s.shard,
                s.ranks,
                s.events,
                s.windows,
                s.busy_ns,
                s.wait_ns(),
            ));
        }
        ProfileReport {
            wall_ns,
            events: report.events,
            allocs,
            peak_rss_bytes: perflab::peak_rss_bytes().unwrap_or(0),
            tree_nodes: sim
                .actors()
                .iter()
                .map(|w| w.counters.nodes_processed)
                .sum(),
            child_ns: child_ns.expect("measured whenever the run profiles"),
            phases: phases
                .rows()
                .map(|(name, calls, total_ns)| (name.to_string(), calls, total_ns))
                .collect(),
            shards: rows,
        }
    });
    let trace = recorded.activity.map(|logs| {
        let t = ActivityTrace::from_shard_logs(n_ranks, logs);
        t.check()
            .unwrap_or_else(|e| panic!("scheduler produced a malformed trace: {e}"));
        t
    });
    let spans = recorded
        .spans
        .map(|logs| SpanTrace::from_shard_logs(n_ranks as usize, logs));
    let workers = sim.actors();
    let crashed_ranks = sim.crashed_ranks();
    let is_crashed = |r: usize| crashed_ranks.contains(&(r as u32));
    // Crashed ranks can never observe termination; a run is complete
    // when every *survivor* has.
    let completed = workers
        .iter()
        .enumerate()
        .all(|(r, w)| is_crashed(r) || w.is_done());
    if !completed {
        assert!(
            report.halted,
            "simulation drained its event queue but some rank never \
             observed termination — protocol bug"
        );
    }

    let stats = RunStats::new(workers.iter().map(|w| w.counters).collect());
    let total_nodes = stats.nodes_processed();

    // Lost-work reconciliation: everything a crash took down — the
    // dead rank's stack backlog plus every transfer no live thief
    // absorbed (sender- or receiver-side of a crash) — rooted at its
    // frontier nodes and expanded to full subtree size.
    let mut lost_frontier: Vec<Node> = Vec::new();
    if completed && !crashed_ranks.is_empty() {
        for (r, w) in workers.iter().enumerate() {
            if is_crashed(r) {
                lost_frontier.extend(w.stack_nodes().copied());
            }
            for (to, xfer, nodes) in w.unconfirmed_transfers() {
                if !sim.actor(to).has_absorbed(r as u32, xfer) {
                    lost_frontier.extend_from_slice(nodes);
                }
            }
        }
    }
    let lost_frontier_nodes = lost_frontier.len() as u64;
    let lost_subtree_nodes = if lost_frontier.is_empty() {
        0
    } else {
        subtree_nodes(&cfg.workload, lost_frontier)
    };

    if completed {
        if crashed_ranks.is_empty() {
            // Exactly-once transfer semantics hold even under message
            // drops and duplications: strict conservation.
            stats
                .check_conservation()
                .expect("steal accounting must conserve work");
            if let Some(expect) = cfg.expect_nodes {
                assert_eq!(
                    total_nodes, expect,
                    "distributed search found {total_nodes} nodes, expected {expect}"
                );
            }
            for (r, w) in workers.iter().enumerate() {
                assert_eq!(w.backlog(), 0, "rank {r} left work behind");
            }
        } else {
            // Degraded run: global node conservation is replaced by
            // explicit loss accounting; per-rank counters must still
            // balance internally.
            for (r, s) in stats.per_rank.iter().enumerate() {
                if is_crashed(r) {
                    // A crashed rank's counters are a snapshot taken
                    // mid-operation (e.g. a steal attempt still in
                    // flight); only survivors must balance.
                    continue;
                }
                s.check()
                    .unwrap_or_else(|e| panic!("rank {r} counters inconsistent: {e}"));
            }
            if let Some(expect) = cfg.expect_nodes {
                assert_eq!(
                    total_nodes + lost_subtree_nodes,
                    expect,
                    "processed {total_nodes} + lost {lost_subtree_nodes} nodes \
                     must add up to the tree size {expect}"
                );
            }
            for (r, w) in workers.iter().enumerate() {
                if !is_crashed(r) {
                    assert_eq!(w.backlog(), 0, "surviving rank {r} left work behind");
                }
            }
        }
    }

    let t1_ns = total_nodes * cfg.workload.node_ns();
    let perf = Perf {
        n_ranks,
        makespan_ns: makespan.ns().max(1),
        t1_ns,
    };
    let fault = if cfg.fault_plan.is_active() {
        Some(FaultReport {
            stats: sim.fault_stats(),
            crashed_ranks,
            lost_frontier_nodes,
            lost_subtree_nodes,
        })
    } else {
        None
    };
    let victim_health = if cfg.adaptive {
        Some(
            workers
                .iter()
                .enumerate()
                .map(|(r, w)| {
                    let tracked: Vec<(u32, VictimHealth)> = w
                        .health()
                        .map(|h| h.iter().map(|(v, e)| (v, e.clone())).collect())
                        .unwrap_or_default();
                    (r as u32, tracked)
                })
                .collect(),
        )
    } else {
        None
    };
    let window_plan = sim.window_plan();
    let config = cfg.config_json();
    let fingerprint = config
        .get("fingerprint")
        .and_then(|v| v.as_str())
        .expect("config_json always embeds a fingerprint")
        .to_string();
    ExperimentResult {
        label: cfg.label(),
        n_ranks,
        makespan,
        t1_ns,
        total_nodes,
        perf,
        stats,
        trace,
        report,
        completed,
        fault,
        spans,
        net: recorded.net,
        job,
        config,
        fingerprint,
        profile,
        victim_health,
        online_occupancy: recorded.occupancy,
        window_plan,
        cut,
        engine_steals: 0,
        blame: OnceLock::new(),
        traced_occupancy: OnceLock::new(),
    }
}

/// Cap on the shard count the runner decomposes a job into. Several
/// shards per worker thread keep each event heap and the rank state it
/// serves small (one shard per thread measured slower at two threads);
/// beyond this the per-window bookkeeping (plan slots, exchange cells)
/// stops paying for itself.
const MAX_SHARDS: u32 = 64;

/// Fewest units a cut class must offer before the job is cut along it:
/// enough that two worker threads get their eight shards each. A
/// coarser class with fewer units would buy a wider window with fewer,
/// larger shards.
const MIN_CUT_UNITS: u32 = 16;

/// What a job was cut into for the engine: the locality class its
/// shards are whole units of, and the lookahead that cut buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutReport {
    /// Hardware class no shard boundary splits.
    pub class: CutClass,
    /// Units of `class` the job occupies.
    pub units: u32,
    /// Shards those units were striped over.
    pub shards: u32,
    /// Window width: the cheapest message between two units of `class`.
    pub lookahead_ns: u64,
}

/// Cut `job` for `threads` worker threads: the report and the
/// rank → shard map. Whole units of the job's
/// [locality cut](Job::locality_cut) are striped, in the cut's slab
/// order, over `min(units, threads × 8, MAX_SHARDS)` shards — one shard
/// when single-threaded (no exchange bookkeeping to pay for), several
/// per worker otherwise, each thread running a fixed contiguous run of
/// them, for heap and working-set locality. Every rank of a physical
/// node lands on one shard, the precondition under which per-node NIC
/// state needs no cross-shard synchronization.
/// Class and lookahead depend on the placement alone; only the shard
/// count follows `threads`.
pub fn shard_plan(job: &Job, threads: u32) -> (CutReport, Vec<u32>) {
    let cut = job.locality_cut(MIN_CUT_UNITS);
    let max_shards = if threads <= 1 {
        1
    } else {
        threads.saturating_mul(8).min(MAX_SHARDS)
    };
    let units = cut.n_units as u64;
    let shards = units.min(max_shards as u64);
    let shard_of = cut
        .unit_of_rank
        .iter()
        .map(|&unit| (unit as u64 * shards / units) as u32)
        .collect();
    let report = CutReport {
        class: cut.class,
        units: cut.n_units,
        shards: shards as u32,
        lookahead_ns: cut.lookahead_ns,
    };
    (report, shard_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_a_zero_timeout_mult_and_a_nan_alpha() {
        let base = ExperimentConfig::new(dws_uts::presets::t3sim_xs(), 16);
        let mut cfg = base.clone();
        cfg.fault_tolerance = Some(FaultToleranceCfg { timeout_mult: 0 });
        let err = cfg.validate().expect_err("timeout_mult 0");
        assert!(err.contains("timeout_mult"), "{err}");
        cfg.fault_tolerance = Some(FaultToleranceCfg { timeout_mult: 1 });
        assert_eq!(cfg.validate(), Ok(()));
        for victim in [
            VictimPolicy::DistanceSkewed { alpha: f64::NAN },
            VictimPolicy::LatencySkewed { alpha: f64::NAN },
        ] {
            let err = base.clone().with_victim(victim).validate();
            assert!(err.expect_err("NaN alpha").contains("alpha"));
        }
    }

    #[test]
    fn validate_rejects_a_negative_distance_skew_alpha() {
        let base = ExperimentConfig::new(dws_uts::presets::t3sim_xs(), 16);
        let err = base
            .clone()
            .with_victim(VictimPolicy::DistanceSkewed { alpha: -1.0 })
            .validate()
            .expect_err("negative alpha");
        assert!(err.contains("alpha"), "{err}");
        // Zero is uniform, and the latency skew's alias table is exact
        // for any exponent.
        for victim in [
            VictimPolicy::DistanceSkewed { alpha: 0.0 },
            VictimPolicy::LatencySkewed { alpha: -1.0 },
        ] {
            assert_eq!(base.clone().with_victim(victim).validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_a_skew_alpha_whose_weights_leave_f64() {
        let base = ExperimentConfig::new(dws_uts::presets::t3sim_xs(), 16);
        for alpha in [100.0, f64::INFINITY] {
            for victim in [
                VictimPolicy::DistanceSkewed { alpha },
                VictimPolicy::LatencySkewed { alpha },
                VictimPolicy::LatencySkewed { alpha: -alpha },
            ] {
                let err = base.clone().with_victim(victim).validate();
                assert!(err.expect_err("alpha out of range").contains("alpha"));
            }
        }
        for victim in [
            VictimPolicy::DistanceSkewed { alpha: 32.0 },
            VictimPolicy::LatencySkewed { alpha: -32.0 },
        ] {
            assert_eq!(base.clone().with_victim(victim).validate(), Ok(()));
        }
    }

    #[test]
    fn an_rss_budget_past_u64_bytes_is_rejected() {
        let budget = |mib| {
            let spec = StreamingSpec::parse([("rss-budget-mb", mib)]);
            spec.map(|s| s.expect("a flag was given").cfg.rss_budget_bytes)
        };
        assert_eq!(budget("17592186044415"), Ok(Some(u64::MAX - (1 << 20) + 1)));
        let err = budget("17592186044416").expect_err("2^44 MiB is 2^64 bytes");
        assert!(err.contains("--rss-budget-mb"), "{err}");
    }
}
