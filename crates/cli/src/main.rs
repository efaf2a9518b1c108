//! `dws` — the command-line interface to the reproduction.
//!
//! ```text
//! dws run    --tree t3wl --nodes 256 --victim tofu --steal half [--lifestory]
//! dws run    --tree t3sim-l --ranks 64 --trace trace.json --json report.json
//! dws run    --tree t3sim-l --ranks 64 --threads 2 --profile
//! dws chaos  --tree t3sim-l --nodes 64 --rates 0,0.01,0.05
//! dws tree   --tree t3sim-l
//! dws shmem  --tree t3sim-l --workers 8
//! dws top    snapshots.jsonl
//! dws why    report.json
//! dws diff   a.json b.json
//! ```

mod args;
mod commands;

/// Counting allocator so `dws run --profile` can report allocations per
/// event. Delegates straight to the system allocator; the only overhead
/// is one relaxed atomic increment per allocation.
#[global_allocator]
static ALLOC: dws_simnet::CountingAlloc = dws_simnet::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    if let Err(e) = dispatch(cmd, rest) {
        if e == args::HELP {
            println!("{}", usage());
            return;
        }
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if cmd == "run" {
        // What the host paid for the whole command, reports included.
        // On stderr: stdout stays byte-deterministic for a seed.
        let rss = dws_metrics::perflab::peak_rss_bytes().map_or_else(
            || "unavailable".to_string(),
            |bytes| format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0)),
        );
        eprintln!(
            "host: wall {:.2} s, peak RSS {rss}",
            started.elapsed().as_secs_f64()
        );
    }
}

/// Run one command. `dws help`, and `--help` or `-h` wherever a known
/// command takes a flag, return [`args::HELP`].
fn dispatch(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "run" => commands::run(rest),
        "chaos" => commands::chaos(rest),
        "tree" => commands::tree(rest),
        "shmem" => commands::shmem(rest),
        "diff" => commands::diff(rest),
        "top" => commands::top(rest),
        "why" => commands::why(rest),
        "help" | "--help" | "-h" => Err(args::HELP.into()),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> &'static str {
    "dws — distributed work stealing with latency-aware victim selection

commands:
  run     run one simulated experiment and report the paper's metrics
          --tree <preset>      workload (default t3wl; see `dws tree`)
          --nodes <n>          physical nodes (default 128)
          --ranks <n>          rank count (converted via the mapping's
                               ranks per node; overrides --nodes)
          --mapping <m>        1/N | 8RR | 8G | <k>RR | <k>G (default 1/N)
          --alloc <a>          compact | strip | scatter[:seed] | torus
                               (default compact)
          --victim <v>         reference | rand | tofu | latskew | hier,
                               or adaptive[-<v>] for the failure-aware
                               overlay on <v> (bare adaptive = tofu)
          --alpha <f>          skew exponent, >= 0 for tofu (default 1.0)
          --local-tries <n>    hier: local burst length (default 4)
          --steal <s>          one | half (default one)
          --lifelines <n>      enable lifelines after n failed steals
          --seed <n>           master seed
          --chunk <n>          chunk size (default 20)
          --poll <n>           poll interval in node expansions
          --gen-rounds <n>     SHA rounds per node creation (default 1)
          --jitter <f>         latency jitter fraction
          --threads <n>        simulation worker threads (default 1;
                               auto = the host's); results are
                               bit-identical for every n
          --fault-drop <p>     message drop probability
          --fault-dup <p>      message duplication probability
          --fault-spike <p>    latency-spike probability
          --fault-spike-min-ns <n>      spike tail minimum
          --fault-spike-cap-ns <n>      spike tail cap
          --fault-crash <r@ns,..>       crash rank r at time ns
          --fault-node-crash <k@ns,..>  crash every rank of node k
          --fault-brownout <r@a:b,..>   NIC brownout window on rank r
          --fault-partition <r@a:b,..>  cut ranks below r off from the
                                        rest during [a,b)
          --fault-tolerant     force the failure-tolerant protocol on
          --fault-timeout-mult <n>      steal-timeout RTT multiplier (>= 1)
          --no-trace           keep no activity trace (no occupancy,
                               SL/EL or --lifestory)
          --lifestory          print the per-rank activity chart
          --csv <path>         write per-rank statistics as CSV
          --trace <path>       write a Chrome trace-event file (Perfetto)
          --json <path>        write the machine-readable run report
          --links <path>       write the per-link Tofu load matrix
                               (any of these three turns the causal
                               tracer on)
          --profile            engine self-profile: per-phase wall time
                               (dispatch, fault_eval, victim_draw,
                               trace_record, barrier_wait, exchange),
                               events/sec, allocations per event, peak
                               RSS, the locality cut and window count
                               (`threads :` line), the tree floor
                               (nodes × measured ns per child: what the
                               tree alone costs the host), and — when
                               --threads > 1 — a per-shard table
          --live               print a live progress line per snapshot
          --snapshot <path>    stream periodic JSONL snapshots to a file
          --snapshot-every <d> simulated-time cadence (500ms, 2s, ... ;
                               default 1ms of simulated time)
          --flight-dump <path> crash flight recorder: dump the last
                               --flight-ring <n> events per shard
                               (default 1024) on panic, budget overrun,
                               or SIGTERM
          --wall-budget <d>    abort (with dump) past this wall time
          --rss-budget-mb <n>  abort (with dump) past this peak RSS
  chaos   sweep message-fault rates x victim policies
          --tree --nodes --steal --seeds <k> --rates <p,p,..>
          --dup-frac <f> --spike-frac <f>  dup/spike rate as a
                                           fraction of the drop rate
  tree    measure a workload preset (size, depth, imbalance, frontier)
          --tree <preset> [--limit <nodes>]
  shmem   run the threaded shared-memory executor
          --tree <preset> --workers <n>
  diff    compare two runs or bench records metric by metric
          dws diff <a> <b> [--tol <f>]
          each side is a run report (dws run --json), a bench record,
          or a trajectory file; <path>@N picks trajectory entry N
          (negative counts from the end; bare trajectory means @-1)
          verdict per metric: regression / improvement / within-noise,
          significant iff |delta| > max(ci95_a + ci95_b, tol*|a|)
          exit code 2 if any metric regressed (for CI gating)
  top     replay a snapshot stream as the --live terminal view
          dws top <snapshots.jsonl> [--tail <n>]
          errors if the file holds no well-formed snapshot line, so CI
          can use it to validate a stream or flight dump; a run report
          (dws run --json) prints its histogram quantiles instead
  why     explain where a run's makespan went: critical-path makespan
          attribution (components sum to the makespan exactly), the
          per-rank idle waterfall, top critical-path segments, and a
          Coz-style what-if table of predicted speedups
          dws why <report.json>      (write one with dws run --json)
          exit code 2 if the attribution-sum invariant fails (CI gate)
  help    this text

run ends with one line on stderr saying what the host paid:
`host: wall <s> s, peak RSS <MiB> MiB`"
}
