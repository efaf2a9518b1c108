//! `dws` — the command-line interface to the reproduction.
//!
//! ```text
//! dws run    --tree t3wl --nodes 256 --victim tofu --steal half [--lifestory]
//! dws trace  --tree t3sim-l --ranks 64 --out trace.json --json report.json
//! dws sweep  --tree t3wl --ranks 64,128,256 --seeds 3
//! dws chaos  --tree t3sim-l --nodes 64 --rates 0,0.01,0.05
//! dws tree   --tree t3sim-l
//! dws topo   --nodes 1024 [--rank 0]
//! dws shmem  --tree t3sim-l --workers 8
//! dws top    snapshots.jsonl
//! dws why    report.json
//! ```

mod args;
mod commands;

/// Counting allocator so `dws profile` can report allocations-per-event.
/// Delegates straight to the system allocator; the only overhead is one
/// relaxed atomic increment per allocation.
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
    let result = match cmd {
        "run" => commands::run(rest),
        "trace" => commands::trace(rest),
        "sweep" => commands::sweep(rest),
        "chaos" => commands::chaos(rest),
        "tree" => commands::tree(rest),
        "topo" | "topology" => commands::topo(rest),
        "shmem" => commands::shmem(rest),
        "profile" => commands::profile(rest),
        "diff" => commands::diff(rest),
        "top" => commands::top(rest),
        "why" => commands::why(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if matches!(cmd, "run" | "trace" | "profile") {
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

fn usage() -> &'static str {
    "dws — distributed work stealing with latency-aware victim selection

commands:
  run     run one simulated experiment and report the paper's metrics
          --tree <preset>      workload (default t3wl; see `dws tree`)
          --nodes <n>          physical nodes (default 128)
          --mapping <m>        1/N | 8RR | 8G | <k>RR | <k>G (default 1/N)
          --victim <v>         reference | rand | tofu | latskew | hier
          --alpha <f>          skew exponent (default 1.0)
          --local-tries <n>    hier: local burst length (default 4)
          --steal <s>          one | half (default one)
          --lifelines <n>      enable lifelines after n failed steals
          --seed <n>           master seed
          --chunk <n>          chunk size (default 20)
          --poll <n>           poll interval in node expansions
          --gen-rounds <n>     SHA rounds per node creation (default 1)
          --jitter <f>         latency jitter fraction
          --skew-ns <n>        max per-rank clock skew
          --threads <n>        simulation worker threads (default 1);
                               results are bit-identical for every n
          --lifestory          print the per-rank activity chart
          --csv <path>         write per-rank statistics as CSV
          --fault-drop/-dup/-spike <p> message fault probabilities
          --fault-spike-min-ns / --fault-spike-cap-ns   spike tail shape
          --fault-crash <r@ns,..>       crash rank r at time ns
          --fault-brownout <r@a:b,..>   NIC brownout window on rank r
          --fault-slowdown <r@a:b:f,..> slow rank r by factor f in [a,b)
          --fault-tolerant     force the failure-tolerant protocol on
          --fault-timeout-mult <n>      steal-timeout RTT multiplier
          --ranks <n>          rank count (converted via the mapping's
                               ranks per node; overrides --nodes)
          --trace <path>       write a Chrome trace-event file (Perfetto)
          --json <path>        write the machine-readable run report
          --links <path>       write the per-link Tofu load matrix
          --live               print a live progress line per snapshot
          --snapshot <path>    stream periodic JSONL snapshots to a file
          --snapshot-every <d> simulated-time cadence (500ms, 2s, ... ;
                               default 1ms of simulated time)
          --snapshot-events <n> event-count cadence instead
          --flight-dump <path> crash flight recorder: dump the last
                               --flight-ring events per shard (default
                               1024) on panic, budget overrun, or SIGTERM
          --wall-budget <d>    abort (with dump) past this wall time
          --rss-budget-mb <n>  abort (with dump) past this peak RSS
  trace   run once with the causal steal-protocol tracer on
          (accepts the same configuration flags as run)
          --out <path>         Chrome trace output (default trace.json)
          --json / --links     as on run
  sweep   sweep rank counts x strategies, multiple seeds, mean +/- sd
          --tree --seeds <k> --ranks <a,b,c> --mapping as above
  chaos   sweep message-fault rates x victim policies
          --tree --nodes --steal --seeds <k> --rates <p,p,..>
          --dup-frac <f> --spike-frac <f>  dup/spike rate as a
                                           fraction of the drop rate
  tree    measure a workload preset (size, depth, imbalance, frontier)
          --tree <preset> [--limit <nodes>]
  topo    inspect a placed job's distances and latencies
          --nodes <n> [--mapping <m>] [--rank <r>]
  shmem   run the threaded shared-memory executor
          --tree <preset> --workers <n>
  profile run once with the engine self-profiler on: per-phase wall
          time (dispatch, fault_eval, victim_draw, trace_record),
          events/sec, allocations per event, peak RSS, the tree
          floor (nodes × measured ns per child: what the tree alone
          costs the host), and — when --threads > 1 — a per-shard
          table (ranks, events, windows, busy vs barrier-wait time)
          (accepts the same configuration flags as run)
          --spans              also enable the causal tracer so the
                               trace_record phase measures real cost
          --json <path>        write the run report (includes profile)
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
          dws why <report.json>      render an existing run report
          dws why --tree ... [run flags]  run + explain in one step
          exit code 2 if the attribution-sum invariant fails (CI gate)
  help    this text

run, trace and profile end with one line on stderr saying what the
host paid: `host: wall <s> s, peak RSS <MiB> MiB`"
}
