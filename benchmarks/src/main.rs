//! The repo benchmark. See `benchmarks/README.md`.
//!
//! ```text
//! dws-benchmark [--seed S] [--smoke]                   every workload, result.json, traces
//! dws-benchmark --workload W --seed S --seconds N --trace 0|1   one workload, one JSON line
//! dws-benchmark compare <a.json> <b.json>               verdicts; exit 2 on a regression
//! ```

mod child;
mod compare;
mod driver;
mod probes;
mod procfs;
mod spans;
mod stats;
mod workloads;

use driver::{RunOpts, Spec};
use std::process::ExitCode;
use workloads::Variant;

/// Counts allocations, for `allocs_per_event`.
#[global_allocator]
static ALLOC: dws::simnet::CountingAlloc = dws::simnet::CountingAlloc;

/// `ExperimentConfig::new`'s seed.
const DEFAULT_SEED: u64 = 0xD15_7EA1;

/// Command-line flags: `--name value` pairs, bare switches and
/// positional words.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Args {
        const SWITCHES: [&str; 3] = ["--smoke", "--traced", "--twin"];
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = argv.peekable();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.flags.push((a, None));
            } else if a.starts_with("--") {
                let value = it.next();
                args.flags.push((a, value));
            } else {
                args.words.push(a);
            }
        }
        args
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }

    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.flags.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v)),
            Some((_, None)) => Err(format!("{name} needs a value")),
        }
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: bad value {v:?}")))
            .transpose()
    }

    /// `--seed`, decimal or `0x` hexadecimal.
    fn seed(&self) -> Result<u64, String> {
        match self.value("--seed")? {
            None => Ok(DEFAULT_SEED),
            Some(v) => match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| format!("--seed: bad value {v:?}")),
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let code = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    let opts = RunOpts {
        seed: args.seed()?,
        smoke: args.has("--smoke"),
    };
    let workload = args.value("--workload")?;
    if let Some(known) = workload {
        if !workloads::WORKLOADS.iter().any(|w| w.name == known) {
            return Err(format!("unknown workload {known:?}"));
        }
    }

    if let Some(mode) = args.value("--child")? {
        let workload = workload.ok_or("--child needs --workload");
        let doc = match mode {
            "probes" => probes::run_all(opts.seed, opts.smoke),
            "setup" => child::setup_samples(workload?, opts.seed, opts.smoke),
            "run" => {
                let variant = if args.has("--twin") {
                    Variant::Twin
                } else {
                    Variant::Main
                };
                child::run(
                    workload?,
                    opts.seed,
                    opts.smoke,
                    variant,
                    args.has("--traced"),
                )
            }
            other => return Err(format!("unknown child mode {other:?}")),
        };
        println!("{doc}");
        return Ok(ExitCode::SUCCESS);
    }

    if args.words.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = &args.words[..] else {
            return Err("usage: dws-benchmark compare <a.json> <b.json>".into());
        };
        let load = |path: &String| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|text| dws::metrics::export::parse(&text))
        };
        let rows = compare::compare(&Spec::load()?, &load(a)?, &load(b)?)?;
        return Ok(ExitCode::from(compare::report(&rows) as u8));
    }
    if let Some(word) = args.words.first() {
        return Err(format!("unknown command {word:?}"));
    }

    let spec = Spec::load()?;
    if let Some(workload) = workload {
        let seconds = args.number("--seconds")?.unwrap_or(spec.run_seconds);
        let trace = match args.value("--trace")? {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
        };
        return driver::run_one(&spec, workload, opts, seconds, trace).map(code);
    }
    driver::run_all(&spec, opts).map(code)
}

fn main() -> ExitCode {
    run(&Args::parse(std::env::args().skip(1))).unwrap_or_else(|e| {
        eprintln!("dws-benchmark: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_switches_and_words_are_told_apart() {
        let a = args("compare a.json b.json --seed 0x10 --smoke --trace 1");
        assert_eq!(a.words, ["compare", "a.json", "b.json"]);
        assert_eq!(a.seed(), Ok(16));
        assert!(a.has("--smoke") && !a.has("--twin"));
        assert_eq!(a.value("--trace"), Ok(Some("1")));
        assert_eq!(a.number::<f64>("--seconds"), Ok(None));
        assert_eq!(args("").seed(), Ok(DEFAULT_SEED));
        assert!(args("--seed x").seed().is_err());
        assert!(args("--seed").seed().is_err());
    }
}
