//! Minimal flag parser shared by the subcommands.
//!
//! Deliberately dependency-free: flags are `--name value` or boolean
//! `--name`, every unknown flag is an error, and each subcommand
//! declares which flags it understands.

use std::collections::BTreeMap;

/// Parsed flags of one invocation.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    bools: Vec<String>,
    /// Positional arguments, in order ([`parse_paths`] only).
    pub paths: Vec<String>,
}

/// The error the parsers return for `--help` or `-h` where a flag may
/// stand (not as a flag's value): the caller prints the usage instead.
pub const HELP: &str = "help requested";

/// Parse `args` against the allowed flag lists. `valued` flags take one
/// argument, `boolean` flags take none, and a positional argument is
/// an error.
pub fn parse(args: &[String], valued: &[&str], boolean: &[&str]) -> Result<Flags, String> {
    let flags = parse_paths(args, valued, boolean)?;
    match flags.paths.first() {
        Some(a) => Err(format!("unexpected positional argument {a:?}")),
        None => Ok(flags),
    }
}

/// [`parse`], keeping positional arguments in [`Flags::paths`].
pub fn parse_paths(args: &[String], valued: &[&str], boolean: &[&str]) -> Result<Flags, String> {
    let mut out = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            return Err(HELP.into());
        }
        let Some(name) = a.strip_prefix("--") else {
            out.paths.push(a.clone());
            continue;
        };
        if boolean.contains(&name) {
            out.bools.push(name.to_string());
        } else if valued.contains(&name) {
            let v = it
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            out.values.insert(name.to_string(), v.clone());
        } else {
            return Err(format!(
                "unknown flag --{name} (valid: {})",
                valued
                    .iter()
                    .chain(boolean.iter())
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    Ok(out)
}

impl Flags {
    /// A valued flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A boolean flag.
    pub fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    /// A parsed valued flag with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// A parsed optional flag.
    pub fn parse_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

/// Parse a mapping name (`1/N`, `8RR`, `8G`, `<k>RR`, `<k>G`).
pub fn parse_mapping(s: &str) -> Result<dws_topology::RankMapping, String> {
    use dws_topology::RankMapping;
    if s.eq_ignore_ascii_case("1/n") || s == "1" {
        return Ok(RankMapping::OneToOne);
    }
    let lower = s.to_ascii_lowercase();
    if let Some(k) = lower.strip_suffix("rr") {
        let ppn: u32 = k.parse().map_err(|_| format!("bad mapping {s:?}"))?;
        return Ok(RankMapping::RoundRobin { ppn });
    }
    if let Some(k) = lower.strip_suffix('g') {
        let ppn: u32 = k.parse().map_err(|_| format!("bad mapping {s:?}"))?;
        return Ok(RankMapping::Grouped { ppn });
    }
    Err(format!("bad mapping {s:?} (expected 1/N, 8RR, 8G, ...)"))
}

/// Parse a victim-policy name with an optional `--alpha`/`--local-tries`,
/// and whether it asks for the failure-aware health overlay: an
/// `adaptive-` prefix overlays it on the named policy, and bare
/// `adaptive` on the Tofu policy.
pub fn parse_victim(
    name: &str,
    alpha: f64,
    local_tries: u32,
) -> Result<(dws_core::VictimPolicy, bool), String> {
    use dws_core::VictimPolicy;
    let lower = name.to_ascii_lowercase();
    let (base, adaptive) = match lower.strip_prefix("adaptive") {
        // Bare `adaptive`: the paper's best static policy, learned.
        Some("") => ("tofu", true),
        Some(rest) => (rest.strip_prefix('-').unwrap_or(rest), true),
        None => (lower.as_str(), false),
    };
    let victim = match base {
        "reference" | "roundrobin" | "rr" => VictimPolicy::RoundRobin,
        "rand" | "uniform" => VictimPolicy::Uniform,
        // `ExperimentConfig::validate`'s bounds: tofu's rejection
        // sampler needs alpha >= 0, and past ±32 the weights 1/x^alpha
        // leave f64.
        "tofu" | "skew" | "distance" if !(0.0..=32.0).contains(&alpha) => {
            return Err(format!(
                "--alpha {alpha} is outside [0, 32], which {name} refuses"
            ));
        }
        "latskew" | "latency" if !(-32.0..=32.0).contains(&alpha) => {
            return Err(format!(
                "--alpha {alpha} is outside [-32, 32], which {name} refuses"
            ));
        }
        "tofu" | "skew" | "distance" => VictimPolicy::DistanceSkewed { alpha },
        "latskew" | "latency" => VictimPolicy::LatencySkewed { alpha },
        "hier" | "hierarchical" => VictimPolicy::Hierarchical { local_tries },
        _ => return Err(format!("unknown victim policy {name:?}")),
    };
    Ok((victim, adaptive))
}

/// Parse a steal-amount name.
pub fn parse_steal(name: &str) -> Result<dws_core::StealAmount, String> {
    use dws_core::StealAmount;
    Ok(match name.to_ascii_lowercase().as_str() {
        "one" | "onechunk" | "1" => StealAmount::OneChunk,
        "half" => StealAmount::Half,
        other => return Err(format!("unknown steal amount {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_valued_and_boolean_flags() {
        let f = parse(
            &args(&["--tree", "t3wl", "--full", "--nodes", "128"]),
            &["tree", "nodes"],
            &["full"],
        )
        .expect("valid");
        assert_eq!(f.get("tree"), Some("t3wl"));
        assert!(f.has("full"));
        assert_eq!(f.parse_or::<u32>("nodes", 0).expect("number"), 128);
        assert_eq!(f.parse_or::<u32>("missing", 7).expect("default"), 7);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse(&args(&["--bogus"]), &["tree"], &[]).is_err());
        assert!(parse(&args(&["--tree"]), &["tree"], &[]).is_err());
        assert!(parse(&args(&["positional"]), &["tree"], &[]).is_err());
    }

    #[test]
    fn positionals_are_kept_in_order() {
        let f = parse_paths(&args(&["a.json", "--tol", "0.1", "b.json"]), &["tol"], &[])
            .expect("valid");
        assert_eq!(f.paths, ["a.json", "b.json"]);
        assert_eq!(f.get("tol"), Some("0.1"));
    }

    #[test]
    fn mapping_names() {
        use dws_topology::RankMapping;
        assert_eq!(parse_mapping("1/N").expect("ok"), RankMapping::OneToOne);
        assert_eq!(
            parse_mapping("8RR").expect("ok"),
            RankMapping::RoundRobin { ppn: 8 }
        );
        assert_eq!(
            parse_mapping("4g").expect("ok"),
            RankMapping::Grouped { ppn: 4 }
        );
        assert!(parse_mapping("wat").is_err());
    }

    #[test]
    fn victim_names() {
        let (tofu, adaptive) = parse_victim("tofu", 2.0, 4).expect("ok");
        assert_eq!((tofu.label(), adaptive), ("Tofu", false));
        let (reference, adaptive) = parse_victim("reference", 1.0, 4).expect("ok");
        assert_eq!((reference.label(), adaptive), ("Reference", false));
        assert!(parse_victim("nope", 1.0, 4).is_err());
    }

    #[test]
    fn adaptive_victim_names() {
        for (name, label) in [
            ("adaptive", "AdaptTofu"),
            ("adaptive-tofu", "AdaptTofu"),
            ("adaptive-reference", "AdaptRef"),
            ("adaptive-rand", "AdaptRand"),
            ("adaptive-latskew", "AdaptLat"),
            ("adaptive-hier", "AdaptHier"),
        ] {
            let (victim, adaptive) = parse_victim(name, 1.0, 4).expect(name);
            assert!(adaptive, "{name}");
            assert_eq!(victim.adaptive_label(), label, "{name}");
        }
        assert!(parse_victim("adaptive-nope", 1.0, 4).is_err());
    }

    #[test]
    fn steal_names() {
        use dws_core::StealAmount;
        assert_eq!(parse_steal("half").expect("ok"), StealAmount::Half);
        assert_eq!(parse_steal("one").expect("ok"), StealAmount::OneChunk);
        assert!(parse_steal("all").is_err());
    }
}
