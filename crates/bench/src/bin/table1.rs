//! Table I: UTS input tree parameters.
//!
//! Prints the paper's tree parameters alongside the sizes these trees
//! *realize under this implementation's RNG* (binomial realized sizes
//! are heavy-tailed and RNG-stream dependent; see `dws_uts::presets`).
//! The scaled `T3SIM-*` presets used by the compressed-scale figures
//! are included.

use dws_bench::{emit, FigArgs, Samples};
use dws_uts::{search, TreeSpec};

fn main() {
    let args = FigArgs::parse_unstreamed();
    let mut rows = Vec::new();
    for w in dws_uts::presets::all() {
        let TreeSpec::Binomial { b0, m, q } = w.spec else {
            continue; // the paper's Table I lists binomial trees only
        };
        let measured = search::search_with_limit(&w, 60_000_000);
        let (nodes, depth) = match &measured {
            Some(s) => (s.nodes.to_string(), s.max_depth.to_string()),
            None => ("> 6e7 (not searched)".to_string(), "-".to_string()),
        };
        let paper_size = match w.name {
            "T3XXL" => "2,793,220,501",
            "T3WL" => "157,063,495,159",
            _ => "-",
        };
        rows.push(vec![
            w.name.to_string(),
            "Binomial".to_string(),
            w.seed.to_string(),
            b0.to_string(),
            m.to_string(),
            format!("{q}"),
            paper_size.to_string(),
            nodes,
            depth,
        ]);
    }
    emit(
        &args,
        "table1",
        "UTS input tree parameters (paper Table I + scaled presets)",
        &[
            "name",
            "type",
            "r",
            "b0",
            "m",
            "q",
            "paper size",
            "realized size",
            "depth",
        ],
        &rows,
        None,
        Samples::default(),
    );
}
