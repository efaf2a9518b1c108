//! `figures <id> [options]` runs one figure of `dws_bench::figures::FIGURES`
//! and writes `<id>.csv` and `<id>.record.json`; with no id it lists
//! the ids, one per line. The options are every figure binary's
//! (`--full`, `--seed`, `--threads`, `--csv-dir`, the streaming flags,
//! …); every run of the figure carries them. It exits 1, writing no CSV,
//! when a run does not complete, and 2 on an unknown id or option.

use dws_bench::figures::{self, FIGURES};
use dws_bench::FigArgs;

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let id = argv.next_if(|a| !a.starts_with('-'));
    let args = FigArgs::parse_from(argv);
    let Some(id) = id else {
        for fig in FIGURES {
            println!("{}", fig.id);
        }
        return;
    };
    let Some(fig) = FIGURES.iter().find(|fig| fig.id == id) else {
        eprintln!("unknown figure {id:?}; the ids are:");
        for fig in FIGURES {
            eprintln!("  {}", fig.id);
        }
        std::process::exit(2);
    };
    if let Err(e) = figures::run(fig, &args) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
