//! Option errors of the figure binaries, end to end: a bad option
//! exits 2 with `error: <flag>…` on stderr before any run starts.

use std::process::{Command, Output};

fn run(bin: &str, argv: &[&str]) -> Output {
    Command::new(bin)
        .args(argv)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"))
}

fn assert_refused(out: &Output, error: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with(error), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn a_bad_streaming_value_is_refused_before_the_figure_runs() {
    let figures = env!("CARGO_BIN_EXE_figures");
    let out = run(figures, &["fig04", "--no-csv", "--snapshot-every", "x"]);
    assert_refused(&out, "error: --snapshot-every: bad duration \"x\"");
}

#[test]
fn a_binary_that_streams_no_run_refuses_streaming_flags() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    let out = run(table1, &["--no-csv", "--live"]);
    assert_refused(&out, "error: --live: this binary streams no run");
}
