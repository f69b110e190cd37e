//! `figures` command-line contract: a bad argument is a usage error (exit
//! code 2, an `error:` line on stderr) reported before any work runs, never
//! a silent exit 0 or a panic.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(
        stderr.contains(&format!("error: {message}")),
        "{args:?}: stderr {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
    assert!(!stdout.contains("preflight:"), "{args:?} ran the preflight");
}

#[test]
fn unknown_figure_is_a_usage_error() {
    assert_usage_error(
        &["--fig", "99"],
        "figure 99 is not part of the evaluation harness",
    );
}

#[test]
fn unknown_table_is_a_usage_error() {
    assert_usage_error(
        &["--table", "7"],
        "table 7 is not part of the evaluation harness",
    );
}

#[test]
fn unknown_ablation_is_a_usage_error() {
    assert_usage_error(&["--ablation", "nope"], "unknown ablation nope");
}

#[test]
fn scales_below_two_are_usage_errors() {
    for scale in ["0", "1"] {
        assert_usage_error(&["--all", "--scale", scale], "--scale must be at least 2");
    }
}

#[test]
fn smallest_scale_runs_a_graph_figure() {
    let out = figures(&["--fig", "17", "--scale", "2"]);
    assert!(
        out.status.success(),
        "stderr {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 17"));
}
