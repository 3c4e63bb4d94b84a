//! The `bitline-sim <experiment>` front door, driven as a process: each
//! figure command prints the golden rows (then its summary rows), writes
//! exactly what it printed to `BITLINE_EXPORT_DIR/<name>.dat`, is listed
//! by `--help`, and an unknown command is refused.

use std::path::PathBuf;
use std::process::Command;

use bitline_sim::experiments::EXPERIMENTS;

const BIN: &str = env!("CARGO_BIN_EXE_bitline-sim");

/// Runs `bitline-sim <name>` on the golden suite restriction and budget,
/// exporting into a fresh directory; returns stdout and the export.
fn run_exported(name: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("bitline-cli-{name}-{}", std::process::id()));
    let out = Command::new(BIN)
        .arg(name)
        .env("BITLINE_SUITE", "mesa,bisort")
        .env("BITLINE_INSTRS", "2000")
        .env("BITLINE_EXPORT_DIR", &dir)
        .env_remove("BITLINE_METRICS")
        .output()
        .expect("bitline-sim starts");
    assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
    let exported = std::fs::read_to_string(dir.join(format!("{name}.dat")))
        .unwrap_or_else(|e| panic!("{name}.dat not exported: {e}"));
    std::fs::remove_dir_all(&dir).ok();
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), exported)
}

/// The header and per-benchmark rows: drops the `AVG` summary row and any
/// trailing comment.
fn per_benchmark_rows(text: &str) -> String {
    let mut lines = text.lines();
    let header = lines.next().into_iter();
    let rows = lines.filter(|l| !l.starts_with('#') && !l.starts_with("AVG "));
    header.chain(rows).map(|l| format!("{l}\n")).collect()
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{name}.dat"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn check_figure(name: &str) {
    let (stdout, exported) = run_exported(name);
    assert_eq!(exported, stdout, "{name}.dat must hold exactly what the CLI printed");
    assert_eq!(per_benchmark_rows(&stdout), golden(name), "{name}: CLI rows differ from golden");
}

#[test]
fn fig3_rows_match_the_golden() {
    check_figure("fig3");
}

#[test]
fn fig8_rows_match_the_golden() {
    check_figure("fig8");
}

#[test]
fn fig9_rows_match_the_golden() {
    check_figure("fig9");
}

#[test]
fn fig10_rows_match_the_golden() {
    check_figure("fig10");
}

#[test]
fn ondemand_rows_match_the_golden() {
    check_figure("ondemand");
}

#[test]
fn help_lists_every_experiment() {
    let out = Command::new(BIN).arg("--help").output().expect("bitline-sim starts");
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    let line = help
        .lines()
        .find(|l| l.starts_with("EXPERIMENTS (positional):"))
        .expect("--help has an EXPERIMENTS line");
    let listed: Vec<&str> = line.split([' ', '|', ':']).filter(|w| !w.is_empty()).collect();
    for (name, _) in EXPERIMENTS {
        assert!(listed.contains(name), "--help does not list `{name}`: {line}");
    }
}

#[test]
fn unknown_experiment_is_refused() {
    let out = Command::new(BIN).arg("fig99").output().expect("bitline-sim starts");
    assert!(!out.status.success(), "an unknown command must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"), "the error names the command: {stderr}");
}
