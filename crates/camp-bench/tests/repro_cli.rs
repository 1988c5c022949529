//! End-to-end tests of the `repro` binary (cheap experiments only).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A scratch directory of the calling test's own: tests run in parallel
/// (and other checkouts' runs share `$TMP`), so none may share or delete
/// another's.
fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("camp-repro-cli-{test}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn table1_prints_the_paper_rows() {
    let output = repro().arg("table1").output().expect("run repro table1");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("CAMP's rounding"), "{stdout}");
    assert!(stdout.contains("101100000"), "{stdout}");
    assert!(stdout.contains("000000111"), "{stdout}");
}

#[test]
fn csv_export_writes_files() {
    let dir = scratch_dir("csv_export_writes_files");
    let output = repro()
        .args(["table1", "--out", dir.to_str().unwrap()])
        .output()
        .expect("run repro table1 --out");
    assert!(output.status.success());
    let csv = std::fs::read_to_string(dir.join("table1.csv")).expect("csv written");
    assert!(csv.starts_with("x (binary)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn custom_experiment_runs_on_a_generated_trace() {
    let dir = scratch_dir("custom_experiment_runs_on_a_generated_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mini.trace");
    // A small trace written through the library (the CLI route is covered
    // in camp-workload's tracegen tests).
    camp_workload::BgConfig::paper_scaled(100, 2_000, 3)
        .generate()
        .save(&path)
        .unwrap();
    let output = repro()
        .args(["custom", "--trace", path.to_str().unwrap(), "--plot"])
        .output()
        .expect("run repro custom");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("custom-cost-miss"), "{stdout}");
    assert!(stdout.contains("camp(p=5)"), "{stdout}");
    // --plot rendered a chart with a legend.
    assert!(stdout.contains("* camp(p=5)"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_experiment_is_a_clean_error() {
    let output = repro().arg("figZZ").output().expect("run repro");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown experiment"), "{stderr}");
    assert!(stderr.contains("fig5c"), "{stderr}");
}

#[test]
fn list_shows_every_experiment() {
    let output = repro().arg("--list").output().expect("run repro --list");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for id in ["table1", "fig4", "fig9", "ablation-tiebreak", "custom"] {
        assert!(stdout.contains(id), "missing {id}: {stdout}");
    }
}

#[test]
fn custom_without_trace_is_rejected() {
    let output = repro().arg("custom").output().expect("run repro custom");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--trace"));
}
