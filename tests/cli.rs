//! End-to-end tests of the `aide` command-line tool: every subcommand is
//! exercised through the real binary with temp files, including the
//! interactive `explore` loop driven over a pipe.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn aide() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aide"))
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aide_cli_test_{}_{name}", std::process::id()));
    p
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn generate_describe_query_simplify_pipeline() {
    let csv = tmp_path("pipeline.csv");
    // generate
    let out = aide()
        .args([
            "generate",
            "--dataset",
            "auction",
            "--rows",
            "3000",
            "--out",
            csv.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    assert!(stdout(&out).contains("wrote 3000 rows"));

    // describe
    let out = aide()
        .args(["describe", "--csv", csv.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "describe failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("3000 rows, 7 columns"));
    assert!(text.contains("current_price"));
    assert!(text.contains("num_bids"));

    // query
    let out = aide()
        .args([
            "query",
            "--csv",
            csv.to_str().unwrap(),
            "--sql",
            "SELECT * FROM data WHERE current_price < 5",
            "--limit",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "query failed: {}", stderr(&out));
    assert!(stdout(&out).contains("rows match"));

    // simplify
    let out = aide()
        .args([
            "simplify",
            "--sql",
            "SELECT * FROM t WHERE a >= 1 AND a >= 3 AND a <= 9",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(
        stdout(&out).trim(),
        "SELECT * FROM t WHERE (a >= 3 AND a <= 9)"
    );

    std::fs::remove_file(&csv).ok();
}

#[test]
fn explore_runs_with_piped_labels() {
    let csv = tmp_path("explore.csv");
    let out = aide()
        .args([
            "generate",
            "--dataset",
            "sdss",
            "--rows",
            "5000",
            "--out",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));

    let mut child = aide()
        .args([
            "explore",
            "--csv",
            csv.to_str().unwrap(),
            "--attrs",
            "rowc,colc",
            "--batch",
            "4",
            "--max-iter",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn explore");
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        // Label a couple of rows, then quit.
        stdin.write_all(b"y\nn\ny\nn\nq\n").expect("write labels");
    }
    let out = child.wait_with_output().expect("explore finishes");
    assert!(out.status.success(), "explore failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("final query: SELECT * FROM data"));
    assert!(text.contains("reviews"));

    std::fs::remove_file(&csv).ok();
}

#[test]
fn bad_invocations_fail_with_usage() {
    let out = aide().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"));

    let out = aide().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown subcommand"));

    let out = aide()
        .args(["generate", "--dataset", "sdss"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--out is required"));

    let out = aide()
        .args([
            "query",
            "--csv",
            "/nonexistent.csv",
            "--sql",
            "SELECT * FROM t",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot open"));

    let out = aide()
        .args(["simplify", "--sql", "SELECT broken"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("parse error"));
}

#[test]
fn explore_rejects_non_finite_csv_cells_without_panicking() {
    for cell in ["inf", "-inf", "NaN"] {
        let csv = tmp_path(&format!("non_finite_{cell}.csv"));
        std::fs::write(&csv, format!("x,y\n1.0,2.0\n2.0,{cell}\n3.0,4.0\n")).unwrap();
        let out = aide()
            .args(["explore", "--csv", csv.to_str().unwrap(), "--attrs", "x,y"])
            .stdin(Stdio::null())
            .output()
            .expect("binary runs");
        std::fs::remove_file(&csv).ok();
        assert_eq!(out.status.code(), Some(1), "{cell}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("CSV error at line 3: non-finite float"),
            "{cell}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn dataset_info_profiles_every_lane() {
    let csv = tmp_path("info.csv");
    let view = tmp_path("info.aideview");
    let out = aide()
        .args(["generate", "--dataset", "sdss", "--rows", "500"])
        .args(["--out", csv.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    let out = aide()
        .args(["dataset", "pack", "--csv", csv.to_str().unwrap()])
        .args(["--attrs", "rowc,colc", "--out", view.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "pack failed: {}", stderr(&out));
    let out = aide()
        .args(["dataset", "info", "--view", view.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "info failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("500 rows, 2 lanes, row ids identity (not stored)"), "{text}");
    for lane in ["lane 0: rowc", "lane 1: colc"] {
        let line = text.lines().find(|l| l.contains(lane)).expect(lane);
        for field in ["count 500", "min ", "mean ", "max "] {
            assert!(line.contains(field), "{line}");
        }
    }
    let _ = std::fs::remove_file(csv);
    let _ = std::fs::remove_file(view);
}
