//! Process-level robustness checks on the `repro` binary: hostile input and
//! a vanished reader end the program with an exit code and a message, never
//! with a panic or a stack overflow.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A fresh scratch directory per test (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dradio-robustness-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Asserts `out` is a clean failure: exit code 1 and an error line on
/// stderr containing `needle`.
fn assert_fails_cleanly(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn deeply_nested_specs_and_stores_are_errors_not_stack_overflows() {
    let dir = scratch("nesting");
    let deep = "[".repeat(200_000);
    let spec = dir.join("deep.json");
    std::fs::write(&spec, &deep).unwrap();
    let out = repro(&["campaign", "check", "--campaign", spec.to_str().unwrap()]);
    assert_fails_cleanly(&out, "recursion limit exceeded");

    let store = dir.join("deep.jsonl");
    std::fs::write(&store, format!("{deep}\n")).unwrap();
    let out = repro(&["campaign", "fsck", "--store", store.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {stdout} stderr: {stderr}"
    );
    assert!(
        stdout.contains("malformed record on line 1"),
        "stdout: {stdout} stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    // The reading end is closed before `repro` starts, so its first write
    // meets a broken pipe.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--example-campaign")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
