//! `wormhole-cli` writing into a stdout the reader closes early: the
//! command ends with one `wormhole-cli:` line on stderr and a failure
//! exit, not a panic. `campaign --emit report|jsonl` is cut after ten
//! bytes (`| head -c 10`), while it is still writing; the summary and
//! the testbed commands meet a pipe closed before their first write.

use std::io::Read;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_wormhole-cli");

/// Asserts that `out` is the one-line `writing to stdout` failure.
fn assert_write_failure(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let ours: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("wormhole-cli:"))
        .collect();
    assert_eq!(ours.len(), 1, "{stderr}");
    assert!(
        ours[0].starts_with("wormhole-cli: writing to stdout:"),
        "{stderr}"
    );
}

fn closed_after_ten_bytes(emit: &str) {
    let mut child = Command::new(BIN)
        .args(["campaign", "quick", "--emit", emit])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wormhole-cli");
    // Either output is larger than a pipe holds, so the command is
    // still writing when the read end closes.
    let mut head = [0u8; 10];
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_exact(&mut head).expect("the first ten bytes");
    drop(stdout);
    assert_write_failure(&child.wait_with_output().expect("wait for wormhole-cli"));
}

/// Runs `wormhole-cli args` into a pipe whose read end is closed
/// before the command starts.
fn closed_before_writing(args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(BIN)
        .args(args)
        .stdout(writer)
        .output()
        .expect("run wormhole-cli");
    assert_write_failure(&out);
}

#[test]
fn closed_stdout_ends_report_with_an_error_line() {
    closed_after_ten_bytes("report");
}

#[test]
fn closed_stdout_ends_jsonl_with_an_error_line() {
    closed_after_ten_bytes("jsonl");
}

#[test]
fn closed_stdout_ends_the_summary_with_an_error_line() {
    closed_before_writing(&["campaign", "quick"]);
}

#[test]
fn closed_stdout_ends_testbed_commands_with_an_error_line() {
    for args in [
        &["trace", "backward"][..],
        &["smart", "backward"],
        &["reveal", "backward"],
        &["lint", "default"],
        &["list-configs"],
        &["campaign", "--faults", "list"],
    ] {
        closed_before_writing(args);
    }
}
