//! `wormhole-cli campaign --emit report|jsonl` into a stdout the reader
//! closes early (`| head -c 10`): the command ends with one
//! `wormhole-cli:` line on stderr and a failure exit, not a panic.

use std::io::Read;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_wormhole-cli");

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
    let out = child.wait_with_output().expect("wait for wormhole-cli");
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

#[test]
fn closed_stdout_ends_report_with_an_error_line() {
    closed_after_ten_bytes("report");
}

#[test]
fn closed_stdout_ends_jsonl_with_an_error_line() {
    closed_after_ten_bytes("jsonl");
}
