//! `wormhole-lint --explain` serves registered codes and refuses
//! retired ones, and a closed stdout ends the command with one error
//! line instead of a panic.

use std::process::Command;

#[test]
fn explain_serves_registered_codes_and_refuses_retired_ones() {
    let explain = |code: &str| {
        Command::new(env!("CARGO_BIN_EXE_wormhole-lint"))
            .args(["--explain", code])
            .output()
            .expect("wormhole-lint runs")
    };
    let out = explain("D507");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("D507 (dense, default error)"));
    for code in ["W103", "W104", "W108", "W109", "X205", "A309"] {
        let out = explain(code);
        assert!(!out.status.success(), "--explain {code} succeeded");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule code"));
    }
}

#[test]
fn closed_stdout_ends_with_an_error_line() {
    for args in [
        &["--scale", "quick", "--format", "json"][..],
        &["--scale", "quick"],
        &["--rules"],
        &["--explain", "D507"],
    ] {
        // The pipe's read end is closed before the command starts.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_wormhole-lint"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("wormhole-lint runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let ours: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("wormhole-lint:"))
            .collect();
        assert_eq!(
            ours,
            ["wormhole-lint: writing to stdout: Broken pipe (os error 32)"],
            "{args:?}"
        );
    }
}
