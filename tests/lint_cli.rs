//! `wormhole-lint --explain` serves registered codes and refuses
//! retired ones.

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
