//! `wormhole-cli campaign --emit summary` prints the Table 4 rendering
//! after the campaign summary. Its paper-shape assertions describe a
//! clean run only: a faulted campaign loses revelations honestly, so its
//! summary must still exit cleanly and say the assertions were skipped.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_wormhole-cli");

#[test]
fn quick_hostile_summary_exits_cleanly() {
    let out = Command::new(BIN)
        .args([
            "campaign",
            "quick",
            "--faults",
            "hostile",
            "--stealing",
            "--emit",
            "summary",
        ])
        .output()
        .expect("spawn wormhole-cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("faulted plan: paper-shape assertions skipped"),
        "{stdout}"
    );
}
