//! The dense verifier's memory bound: `check_internet` recomputes the
//! logical plane one router at a time into reused buffers, so its peak
//! over the resident Internet is a small constant, not a second copy of
//! the forwarding state.
//!
//! Linux-only (it reads `VmHWM` from `/proc/self/status`) and
//! release-only (a debug build's allocation pattern is not the one the
//! bound is about); run with
//! `cargo test --release -p wormhole-lint --test verify_memory -- --include-ignored`.
//! The binary holds this one test so no other test's allocations share
//! the process peak.

#![cfg(all(target_os = "linux", not(debug_assertions)))]

use wormhole_lint as lint;
use wormhole_topo::{generate, InternetConfig};

/// A `kB` field of `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn check_internet_adds_at_most_2_mib_to_the_peak() {
    let i = generate(&InternetConfig::tenfold(8));
    // Reset the peak to the current RSS where the kernel allows it, so
    // generation's transients cannot hide the verifier's own.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = status_kib("VmHWM:");
    let diags = lint::check_internet(&i);
    let after = status_kib("VmHWM:");
    assert!(!lint::has_errors(&diags), "{}", lint::render(&diags));
    let grew = after.saturating_sub(before);
    eprintln!("VmHWM {before} -> {after} KiB (+{grew} KiB) across check_internet");
    assert!(
        grew <= 2048,
        "check_internet grew VmHWM by {grew} KiB (bound 2048 KiB)"
    );
}
