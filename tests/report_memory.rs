//! The report streams: rendering a thousandfold campaign's report into
//! the checksum writer holds no copy of its 17 MB of text, so the
//! process peak stays where the campaign left it.
//!
//! Linux-only (it reads `VmHWM` from `/proc/self/status`) and
//! release-only (a debug build's allocation pattern is not the one the
//! bound is about); run with
//! `cargo test --release --test report_memory -- --include-ignored`.
//! The binary holds this one test so no other test's allocations share
//! the process peak.

#![cfg(all(target_os = "linux", not(debug_assertions)))]

use wormhole::experiments::{campaign_config, campaign_over, internet_for, Scale};
use wormhole::net::wire::{checksum, Checksum};
use wormhole::net::FaultScenario;
use wormhole::probe::NullSink;

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
fn streaming_the_thousandfold_report_adds_at_most_2_mib_to_the_peak() {
    let internet = internet_for(Scale::ThousandFold, 8);
    let cfg = campaign_config(Scale::ThousandFold, 1, FaultScenario::Clean);
    let result = campaign_over(&internet, &cfg, &mut NullSink);
    let before = status_kib("VmHWM:");
    let mut streamed = Checksum::default();
    result.write_report(&mut streamed).unwrap();
    let after = status_kib("VmHWM:");
    let grew = after.saturating_sub(before);
    eprintln!("VmHWM {before} -> {after} KiB (+{grew} KiB) while the report streamed");
    assert!(
        grew <= 2048,
        "streaming the report grew VmHWM by {grew} KiB (bound 2048 KiB)"
    );
    // Only now render the whole report, for the byte check.
    assert_eq!(
        streamed.finish(),
        checksum(result.report().text().as_bytes())
    );
}
