//! Report bytes pinned: the byte length and FNV-1a checksum of
//! `CampaignResult::report().text()` for quick-scale campaigns under
//! every built-in fault scenario and a chaos run whose report renders
//! `degraded` lines; the wire encoding of a quick campaign's traces;
//! and the quick `--emit jsonl` transcript. The streamed report (the
//! checksum writer and `wormhole-cli`'s stdout) must equal `report()`
//! byte for byte. Paper and tenfold outputs are pinned as `output` rows
//! of `BENCH_outputs.json`, which `bench-regression` gates on.
//!
//! The constants were first computed with the `write!`-driven renderer
//! the hand-written one replaced. Those that depend on fault RNG
//! streams were recomputed when every probing task became hermetic
//! (one stream per task instead of one per vantage point). The quick
//! transcript pin was taken from `wormhole-cli campaign quick --emit
//! jsonl` before the JSONL lines moved to the shared text writers. A
//! renderer, trace-layout, JSONL or RNG-stream change that moves a
//! single byte fails here.

use std::process::Command;
use std::sync::OnceLock;
use wormhole::core::{CampaignConfig, CampaignResult};
use wormhole::experiments::{campaign_config, campaign_over, internet_for, Scale};
use wormhole::net::wire::{checksum, to_bytes, Checksum};
use wormhole::net::FaultScenario;
use wormhole::probe::{JsonlSink, NullSink};
use wormhole::topo::Internet;

/// The seed `wormhole-cli campaign` builds its substrate with.
const SEED: u64 = 8;

fn quick() -> &'static Internet {
    static QUICK: OnceLock<Internet> = OnceLock::new();
    QUICK.get_or_init(|| internet_for(Scale::Quick, SEED))
}

fn run(internet: &Internet, cfg: &CampaignConfig) -> CampaignResult {
    campaign_over(internet, cfg, &mut NullSink)
}

/// `(byte length, checksum)` of a campaign's report.
fn pin(result: &CampaignResult) -> (usize, u64) {
    let report = result.report();
    (report.text().len(), checksum(report.text().as_bytes()))
}

#[test]
fn quick_reports_are_pinned_under_every_fault_scenario() {
    // In `FaultScenario::ALL` order: clean, lossy_core,
    // rate_limited_edge, hostile, deceptive_ttl, artifact_lb, paranoid.
    const PINS: [(usize, u64); 7] = [
        (136_343, 10_309_394_043_036_344_243),
        (125_688, 9_134_885_443_008_272_316),
        (135_909, 4_621_383_174_529_405_246),
        (86_473, 3_032_470_889_992_588_330),
        (136_865, 15_586_924_503_563_922_183),
        (136_668, 2_760_291_037_304_719_753),
        (113_384, 7_793_789_733_981_070_296),
    ];
    let got: Vec<(usize, u64)> = FaultScenario::ALL
        .iter()
        .map(|&scenario| pin(&run(quick(), &campaign_config(Scale::Quick, 1, scenario))))
        .collect();
    assert_eq!(got, PINS);
}

#[test]
fn quick_clean_report_is_pinned() {
    let cfg = campaign_config(Scale::Quick, 1, FaultScenario::Clean);
    assert_eq!(
        pin(&run(quick(), &cfg)),
        (136_343, 10_309_394_043_036_344_243)
    );
}

#[test]
fn quick_chaos_report_with_degraded_lines_is_pinned() {
    let cfg = CampaignConfig {
        chaos_panic_vp: Some(1),
        ..campaign_config(Scale::Quick, 1, FaultScenario::Clean)
    };
    let result = run(quick(), &cfg);
    assert_eq!(result.degraded_shards.len(), 1);
    assert!(result
        .report()
        .text()
        .contains("\ndegraded vp=1 phase=probe msg="));
    assert_eq!(pin(&result), (93_200, 987_054_617_871_846_429));
}

#[test]
fn quick_trace_wire_bytes_are_pinned() {
    let cfg = campaign_config(Scale::Quick, 1, FaultScenario::Clean);
    let bytes = to_bytes(&run(quick(), &cfg).traces);
    assert_eq!(
        (bytes.len(), checksum(&bytes)),
        (36_206, 6_440_525_977_375_814_849)
    );
}

/// The transcript `wormhole-cli campaign quick --emit jsonl` prints:
/// the sink's lines, then the closing `done` line.
fn transcript() -> Vec<u8> {
    let cfg = campaign_config(Scale::Quick, 1, FaultScenario::Clean);
    let mut sink = JsonlSink::new(Vec::new());
    let result = campaign_over(quick(), &cfg, &mut sink);
    sink.write_line(|s| result.write_done_jsonl(s));
    sink.finish().unwrap()
}

#[test]
fn quick_jsonl_transcript_is_pinned() {
    let out = transcript();
    assert_eq!(
        (out.len(), checksum(&out)),
        (137_015, 1_803_191_080_997_875_613)
    );
}

/// `wormhole-cli campaign quick --emit <emit>`'s stdout.
fn cli_stdout(emit: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_wormhole-cli"))
        .args(["campaign", "quick", "--emit", emit])
        .output()
        .expect("spawn wormhole-cli");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn streamed_reports_equal_the_report_string() {
    let result = run(
        quick(),
        &campaign_config(Scale::Quick, 1, FaultScenario::Clean),
    );
    let report = result.report();
    let mut streamed = Checksum::default();
    result.write_report(&mut streamed).unwrap();
    assert_eq!(streamed.finish(), checksum(report.text().as_bytes()));
    assert!(cli_stdout("report") == report.text().as_bytes());
    assert!(cli_stdout("jsonl") == transcript());
}
