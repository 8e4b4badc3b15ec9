//! Report bytes pinned: the byte length and FNV-1a checksum of
//! `CampaignResult::report().text()` for quick-scale campaigns under
//! every built-in fault scenario and a chaos run whose report renders
//! `degraded` lines; the wire encoding of a quick campaign's traces;
//! and, as ignored release rows, the tenfold paranoid report and the
//! tenfold `--emit jsonl` transcript.
//!
//! The constants were first computed with the `write!`-driven renderer
//! the hand-written one replaced. Those that depend on fault RNG
//! streams were recomputed when every probing task became hermetic
//! (one stream per task instead of one per vantage point). A renderer,
//! trace-layout, JSONL or RNG-stream change that moves a single byte
//! fails here.

use std::sync::OnceLock;
use wormhole::core::{CampaignConfig, CampaignResult};
use wormhole::experiments::{campaign_config, campaign_over, internet_for, Scale};
use wormhole::net::wire::{checksum, to_bytes};
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

#[test]
#[ignore = "tenfold scale: run in release CI via --include-ignored"]
fn tenfold_paranoid_report_is_pinned() {
    let internet = internet_for(Scale::Tenfold, SEED);
    let cfg = campaign_config(Scale::Tenfold, 1, FaultScenario::Paranoid);
    assert_eq!(
        pin(&run(&internet, &cfg)),
        (247_526, 11_621_566_158_420_221_711)
    );
}

/// The transcript `wormhole-cli campaign tenfold --emit jsonl` prints:
/// the sink's lines, then the closing `done` line.
#[test]
#[ignore = "tenfold scale: run in release CI via --include-ignored"]
fn tenfold_jsonl_transcript_is_pinned() {
    let internet = internet_for(Scale::Tenfold, SEED);
    let cfg = campaign_config(Scale::Tenfold, 1, FaultScenario::Clean);
    let mut sink = JsonlSink::new(Vec::new());
    let result = campaign_over(&internet, &cfg, &mut sink);
    let mut out = sink.into_inner();
    out.extend_from_slice(
        format!(
            "{{\"type\":\"done\",\"traces\":{},\"probes\":{},\"snapshot_checksum\":{}}}\n",
            result.traces.len(),
            result.probes,
            result.snapshot_checksum
        )
        .as_bytes(),
    );
    assert_eq!(
        (out.len(), checksum(&out)),
        (430_564, 4_840_375_733_711_473_755)
    );
}
