//! Clean-plane property tests for the dense verifier at the paper's
//! three scales: a correct build must produce **zero** D5xx findings —
//! the evidence behind the campaign's lint-before-simulate gate.
//!
//! The tenfold row also checks the control-plane oracles against the
//! plain reference in `oracle/` (the quick and paper rows of that check
//! run in the root package's `tests/control_plane_oracle.rs`).

// The external-route reference rows run in the root package.
#[allow(dead_code)]
mod oracle;

use wormhole_lint as lint;
use wormhole_net::ControlPlane;
use wormhole_topo::{generate, InternetConfig};

fn dense_findings(i: &wormhole_topo::Internet) -> Vec<lint::Diagnostic> {
    lint::verify_dense(&i.net, &i.cp)
}

fn assert_clean(config: InternetConfig, what: &str) {
    let i = generate(&config);
    let dense = dense_findings(&i);
    assert!(
        dense.is_empty(),
        "{what}: clean build produced D5xx findings\n{}",
        lint::render(&dense)
    );
    let all = lint::check_internet(&i);
    assert!(!lint::has_errors(&all), "{what}: {}", lint::render(&all));
}

#[test]
fn quick_scale_builds_clean() {
    for seed in [1, 7, 42] {
        assert_clean(InternetConfig::small(seed), &format!("quick/seed{seed}"));
    }
}

#[test]
fn paper_scale_builds_clean() {
    assert_clean(
        InternetConfig {
            seed: 42,
            ..InternetConfig::default()
        },
        "paper/seed42",
    );
}

/// Tenfold is release-CI territory; run with `--include-ignored` there.
#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn tenfold_scale_builds_clean() {
    assert_clean(InternetConfig::tenfold(42), "tenfold/seed42");
}

/// `AsIgp` and `logical_fib` equal the plain reference at tenfold.
#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn tenfold_oracles_match_the_reference() {
    let i = generate(&InternetConfig::tenfold(42));
    oracle::assert_reference_equivalent(&i.net, &i.cp, "tenfold/seed42");
}

/// A plane built directly with [`ControlPlane::build`] passes the
/// verifier — the property the campaign's debug gate relies on when it
/// verifies the plane before sharding.
#[test]
fn plane_build_passes_the_verifier() {
    let i = generate(&InternetConfig::small(42));
    let cp = ControlPlane::build(&i.net).expect("generated network has a control plane");
    let dense = lint::verify_dense(&i.net, &cp);
    assert!(dense.is_empty(), "{}", lint::render(&dense));
}
