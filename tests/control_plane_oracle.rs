//! The control-plane oracles against a plain reference, and plane
//! equality across build paths.
//!
//! `AsIgp` and `logical_fib` resolve members through dense local
//! indices and write the FIB CSR directly; the reference in
//! `crates/lint/tests/oracle` re-derives the same tables the plain
//! `RouterId`-keyed way. Both must agree exactly on the distance
//! matrices, the first-hop CSRs and the FIB CSR. The tenfold row lives
//! in `crates/lint/tests/dense_scales.rs` (`--include-ignored`).

#[path = "../crates/lint/tests/oracle/mod.rs"]
mod oracle;

use wormhole_net::{ControlPlane, RouterId};
use wormhole_topo::{generate, InternetConfig};

#[test]
fn oracles_match_the_reference_at_quick_scale() {
    for seed in [1, 7, 42] {
        let i = generate(&InternetConfig::small(seed));
        oracle::assert_reference_equivalent(&i.net, &i.cp, &format!("quick/seed{seed}"));
    }
}

#[test]
fn oracles_match_the_reference_at_paper_scale() {
    let i = generate(&InternetConfig {
        seed: 42,
        ..InternetConfig::default()
    });
    oracle::assert_reference_equivalent(&i.net, &i.cp, "paper/seed42");
}

/// A serial build, a parallel build and a substrate-cache restore give
/// the same dense tables, IGP views and LFIBs.
#[test]
fn jobs_and_cache_restore_give_equal_dense_tables() {
    let i = generate(&InternetConfig::small(42));
    let serial = ControlPlane::build_with_jobs(&i.net, 1).expect("serial build");
    let parallel = ControlPlane::build_with_jobs(&i.net, 4).expect("parallel build");
    let cached = ControlPlane::from_cache_payload(&i.net, 1, &serial.cache_payload())
        .expect("cache restore");
    for (what, cp) in [("jobs=4", &parallel), ("cache", &cached)] {
        assert_eq!(serial.dense_view(), cp.dense_view(), "{what}: dense tables");
        for (a, b) in serial.igp.iter().zip(&cp.igp) {
            assert_eq!(a.dist, b.dist, "{what}: {:?} distances", a.asn);
            assert_eq!(a.first_hop_csr(), b.first_hop_csr(), "{what}: first hops");
        }
        for r in 0..i.net.num_routers() as u32 {
            let rid = RouterId(r);
            assert!(
                serial.lfib_entries(rid).eq(cp.lfib_entries(rid)),
                "{what}: LFIB of router {r}"
            );
        }
    }
}
