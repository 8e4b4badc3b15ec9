//! The control-plane oracles against a plain reference, and plane
//! equality across build paths.
//!
//! `AsIgp` and `logical_fib` resolve members through dense local
//! indices and write the FIB's next-hop groups directly; the reference
//! in `crates/lint/tests/oracle` re-derives the same tables the plain
//! `RouterId`-keyed way. Both must agree exactly on the distance
//! matrices, the first-hop CSRs and the FIB groups. The tenfold row
//! lives in `crates/lint/tests/dense_scales.rs` (`--include-ignored`).
//! The external-route classes are checked through `ext_route` against
//! the reference's per-cell hot-potato choice.
//!
//! The LFIB stores an LDP entry as its FEC slot alone and derives the
//! branches from the FIB on every read; the derived-branch rows check
//! that view against the FIB span and `ldp_label_action`, and that
//! explicitly installed entries (RSVP-TE transit, what-if injections)
//! read back exactly as installed.

#[path = "../crates/lint/tests/oracle/mod.rs"]
mod oracle;

use wormhole_net::{
    ldp_label_action, ControlPlane, Label, LabelAction, LabelValue, LfibEntry, LfibHop, Network,
    PoppingMode, RouterId,
};
use wormhole_topo::{generate, gns3_fig2_te, InternetConfig};

/// Every LDP entry's branches equal its FEC's FIB span — count, order
/// and next hops — each with the `ldp_label_action` of its next router,
/// and every real advertisement with a FIB span has exactly one entry.
fn assert_ldp_branches_derived(net: &Network, cp: &ControlPlane, what: &str) {
    let mut rows = 0;
    for r in 0..net.num_routers() as u32 {
        let rid = RouterId(r);
        for (label, e) in cp.lfib_entries(rid) {
            assert!(
                e.is_derived(),
                "{what}: router {r} label {label} is explicit"
            );
            let fib = cp.fib_entry(rid, e.slot).unwrap_or(&[]);
            assert!(
                !fib.is_empty(),
                "{what}: router {r} label {label}: no FIB span"
            );
            assert_eq!(e.len(), fib.len(), "{what}: router {r} label {label}");
            for (i, &(iface, next)) in fib.iter().enumerate() {
                let want = LfibHop {
                    iface,
                    next,
                    action: ldp_label_action(&cp.bindings, next, e.slot),
                };
                assert_eq!(e.branch(i), want, "{what}: router {r} label {label} #{i}");
            }
            assert_eq!(
                cp.bindings.advertised(rid, e.slot),
                Some(LabelValue::Real(label)),
                "{what}: router {r} label {label} is not its FEC's advertisement"
            );
            rows += 1;
        }
    }
    let advertised = (0..net.num_routers() as u32)
        .flat_map(|r| {
            cp.bindings
                .advertisements(RouterId(r))
                .filter(move |&(slot, v)| {
                    matches!(v, LabelValue::Real(_)) && cp.fib_entry(RouterId(r), slot).is_some()
                })
        })
        .count();
    assert!(rows > 0, "{what}: no LDP entry");
    assert_eq!(rows, advertised, "{what}: LDP entries vs advertisements");
}

#[test]
fn ldp_branches_derive_from_the_fib_at_quick_scale() {
    for seed in [1, 8, 42] {
        let i = generate(&InternetConfig::small(seed));
        assert_ldp_branches_derived(&i.net, &i.cp, &format!("quick/seed{seed}"));
    }
}

#[test]
fn ldp_branches_derive_from_the_fib_at_paper_scale() {
    let i = generate(&InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    });
    assert_ldp_branches_derived(&i.net, &i.cp, "paper/seed8");
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn ldp_branches_derive_from_the_fib_at_tenfold_scale() {
    let i = generate(&InternetConfig::tenfold(8));
    assert_ldp_branches_derived(&i.net, &i.cp, "tenfold/seed8");
}

/// RSVP-TE transit entries and injected what-ifs keep explicit branches
/// that read back exactly as installed; an injection leaves every other
/// entry as it was.
#[test]
fn explicit_branches_read_back_as_installed() {
    for popping in [PoppingMode::Php, PoppingMode::Uhp] {
        let s = gns3_fig2_te(popping, false);
        let (transit, _) = wormhole_net::te_program(&s.net).expect("valid tunnels");
        assert!(
            !transit.is_empty(),
            "{popping:?}: the fixture has transit LSRs"
        );
        // A later tunnel wins a (router, label) pair.
        let mut seen = std::collections::HashSet::new();
        for (rid, label, want) in transit.iter().rev() {
            if !seen.insert((*rid, *label)) {
                continue;
            }
            let e = s.cp.lfib_entry(*rid, *label).expect("TE entry installed");
            assert!(!e.is_derived(), "{popping:?}: {label}");
            assert_eq!(e.slot, want.slot, "{popping:?}: {label}");
            assert!(
                e.branches().eq(want.nexthops.iter().copied()),
                "{popping:?}: {label}: {e:?} vs {want:?}"
            );
        }
    }

    let i = generate(&InternetConfig::small(8));
    let r = i
        .net
        .routers()
        .iter()
        .find(|r| r.ifaces.len() >= 2 && i.cp.lfib_size(r.id) > 0)
        .expect("an LSR with two interfaces");
    let (existing, _) = i.cp.lfib_entries(r.id).next().expect("an LDP entry");
    let hops = vec![
        LfibHop {
            iface: 1,
            next: r.ifaces[1].peer,
            action: LabelAction::Swap(Label(4242)),
        },
        LfibHop {
            iface: 0,
            next: r.ifaces[0].peer,
            action: LabelAction::SwapExplicitNull,
        },
    ];
    let mut cp = i.cp.clone();
    for label in [existing, Label(700_001)] {
        cp.inject_lfib_entry(
            r.id,
            label,
            LfibEntry {
                slot: 3,
                nexthops: hops.clone(),
            },
        );
    }
    for label in [existing, Label(700_001)] {
        let e = cp.lfib_entry(r.id, label).expect("injected");
        assert!(!e.is_derived());
        assert_eq!(e.slot, 3);
        assert_eq!(e.branches().collect::<Vec<_>>(), hops);
    }
    for q in 0..i.net.num_routers() as u32 {
        let q = RouterId(q);
        let before =
            i.cp.lfib_entries(q)
                .filter(|&(l, _)| q != r.id || l != existing);
        let after = cp
            .lfib_entries(q)
            .filter(|&(l, _)| q != r.id || (l != existing && l != Label(700_001)));
        assert!(before.eq(after), "router {q:?}: untouched entries changed");
    }
}

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

#[test]
fn ext_routes_match_the_reference_at_quick_scale() {
    for seed in [1, 7, 42] {
        let i = generate(&InternetConfig::small(seed));
        oracle::assert_ext_reference_equivalent(&i.net, &i.cp, &format!("quick/seed{seed}"));
    }
}

#[test]
fn ext_routes_match_the_reference_at_paper_scale() {
    let i = generate(&InternetConfig {
        seed: 42,
        ..InternetConfig::default()
    });
    oracle::assert_ext_reference_equivalent(&i.net, &i.cp, "paper/seed42");
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn ext_routes_match_the_reference_at_tenfold_scale() {
    let i = generate(&InternetConfig::tenfold(8));
    oracle::assert_ext_reference_equivalent(&i.net, &i.cp, "tenfold/seed8");
}

/// A serial build, a parallel build and a substrate-cache restore give
/// the same dense tables — FIB next-hop groups and external-route
/// classes included, numbered alike — IGP views and LFIBs, and the
/// restored plane re-encodes to the payload it came from.
#[test]
fn jobs_and_cache_restore_give_equal_dense_tables() {
    let i = generate(&InternetConfig::small(42));
    let serial = ControlPlane::build_with_jobs(&i.net, 1).expect("serial build");
    let parallel = ControlPlane::build_with_jobs(&i.net, 4).expect("parallel build");
    let cached = ControlPlane::from_cache_payload(&i.net, 1, &serial.cache_payload())
        .expect("cache restore");
    assert_eq!(cached.cache_payload(), serial.cache_payload(), "re-encode");
    for (what, cp) in [("jobs=4", &parallel), ("cache", &cached)] {
        assert_eq!(serial.dense_view(), cp.dense_view(), "{what}: dense tables");
        assert_eq!(
            serial.table_bytes(),
            cp.table_bytes(),
            "{what}: table bytes"
        );
        for r in 0..i.net.num_routers() as u32 {
            for dst in 0..i.net.as_list().len() {
                let rid = RouterId(r);
                assert_eq!(
                    serial.ext_route(rid, dst),
                    cp.ext_route(rid, dst),
                    "{what}: router {r} towards AS #{dst}"
                );
            }
        }
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
