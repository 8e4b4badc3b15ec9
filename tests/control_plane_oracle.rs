//! The control-plane oracles against a plain reference, and plane
//! equality across build paths.
//!
//! `AsIgp` and `logical_fib` resolve members through dense local
//! indices and write the FIB's next-hop groups directly; the reference
//! in `crates/lint/tests/oracle` re-derives the same tables the plain
//! `RouterId`-keyed way. Both must agree exactly on the distance
//! matrices, on the next-hop masks derived from them (against the
//! reference's all-pairs first-hop CSR) and on the FIB groups. The
//! tenfold and thousandfold rows live in
//! `crates/lint/tests/dense_scales.rs` (`--include-ignored`).
//! The external-route classes are checked through `ext_route` against
//! the reference's per-cell hot-potato choice, over the reference's own
//! valley-free routes; the BGP rows pin `Bgp::compute`'s next-hop sets
//! against those routes, so a wrong set cannot be built into `ext` and
//! then agreed with.
//!
//! LDP labels are a closed form and the LFIB stores no LDP entry: a
//! lookup inverts the label to its FEC and derives the branches from
//! the FIB on every read. The LDP reference rows pin `advertised` on
//! every `(router, slot)` against the sequential allocator the plane
//! once stored, and every router's `lfib_entries` against the
//! reference LFIB row; the derived-branch rows check each entry against
//! its FIB span and `ldp_label_action`; and explicitly installed
//! entries (RSVP-TE transit, what-if injections) read back exactly as
//! installed.
//!
//! A property row builds small random Internets whose links carry
//! different metrics in each direction (1..=4, so equal-cost ties are
//! common) and checks the same reference and a clean lint gate there;
//! every generator and scenario elsewhere uses symmetric metrics.
//!
//! The AS tables number each loopback's and interface's FEC slot as
//! they are built, and nothing looks an address up by prefix; the slot
//! rows check every numbered slot against a test-only linear-scan
//! longest-prefix match over the router's own AS table.

#[path = "../crates/lint/tests/oracle/mod.rs"]
mod oracle;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wormhole_net::{
    ldp_label_action, Addr, Asn, Bgp, ControlPlane, Label, LabelAction, LabelValue, LfibEntry,
    LfibHop, LinkOpts, Network, NetworkBuilder, PoppingMode, RelKind, RouterConfig, RouterId,
    Vendor,
};
use wormhole_topo::{generate, gns3_fig2, gns3_fig2_te, Fig2Config, InternetConfig};

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
                    action: ldp_label_action(cp, next, e.slot),
                };
                assert_eq!(e.branch(i), want, "{what}: router {r} label {label} #{i}");
            }
            assert_eq!(
                cp.advertised(rid, e.slot),
                Some(LabelValue::Real(label)),
                "{what}: router {r} label {label} is not its FEC's advertisement"
            );
            rows += 1;
        }
    }
    let advertised = net
        .routers()
        .iter()
        .flat_map(|r| {
            let slots = net.as_index(r.asn).map_or(0, |a| cp.as_prefixes[a].len());
            (0..slots as u32).filter(move |&slot| {
                matches!(cp.advertised(r.id, slot), Some(LabelValue::Real(_)))
                    && cp.fib_entry(r.id, slot).is_some()
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

#[test]
fn ldp_labels_match_the_reference_allocator_at_quick_scale() {
    for seed in [1, 7, 42] {
        let i = generate(&InternetConfig::small(seed));
        oracle::assert_ldp_reference_equivalent(&i.net, &i.cp, &format!("quick/seed{seed}"));
    }
}

#[test]
fn ldp_labels_match_the_reference_allocator_at_paper_scale() {
    let i = generate(&InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    });
    oracle::assert_ldp_reference_equivalent(&i.net, &i.cp, "paper/seed8");
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn ldp_labels_match_the_reference_allocator_at_tenfold_scale() {
    let i = generate(&InternetConfig::tenfold(8));
    oracle::assert_ldp_reference_equivalent(&i.net, &i.cp, "tenfold/seed8");
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn ldp_labels_match_the_reference_allocator_at_thousandfold_scale() {
    let i = generate(&InternetConfig::thousandfold(8));
    oracle::assert_ldp_reference_equivalent(&i.net, &i.cp, "thousandfold/seed8");
}

/// The reference rows also hold on the testbeds: the RSVP-TE fixture's
/// explicit rows (no LDP, PHP and UHP tunnels) and the LDP testbed
/// under every Fig. 2 preset.
#[test]
fn lfib_rows_match_the_reference_on_the_testbeds() {
    for popping in [PoppingMode::Php, PoppingMode::Uhp] {
        let s = gns3_fig2_te(popping, false);
        oracle::assert_ldp_reference_equivalent(&s.net, &s.cp, &format!("te/{popping:?}"));
    }
    for config in Fig2Config::ALL {
        let s = gns3_fig2(config);
        oracle::assert_ldp_reference_equivalent(&s.net, &s.cp, &format!("fig2/{config:?}"));
    }
}

/// The slot a plain longest-prefix match gives `addr` in `router`'s own
/// AS table: a linear scan for the longest prefix containing it.
fn reference_lpm(net: &Network, cp: &ControlPlane, router: RouterId, addr: Addr) -> Option<u32> {
    let ap = &cp.as_prefixes[net.as_index(net.router(router).asn)?];
    (0..ap.len() as u32)
        .filter(|&s| ap.prefix(s).contains(addr))
        .max_by_key(|&s| ap.prefix(s).len)
}

/// Every loopback and interface slot the AS tables numbered at build
/// time is the one a longest-prefix match over the router's own AS
/// table finds for that address.
fn assert_slots_match_reference_lpm(net: &Network, cp: &ControlPlane, what: &str) {
    for r in net.routers() {
        let want = reference_lpm(net, cp, r.id, r.loopback);
        assert!(want.is_some(), "{what}: {} loopback has no slot", r.name);
        assert_eq!(cp.loopback_slot(r.id), want, "{what}: {} loopback", r.name);
        for (k, ifc) in r.ifaces.iter().enumerate() {
            let want = reference_lpm(net, cp, r.id, ifc.addr);
            assert!(
                want.is_some(),
                "{what}: {} {} has no slot",
                r.name,
                ifc.addr
            );
            assert_eq!(
                cp.iface_slot(r.id, k),
                want,
                "{what}: {} {}",
                r.name,
                ifc.addr
            );
        }
    }
}

#[test]
fn fec_slots_match_a_reference_lpm_at_quick_scale() {
    for seed in [1, 7, 42] {
        let i = generate(&InternetConfig::small(seed));
        assert_slots_match_reference_lpm(&i.net, &i.cp, &format!("quick/seed{seed}"));
    }
}

#[test]
fn fec_slots_match_a_reference_lpm_at_paper_scale() {
    for seed in [1, 7, 42] {
        let i = generate(&InternetConfig {
            seed,
            ..InternetConfig::default()
        });
        assert_slots_match_reference_lpm(&i.net, &i.cp, &format!("paper/seed{seed}"));
    }
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn fec_slots_match_a_reference_lpm_at_tenfold_scale() {
    let i = generate(&InternetConfig::tenfold(8));
    assert_slots_match_reference_lpm(&i.net, &i.cp, "tenfold/seed8");
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn fec_slots_match_a_reference_lpm_at_thousandfold_scale() {
    let i = generate(&InternetConfig::thousandfold(8));
    assert_slots_match_reference_lpm(&i.net, &i.cp, "thousandfold/seed8");
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

/// A small random Internet: 2–4 ASes of 2–7 MPLS routers, each AS a
/// random spanning tree plus random chords (parallel links included),
/// each AS the provider of the next over one random link. Every link
/// draws its two directions' metrics apart from 1..=4, so metrics are
/// asymmetric and equal-cost ties common.
fn asymmetric_internet(seed: u64) -> Network {
    fn link(b: &mut NetworkBuilder, rng: &mut StdRng, x: RouterId, y: RouterId) {
        let (metric_ab, metric_ba) = (rng.gen_range(1..=4), rng.gen_range(1..=4));
        b.link(
            x,
            y,
            LinkOpts {
                delay_ms: 1.0,
                metric_ab,
                metric_ba,
            },
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetworkBuilder::new();
    let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
    let ases: Vec<Vec<RouterId>> = (1..=rng.gen_range(2..=4u32))
        .map(|a| {
            let rs: Vec<RouterId> = (0..rng.gen_range(2..=7))
                .map(|i| b.add_router(&format!("r{a}.{i}"), Asn(a), cfg.clone()))
                .collect();
            for i in 1..rs.len() {
                let j = rng.gen_range(0..i);
                link(&mut b, &mut rng, rs[i], rs[j]);
            }
            for _ in 0..rng.gen_range(0..=rs.len()) {
                let (x, y) = (rng.gen_range(0..rs.len()), rng.gen_range(0..rs.len()));
                if x != y {
                    link(&mut b, &mut rng, rs[x], rs[y]);
                }
            }
            rs
        })
        .collect();
    for (a, pair) in ases.windows(2).enumerate() {
        let x = pair[0][rng.gen_range(0..pair[0].len())];
        let y = pair[1][rng.gen_range(0..pair[1].len())];
        link(&mut b, &mut rng, x, y);
        b.as_rel(
            Asn(a as u32 + 1),
            Asn(a as u32 + 2),
            RelKind::ProviderCustomer,
        );
    }
    b.build().expect("valid random Internet")
}

proptest! {
    /// Under asymmetric metrics with frequent ties, the distance
    /// matrices, next-hop masks and stored FIB equal the reference, and
    /// the lint-before-simulate gate finds nothing.
    #[test]
    fn oracles_match_the_reference_under_asymmetric_metrics(seed in any::<u64>()) {
        let net = asymmetric_internet(seed);
        let cp = ControlPlane::build(&net).expect("the random Internet builds");
        oracle::assert_reference_equivalent(&net, &cp, &format!("asymmetric/seed{seed}"));
        let diags = wormhole_lint::check_plane(&net, &cp);
        prop_assert!(diags.is_empty(), "{}", wormhole_lint::render(&diags));
    }
}

#[test]
fn bgp_next_hops_match_the_reference_at_quick_scale() {
    for seed in [1, 7, 42] {
        let i = generate(&InternetConfig::small(seed));
        oracle::assert_bgp_reference_equivalent(&i.net, &format!("quick/seed{seed}"));
    }
}

/// AS2 first hears AS1 from its peer AS1 (one hop), then from its
/// customer AS3 (two hops), and prefers the customer route. AS2's
/// customer AS4 must then learn the three-hop route through AS2: the
/// two-hop one AS2 offered while it still held the peer route is gone.
#[test]
fn bgp_next_hops_match_the_reference_on_a_replaced_peer_route() {
    let mut b = NetworkBuilder::new();
    let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
    let r: Vec<RouterId> = (1..=4)
        .map(|a| b.add_router(&format!("r{a}"), Asn(a), cfg.clone()))
        .collect();
    for (x, y) in [(1, 0), (1, 2), (2, 0), (1, 3)] {
        b.link(r[x], r[y], LinkOpts::default());
    }
    b.as_rel(Asn(2), Asn(1), RelKind::Peer);
    b.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
    b.as_rel(Asn(3), Asn(1), RelKind::ProviderCustomer);
    b.as_rel(Asn(2), Asn(4), RelKind::ProviderCustomer);
    let net = b.build().expect("valid fixture");
    let (as1, as2, as4) = (0, 1, 3);
    assert_eq!(
        Bgp::compute(&net)
            .expect("valley-free routes")
            .next_hops(as1, as4),
        [as2 as u32]
    );
    oracle::assert_bgp_reference_equivalent(&net, "replaced peer route");
}

#[test]
fn bgp_next_hops_match_the_reference_at_paper_scale() {
    let i = generate(&InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    });
    oracle::assert_bgp_reference_equivalent(&i.net, "paper/seed8");
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn bgp_next_hops_match_the_reference_at_tenfold_scale() {
    let i = generate(&InternetConfig::tenfold(8));
    oracle::assert_bgp_reference_equivalent(&i.net, "tenfold/seed8");
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn bgp_next_hops_match_the_reference_at_thousandfold_scale() {
    let i = generate(&InternetConfig::thousandfold(8));
    oracle::assert_bgp_reference_equivalent(&i.net, "thousandfold/seed8");
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

/// A cold build and a substrate-cache restore give the same dense
/// tables — FIB next-hop groups and external-route classes included,
/// numbered alike — IGP views and LFIBs, and the restored plane
/// re-encodes to the payload it came from.
#[test]
fn jobs_and_cache_restore_give_equal_dense_tables() {
    let i = generate(&InternetConfig::small(42));
    let cold = ControlPlane::build(&i.net).expect("cold build");
    let cached =
        ControlPlane::from_cache_payload(&i.net, &cold.cache_payload()).expect("cache restore");
    assert_eq!(cached.cache_payload(), cold.cache_payload(), "re-encode");
    assert_eq!(cold.dense_view(), cached.dense_view(), "dense tables");
    assert_eq!(cold.table_bytes(), cached.table_bytes(), "table bytes");
    for r in 0..i.net.num_routers() as u32 {
        for dst in 0..i.net.as_list().len() {
            let rid = RouterId(r);
            assert_eq!(
                cold.ext_route(rid, dst),
                cached.ext_route(rid, dst),
                "router {r} towards AS #{dst}"
            );
        }
    }
    for (a, b) in cold.igp.iter().zip(&cached.igp) {
        assert_eq!(a.members, b.members, "{:?} members", a.asn);
        assert_eq!(a.dist, b.dist, "{:?} distances", a.asn);
    }
    for r in 0..i.net.num_routers() as u32 {
        let rid = RouterId(r);
        assert!(
            cold.lfib_entries(rid).eq(cached.lfib_entries(rid)),
            "LFIB of router {r}"
        );
    }
}
