//! The control plane's tables: their heap footprint, and the
//! substrate-cache bytes they encode to.
//!
//! Every flat table is sized to what it holds, so
//! [`ControlPlane::table_bytes`] equals the element counts the dense
//! view exposes, with no growth slack; so does the network's owner
//! index. The `#[ignore]`d rows hold the
//! resident footprint of the tenfold and thousandfold planes under a
//! ceiling (release CI runs them with `--include-ignored`).
//!
//! The cache golden pins `cache_payload()` at quick scale: its length
//! and FNV-64 checksum are the bytes the nested in-memory layout wrote,
//! so the compact tables encode to an unchanged WHSC format.

use std::mem::size_of_val;
use wormhole::experiments::{internet_config_for, Scale};
use wormhole::net::{wire, Addr, ControlPlane, RouterId, OWNER_DIR_SIZE};
use wormhole::topo::{generate, InternetConfig};

const MB: usize = 1_000_000;

fn bytes(cp: &ControlPlane, table: &str) -> usize {
    cp.table_bytes()
        .iter()
        .find(|t| t.0 == table)
        .unwrap_or_else(|| panic!("no table {table}"))
        .1
}

fn total(cp: &ControlPlane) -> usize {
    cp.table_bytes().iter().map(|t| t.1).sum()
}

/// The flat tables reserve exactly their contents.
fn assert_exactly_sized(i: &wormhole::topo::Internet, what: &str) {
    let cp = &i.cp;
    let v = cp.dense_view();
    let (n, n_as) = (i.net.num_routers(), i.net.as_list().len());
    let names: Vec<&str> = cp.table_bytes().iter().map(|t| t.0).collect();
    assert_eq!(
        names,
        [
            "igp",
            "prefixes",
            "bgp",
            "ldp bindings",
            "fib",
            "ext",
            "lfib",
            "te",
            "dst resolution",
            "walk"
        ],
        "{what}"
    );
    // One u16 class per (source AS, destination AS), one word per
    // member per class, one local index per router.
    assert_eq!(v.ext_class.len(), n_as * n_as, "{what}: ext classes");
    assert_eq!(v.ext_local.len(), n, "{what}: ext local indices");
    assert_eq!(
        bytes(cp, "ext"),
        size_of_val(v.ext_class)
            + size_of_val(v.ext_blocks)
            + size_of_val(v.ext_words)
            + size_of_val(v.ext_local),
        "{what}: ext"
    );
    assert!(
        v.ext_words.len() < n * n_as,
        "{what}: {} class words for {} cells",
        v.ext_words.len(),
        n * n_as
    );
    // Per AS: its members and one distance per (member, member).
    let igp_bytes: usize = cp
        .igp
        .iter()
        .map(|view| {
            assert_eq!(view.dist.len(), view.members.len().pow(2), "{what}: igp");
            size_of_val(view.members.as_slice()) + size_of_val(view.dist.as_slice())
        })
        .sum();
    assert_eq!(
        bytes(cp, "igp"),
        size_of_val(cp.igp.as_slice()) + igp_bytes,
        "{what}: igp"
    );
    // One u16 group number per (router, slot).
    let cells: usize = i
        .net
        .routers()
        .iter()
        .map(|r| i.net.as_index(r.asn).map_or(0, |a| cp.as_prefixes[a].len()))
        .sum();
    assert_eq!(v.fib_index.len(), cells, "{what}: fib cells");
    assert_eq!(
        bytes(cp, "fib"),
        size_of_val(v.fib_base)
            + size_of_val(v.fib_index)
            + size_of_val(v.fib_group_base)
            + size_of_val(v.fib_groups)
            + size_of_val(v.fib_pool),
        "{what}: fib"
    );
    assert_eq!(
        bytes(cp, "lfib"),
        size_of_val(v.lfib_base)
            + size_of_val(v.lfib_lo)
            + size_of_val(v.lfib_rows)
            + size_of_val(v.lfib_explicit)
            + size_of_val(v.lfib_hops),
        "{what}: lfib"
    );
    // Per AS: one prefix per slot, one owner offset per slot plus one,
    // one entry per (slot, owner).
    let slot_bytes: usize = cp
        .as_prefixes
        .iter()
        .map(|ap| {
            size_of_val(ap.prefixes.as_slice())
                + size_of_val(ap.owner_base.as_slice())
                + size_of_val(ap.owner_ids.as_slice())
        })
        .sum();
    assert_eq!(
        bytes(cp, "prefixes"),
        size_of_val(cp.as_prefixes.as_slice()) + slot_bytes,
        "{what}: prefixes"
    );
    let owners = i.net.owner_index();
    assert_eq!(
        owners.heap_bytes(),
        size_of_val(owners.dir.as_slice()) + size_of_val(owners.pool.as_slice()),
        "{what}: owner index"
    );
    let (base, pool) = cp.bindings.csr();
    assert_eq!(
        bytes(cp, "ldp bindings"),
        size_of_val(base) + size_of_val(pool),
        "{what}: ldp"
    );
    // Each block run ends at its highest held address: the pool is
    // within a small factor of the addresses it indexes.
    let held: usize = i.net.routers().iter().map(|r| 1 + r.ifaces.len()).sum();
    assert!(
        owners.pool.len() < 2 * held,
        "{what}: {} pool entries for {held} addresses",
        owners.pool.len()
    );
    let installed: usize = (0..n as u32).map(|r| cp.lfib_size(RouterId(r))).sum();
    assert_eq!(installed, v.lfib_rows.len(), "{what}");
    // LDP records keep no branch: only RSVP-TE transit entries (none in
    // a generated Internet) are explicit.
    assert!(
        v.lfib_explicit.is_empty() && v.lfib_hops.is_empty(),
        "{what}"
    );
}

/// The network's owner index agrees with the routers' addresses both
/// ways: every held address resolves to its holder, and every populated
/// pool entry decodes to an address its router holds.
#[test]
fn owner_index_agrees_with_router_addresses_at_quick_scale() {
    for seed in [1, 7, 42] {
        let net = generate(&InternetConfig::small(seed)).net;
        let mut held = 0;
        for r in net.routers() {
            for addr in r.addrs() {
                assert_eq!(net.owner(addr), Some(r.id), "quick/seed{seed}: {addr}");
                held += 1;
            }
        }
        let ix = net.owner_index();
        let mut populated = 0;
        for (top, &page) in ix.top.iter().enumerate() {
            if page == u32::MAX {
                continue;
            }
            for block in 0..OWNER_DIR_SIZE {
                let (start, len) = ix.dir[page as usize + block];
                for off in 0..len {
                    let raw = ix.pool[(start + off) as usize];
                    if raw == 0 {
                        continue;
                    }
                    let addr = Addr(((top as u32) << 24) | ((block as u32) << 12) | off);
                    let r = net.router(RouterId(raw - 1));
                    assert!(
                        r.owns(addr),
                        "quick/seed{seed}: {addr} indexed to {}",
                        r.name
                    );
                    populated += 1;
                }
            }
        }
        assert_eq!(populated, held, "quick/seed{seed}");
    }
}

fn report(what: &str, cp: &ControlPlane) {
    for (name, b) in cp.table_bytes() {
        eprintln!("{what}: {name:>15} {:>9.2} MB", b as f64 / MB as f64);
    }
    eprintln!(
        "{what}: {:>15} {:>9.2} MB",
        "total",
        total(cp) as f64 / MB as f64
    );
}

#[test]
fn tables_are_exactly_sized_at_quick_scale() {
    for seed in [1, 8, 42] {
        let i = generate(&InternetConfig::small(seed));
        assert_exactly_sized(&i, &format!("quick/seed{seed}"));
        report("quick", &i.cp);
        assert!(
            total(&i.cp) < MB,
            "quick/seed{seed}: {} bytes",
            total(&i.cp)
        );
    }
}

#[test]
fn tables_are_exactly_sized_at_paper_scale() {
    let i = generate(&internet_config_for(Scale::Paper, 8));
    assert_exactly_sized(&i, "paper/seed8");
    report("paper", &i.cp);
    assert!(total(&i.cp) < 4 * MB, "paper: {} bytes", total(&i.cp));
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn tenfold_plane_footprint_within_ceiling() {
    let i = generate(&internet_config_for(Scale::Tenfold, 8));
    assert_exactly_sized(&i, "tenfold/seed8");
    report("tenfold", &i.cp);
    assert!(total(&i.cp) <= 6 * MB, "tenfold: {} bytes", total(&i.cp));
    for (table, ceiling) in [
        ("igp", 600_000),
        ("lfib", 1_600_000),
        ("fib", MB),
        ("ext", 300_000),
        ("prefixes", 300_000),
    ] {
        assert!(
            bytes(&i.cp, table) <= ceiling,
            "tenfold: {table} {} bytes",
            bytes(&i.cp, table)
        );
    }
}

#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn thousandfold_plane_footprint_within_ceiling() {
    let i = generate(&internet_config_for(Scale::ThousandFold, 8));
    assert_exactly_sized(&i, "thousandfold/seed8");
    report("thousandfold", &i.cp);
    assert!(
        total(&i.cp) <= 34 * MB,
        "thousandfold: {} bytes",
        total(&i.cp)
    );
}

/// `cache_payload()` length and FNV-64 at quick scale, as written by
/// the nested `Vec<Vec<Vec<usize>>>` / `Vec<ExtRoute>` tables before
/// they were packed: a cache written by either build restores in the
/// other.
#[test]
fn quick_cache_payload_bytes_are_pinned() {
    for (seed, len, fnv) in [
        (8, 9222, 0x8b5b_c0e7_2cc4_3e89u64),
        (42, 9226, 0xe049_d020_f0dd_1a20),
    ] {
        let i = generate(&InternetConfig::small(seed));
        let payload = i.cp.cache_payload();
        assert_eq!(
            (payload.len(), wire::checksum(&payload)),
            (len, fnv),
            "quick/seed{seed}"
        );
        let warm = ControlPlane::from_cache_payload(&i.net, &payload).expect("restores");
        assert_eq!(warm.cache_payload(), payload, "quick/seed{seed}: re-encode");
    }
}
