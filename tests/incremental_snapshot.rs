//! Incremental-aggregation equivalence: the campaign's streaming
//! [`ItdkBuilder`] must converge to exactly the batch
//! [`ItdkSnapshot::build`] over the same IP paths, in any ingest
//! order, over clean, hostile, and degraded campaign corpora.
//!
//! The campaign retains its bootstrap paths
//! (`CampaignConfig::keep_bootstrap_paths`) so the full path corpus —
//! bootstrap plus merged phase-4 traces — can be replayed through
//! fresh builders in permuted orders. Byte-identity is asserted
//! through the canonical snapshot checksum (keys, ASNs, sorted
//! addresses, and links all feed it) plus every counter and the HDN
//! extraction the campaign keys on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wormhole::core::{snapshot_oracle, Campaign, CampaignConfig, CampaignResult};
use wormhole::net::{Addr, FaultScenario};
use wormhole::topo::{generate, Internet, InternetConfig, ItdkBuilder, ItdkSnapshot, NodeInfo};

/// A seeded Fisher–Yates permutation of `0..n` (the vendored `rand`
/// has no `shuffle`).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        idx.swap(i, j);
    }
    idx
}

/// Runs a campaign that retains its bootstrap paths and returns the
/// result plus the full path corpus (bootstrap + phase-4 traces).
fn corpus(
    internet: &Internet,
    hdn_threshold: usize,
    faults: FaultScenario,
    chaos_panic_vp: Option<usize>,
) -> (CampaignResult, Vec<Vec<Option<Addr>>>) {
    let cfg = CampaignConfig {
        hdn_threshold,
        jobs: 2,
        faults: faults.plan(),
        chaos_panic_vp,
        keep_bootstrap_paths: true,
        ..CampaignConfig::default()
    };
    let result = Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run();
    let mut paths = result.bootstrap_paths.clone();
    paths.extend(result.traces.iter().map(|t| t.addr_path()));
    (result, paths)
}

/// Asserts the batch build over `paths` — in the given order and in
/// several deterministic permutations — lands on the campaign's
/// incremental checksum, counters, and HDN extraction.
fn assert_order_independent(
    internet: &Internet,
    result: &CampaignResult,
    paths: &[Vec<Option<Addr>>],
    hdn_threshold: usize,
) {
    let resolve = |addr| NodeInfo::resolve(&internet.net, addr);
    let batch = ItdkSnapshot::build(paths, &resolve);
    assert_eq!(
        batch.checksum(),
        result.snapshot_checksum,
        "batch rebuild diverged from the incremental checksum"
    );
    let last = result.snapshot_deltas.last().expect("deltas recorded");
    assert_eq!(
        (batch.num_nodes(), batch.num_links(), batch.num_addresses()),
        (last.nodes, last.links, last.addresses),
        "batch counters diverged from the final delta row"
    );
    // The library's own oracle (what `audit_campaign` feeds A310) must
    // agree too.
    assert_eq!(
        snapshot_oracle(&internet.net, result),
        Some((
            paths.len() as u64,
            batch.num_nodes(),
            batch.num_links(),
            batch.num_addresses(),
            batch.checksum()
        ))
    );
    // Permutations: reversed, rotated, and three seeded shuffles. The
    // canonical finish must erase every trace of ingest order.
    let mut orders: Vec<Vec<usize>> = vec![
        (0..paths.len()).rev().collect(),
        (0..paths.len())
            .map(|i| (i + paths.len() / 2) % paths.len())
            .collect(),
    ];
    for seed in 0..3u64 {
        orders.push(shuffled(paths.len(), seed));
    }
    for order in orders {
        let mut b = ItdkBuilder::new();
        for &i in &order {
            b.ingest(&paths[i], &resolve);
        }
        assert_eq!(b.ingested(), paths.len() as u64);
        let snap = b.finish();
        assert_eq!(snap.checksum(), batch.checksum(), "permuted build diverged");
        assert_eq!(snap.num_nodes(), batch.num_nodes());
        assert_eq!(snap.num_links(), batch.num_links());
        assert_eq!(snap.num_addresses(), batch.num_addresses());
        assert_eq!(snap.hdns(hdn_threshold), batch.hdns(hdn_threshold));
    }
}

#[test]
fn quick_clean_campaign_is_ingest_order_independent() {
    let internet = generate(&InternetConfig::small(8));
    let (result, paths) = corpus(&internet, 6, FaultScenario::Clean, None);
    assert!(!paths.is_empty());
    assert_order_independent(&internet, &result, &paths, 6);
}

#[test]
fn quick_hostile_campaign_is_ingest_order_independent() {
    let hostile = FaultScenario::ALL
        .iter()
        .copied()
        .find(|s| s.name() == "hostile")
        .expect("hostile scenario exists");
    let internet = generate(&InternetConfig::small(8));
    let (result, paths) = corpus(&internet, 6, hostile, None);
    assert_order_independent(&internet, &result, &paths, 6);
}

#[test]
fn quick_degraded_campaign_is_ingest_order_independent() {
    // A worker panic drops one shard's traces; the surviving corpus
    // must still aggregate order-independently.
    let internet = generate(&InternetConfig::small(8));
    let (result, paths) = corpus(&internet, 6, FaultScenario::Clean, Some(1));
    assert!(
        !result.degraded_shards.is_empty(),
        "chaos panic should degrade a shard"
    );
    assert_order_independent(&internet, &result, &paths, 6);
}

#[test]
#[ignore = "paper scale; run with --ignored in release CI"]
fn paper_campaign_is_ingest_order_independent() {
    let internet = generate(&InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    });
    let (result, paths) = corpus(&internet, 9, FaultScenario::Clean, None);
    assert_order_independent(&internet, &result, &paths, 9);
}

#[test]
#[ignore = "tenfold scale; run with --ignored in release CI"]
fn tenfold_campaign_is_ingest_order_independent() {
    let internet = generate(&InternetConfig::tenfold(8));
    let (result, paths) = corpus(&internet, 9, FaultScenario::Clean, None);
    assert_order_independent(&internet, &result, &paths, 9);
}

/// The `audit_campaign` path over a bootstrap-retaining run must stay
/// clean — the A310 oracle comparison is live (not disabled) and
/// agrees.
#[test]
fn a310_audit_is_clean_over_a_live_campaign() {
    let internet = generate(&InternetConfig::small(8));
    let (result, _) = corpus(&internet, 6, FaultScenario::Clean, None);
    let diags = wormhole::core::audit_campaign(&internet.net, &result);
    assert!(
        !diags.iter().any(|d| d.code == "A310"),
        "A310 fired on a healthy campaign: {:?}",
        diags
    );
}

/// A campaign result plus the retained path corpus it aggregated.
type Corpus = (Internet, CampaignResult, Vec<Vec<Option<Addr>>>);

/// One quick campaign corpus shared across every property case — the
/// campaign is the expensive part; each case only replays builders.
fn shared_corpus() -> &'static Corpus {
    static CORPUS: std::sync::OnceLock<Corpus> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let internet = generate(&InternetConfig::small(8));
        let (result, paths) = corpus(&internet, 6, FaultScenario::Clean, None);
        (internet, result, paths)
    })
}

proptest! {
    /// *Any* ingest permutation — and any split of the corpus into a
    /// prefix ingested before a mid-flight `snapshot()` and a suffix
    /// after — lands on the campaign's incremental checksum.
    #[test]
    fn any_ingest_order_matches_the_incremental_checksum(seed in any::<u64>()) {
        let (internet, result, paths) = shared_corpus();
        let resolve = |addr| NodeInfo::resolve(&internet.net, addr);
        let order = shuffled(paths.len(), seed);
        let cut = (seed % paths.len() as u64) as usize;
        let mut b = ItdkBuilder::new();
        for &i in &order[..cut] {
            b.ingest(&paths[i], &resolve);
        }
        // A mid-flight snapshot must leave the builder usable.
        let _ = b.snapshot();
        for &i in &order[cut..] {
            b.ingest(&paths[i], &resolve);
        }
        prop_assert_eq!(b.ingested(), paths.len() as u64);
        prop_assert_eq!(b.checksum(), result.snapshot_checksum);
        let snap = b.finish();
        prop_assert_eq!(snap.checksum(), result.snapshot_checksum);
    }
}
