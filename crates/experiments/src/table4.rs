//! Table 4 — invisible MPLS tunnel discovery per AS.
//!
//! For every persona AS: HDN counts (snapshot vs campaign candidates),
//! candidate Ingress–Egress pairs, the share with revealed content, raw
//! LSP and LSR-address counts, the share of revealed addresses that
//! also act as LERs, and the Ingress–Egress graph density before/after
//! revelation.

use crate::context::PaperContext;
use crate::util::{pct, Report};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use wormhole_analysis::{before_after_snapshots, density_before_after};
use wormhole_net::{Addr, Asn, FaultPlan};
use wormhole_topo::NodeInfo;

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct AsDiscovery {
    /// The AS.
    pub asn: Asn,
    /// Persona name.
    pub name: String,
    /// HDN nodes of this AS in the bootstrap snapshot.
    pub hdns_itdk: usize,
    /// HDN nodes of this AS actually seen as candidate LERs.
    pub hdns_candidate: usize,
    /// Unique candidate Ingress–Egress pairs.
    pub ie_pairs: usize,
    /// Pairs whose content was revealed.
    pub revealed_pairs: usize,
    /// Unique revealed LSPs (distinct hop sequences).
    pub raw_lsps: usize,
    /// Unique revealed LSR addresses.
    pub ips_lsrs: usize,
    /// Revealed addresses that also appear as candidate LERs.
    pub lsrs_also_lers: usize,
    /// Ingress–Egress graph density before revelation.
    pub density_before: f64,
    /// … and after.
    pub density_after: f64,
}

/// Computes all rows.
pub fn rows(ctx: &PaperContext) -> Vec<AsDiscovery> {
    let net = &ctx.internet.net;
    let resolve = |addr: Addr| match net.owner(addr) {
        Some(r) => NodeInfo {
            key: u64::from(r.0),
            asn: Some(net.router(r).asn),
        },
        None => NodeInfo {
            key: 0xFFFF_0000_0000_0000 | u64::from(addr.0),
            asn: None,
        },
    };
    let (before, after) =
        before_after_snapshots(&ctx.result.traces, &ctx.result.revelations, resolve);

    let hdn_nodes: HashSet<usize> = ctx.result.hdns.iter().copied().collect();
    let mut out = Vec::new();
    for persona in &ctx.internet.personas {
        let asn = persona.asn;
        let hdns_itdk = ctx
            .result
            .hdns
            .iter()
            .filter(|&&n| ctx.result.snapshot.asn(n) == Some(asn))
            .count();

        let mut pairs: BTreeSet<(Addr, Addr)> = BTreeSet::new();
        let mut ler_addrs: BTreeSet<Addr> = BTreeSet::new();
        let mut candidate_hdn_nodes: BTreeSet<usize> = BTreeSet::new();
        for c in ctx.result.candidates.iter().filter(|c| c.asn == asn) {
            pairs.insert((c.ingress, c.egress));
            ler_addrs.insert(c.ingress);
            ler_addrs.insert(c.egress);
            for addr in [c.ingress, c.egress] {
                if let Some(n) = ctx.result.snapshot.node_of(addr) {
                    if hdn_nodes.contains(&n) {
                        candidate_hdn_nodes.insert(n);
                    }
                }
            }
        }

        let mut revealed_pairs = 0usize;
        let mut raw_lsps: BTreeSet<Vec<Addr>> = BTreeSet::new();
        let mut lsr_ips: BTreeSet<Addr> = BTreeSet::new();
        for &(x, y) in &pairs {
            if let Some(t) = ctx.result.revelations.get(&(x, y)).and_then(|o| o.tunnel()) {
                revealed_pairs += 1;
                raw_lsps.insert(t.hops());
                lsr_ips.extend(t.hops());
            }
        }
        let lsrs_also_lers = lsr_ips.iter().filter(|a| ler_addrs.contains(a)).count();
        let pair_addrs: BTreeSet<Addr> = ler_addrs.clone();
        let (density_before, density_after) = density_before_after(&before, &after, &pair_addrs);
        out.push(AsDiscovery {
            asn,
            name: persona.name.to_string(),
            hdns_itdk,
            hdns_candidate: candidate_hdn_nodes.len(),
            ie_pairs: pairs.len(),
            revealed_pairs,
            raw_lsps: raw_lsps.len(),
            ips_lsrs: lsr_ips.len(),
            lsrs_also_lers,
            density_before,
            density_after,
        });
    }
    out
}

/// Runs the experiment.
pub fn run(ctx: &PaperContext) -> Report {
    let mut report = Report::new("table4", "Invisible tunnel discovery per AS (Table 4)");
    let data = rows(ctx);
    let mut table = vec![vec![
        "ISP (ASN)".to_string(),
        "HDN itdk".to_string(),
        "HDN cand".to_string(),
        "I-E pairs".to_string(),
        "%Rev".to_string(),
        "LSPs".to_string(),
        "#IPs LSRs".to_string(),
        "%IPs LERs".to_string(),
        "dens before".to_string(),
        "dens after".to_string(),
    ]];
    let by_asn: BTreeMap<u32, &AsDiscovery> = data.iter().map(|d| (d.asn.0, d)).collect();
    for d in &data {
        table.push(vec![
            format!("{} ({})", d.name, d.asn.0),
            d.hdns_itdk.to_string(),
            d.hdns_candidate.to_string(),
            d.ie_pairs.to_string(),
            pct(d.revealed_pairs, d.ie_pairs),
            d.raw_lsps.to_string(),
            d.ips_lsrs.to_string(),
            pct(d.lsrs_also_lers, d.ips_lsrs),
            format!("{:.3}", d.density_before),
            format!("{:.3}", d.density_after),
        ]);
    }
    report.table(&table);

    // Paper-shape assertions (on personas present in this context).
    // They describe a clean run: loss, rate limits and deception all
    // cost revelations or fork paths, so under any fault plan the
    // table is reported but the shape is not asserted.
    let clean = ctx.config.faults == FaultPlan::none();
    if clean {
        if let Some(bt) = by_asn.get(&2856) {
            // BT persona (UHP): essentially nothing revealed.
            assert_eq!(bt.revealed_pairs, 0, "UHP persona must resist revelation");
        }
        for asn in [3257u32, 3549, 3320, 6762, 3491] {
            if let Some(d) = by_asn.get(&asn) {
                if d.ie_pairs > 0 {
                    assert!(
                        d.revealed_pairs * 100 >= d.ie_pairs * 30,
                        "AS{asn}: expected a high revelation rate, got {}/{}",
                        d.revealed_pairs,
                        d.ie_pairs
                    );
                    assert!(
                        d.density_after <= d.density_before + 1e-12,
                        "AS{asn}: revelation must not densify the LER graph"
                    );
                }
            }
        }
    }
    let total_revealed: usize = data.iter().map(|d| d.revealed_pairs).sum();
    if clean {
        assert!(total_revealed > 0, "campaign must reveal tunnels");
    }
    report.line(format!(
        "total revealed pairs across personas: {total_revealed}"
    ));
    report.line(if clean {
        "UHP persona resists; invisible personas reveal; densities deflate."
    } else {
        "faulted plan: paper-shape assertions skipped; they hold for clean runs."
    });
    ctx.append_lint(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn per_as_rows() {
        let ctx = PaperContext::generate(Scale::Quick);
        let r = run(&ctx);
        assert!(r.lines.iter().any(|l| l.contains("total revealed pairs")));
    }
}
