//! Fig. 10 — effect of invisible tunnels on the degree distribution.
//!
//! Invisible tunnels inflate LER degrees (every ingress looks adjacent
//! to every egress of its AS). Revealing the tunnels and rebuilding the
//! router-level graph deflates the high-degree mass — globally (10a)
//! and spectacularly for the Deutsche-Telekom-like persona whose PoP
//! structure produced an apparent full mesh (10b).

use crate::context::PaperContext;
use crate::util::{pdf_series, Report};
use std::collections::BTreeSet;
use wormhole_analysis::{before_after_snapshots, degree_histogram_of};
use wormhole_net::Asn;
use wormhole_topo::{ItdkSnapshot, NodeInfo};

/// Nodes of interest: everything that appears as a candidate ingress or
/// egress (optionally restricted to one AS), in the given snapshot.
fn pair_nodes(ctx: &PaperContext, snap: &ItdkSnapshot, only_asn: Option<Asn>) -> BTreeSet<usize> {
    let mut nodes = BTreeSet::new();
    for c in &ctx.result.candidates {
        if only_asn.is_some_and(|a| a != c.asn) {
            continue;
        }
        for addr in [c.ingress, c.egress] {
            if let Some(n) = snap.node_of(addr) {
                nodes.insert(n);
            }
        }
    }
    nodes
}

/// The before/after degree statistics for an optional AS restriction.
pub struct DegreeCorrection {
    /// Median degree before revelation.
    pub median_before: i64,
    /// Median degree after revelation.
    pub median_after: i64,
    /// Mean degree before revelation.
    pub mean_before: f64,
    /// Mean degree after revelation.
    pub mean_after: f64,
    /// Max degree before.
    pub max_before: i64,
    /// Max degree after.
    pub max_after: i64,
}

/// Computes the correction over the campaign traces.
pub fn correction(ctx: &PaperContext, only_asn: Option<Asn>) -> (DegreeCorrection, String, String) {
    let (before, after) =
        before_after_snapshots(&ctx.result.traces, &ctx.result.revelations, |a| {
            NodeInfo::resolve(&ctx.internet.net, a)
        });
    let nb = pair_nodes(ctx, &before, only_asn);
    let na = pair_nodes(ctx, &after, only_asn);
    let hb = degree_histogram_of(&before, &nb);
    let ha = degree_histogram_of(&after, &na);
    let stats = DegreeCorrection {
        median_before: hb.median().unwrap_or(0),
        median_after: ha.median().unwrap_or(0),
        mean_before: hb.mean().unwrap_or(0.0),
        mean_after: ha.mean().unwrap_or(0.0),
        max_before: hb.range().map_or(0, |r| r.1),
        max_after: ha.range().map_or(0, |r| r.1),
    };
    (stats, pdf_series(&hb.pdf()), pdf_series(&ha.pdf()))
}

/// Runs the experiment.
pub fn run(ctx: &PaperContext) -> Report {
    let mut report = Report::new("fig10", "Degree distribution correction (Fig. 10)");
    let (all, pdf_before, pdf_after) = correction(ctx, None);
    report.line("all ASes — candidate LER nodes:");
    report.line(format!("  invisible PDF: {pdf_before}"));
    report.line(format!("  visible PDF:   {pdf_after}"));
    report.line(format!(
        "  median degree {} → {}, mean {:.2} → {:.2}, max {} → {}",
        all.median_before,
        all.median_after,
        all.mean_before,
        all.mean_after,
        all.max_before,
        all.max_after
    ));
    assert!(
        all.median_after <= all.median_before,
        "revelation must not inflate LER degrees"
    );
    // The revealed mesh deflates in aggregate: every revealed pair trades
    // a fake ingress–egress adjacency for edges to (mostly shared) LSRs.
    assert!(
        all.mean_after < all.mean_before,
        "mean LER degree must deflate ({:.2} → {:.2})",
        all.mean_before,
        all.mean_after
    );
    // The DTAG persona, when present in the campaign.
    let dtag = Asn(3320);
    if ctx.result.candidates.iter().any(|c| c.asn == dtag) {
        let (p, pdf_b, pdf_a) = correction(ctx, Some(dtag));
        report.blank();
        report.line("AS3320 persona (Fig. 10b):");
        report.line(format!("  invisible PDF: {pdf_b}"));
        report.line(format!("  visible PDF:   {pdf_a}"));
        report.line(format!(
            "  median degree {} → {}, mean {:.2} → {:.2}, max {} → {}",
            p.median_before, p.median_after, p.mean_before, p.mean_after, p.max_before, p.max_after
        ));
        assert!(p.mean_after <= p.mean_before);
    }
    report.line("Revelation deflates the apparent LER mesh (Fig. 10).");
    ctx.append_lint(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn degrees_deflate() {
        let ctx = PaperContext::generate(Scale::Quick);
        let r = run(&ctx);
        assert!(r.lines.iter().any(|l| l.contains("deflates")));
    }
}
