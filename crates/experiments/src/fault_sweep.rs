//! Fault sweep — Table 3 cross-validation under increasing packet loss.
//!
//! The paper's PlanetLab re-runs happened on a live Internet, so its
//! Table 3 silently bakes in real probing noise. This experiment makes
//! that degradation explicit: the same explicit-tunnel cross-validation
//! re-runs at several loss levels, and the revelation recursion's typed
//! outcomes (`Complete` / `Partial` / `Abandoned`) are tallied next to
//! the five buckets. Under clean conditions nothing is abandoned; as
//! loss climbs, pairs slide from the success buckets into `Fail` and
//! from `Complete` into `Partial`/`Abandoned` — gracefully, never by
//! panicking.

use crate::table3::{
    classify, explicit_tunnels, replay_sessions, visible_internet, Bucket, ExplicitTunnel,
};
use crate::util::{pct, Report};
use std::collections::BTreeMap;
use wormhole_core::{reveal_between, RevealOpts, RevelationOutcome};
use wormhole_net::FaultPlan;
use wormhole_topo::Internet;

/// One sweep level: the Table 3 buckets plus the typed-outcome tally.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The injected link-loss probability.
    pub loss: f64,
    /// Table 3 buckets over the non-excluded pairs.
    pub buckets: BTreeMap<Bucket, usize>,
    /// Pairs excluded because the recursion was abandoned outright.
    pub excluded: usize,
    /// Revelations that ran to completion.
    pub complete: usize,
    /// Revelations that returned a lower bound (typed `Partial`).
    pub partial: usize,
    /// Revelations abandoned before revealing anything.
    pub abandoned: usize,
}

/// The loss levels swept (the first must be clean to anchor the
/// baseline assertion).
pub const LOSS_LEVELS: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// Re-runs the revelation recursion over `tunnels` at one loss level,
/// tallying buckets and typed outcomes.
pub fn sweep_level(
    internet: &Internet,
    tunnels: &[ExplicitTunnel],
    loss: f64,
    seed: u64,
) -> SweepPoint {
    let faults = FaultPlan {
        loss,
        icmp_loss: loss / 2.0,
        ..FaultPlan::default()
    };
    let mut sessions = replay_sessions(internet, &faults, seed);
    let mut point = SweepPoint {
        loss,
        buckets: BTreeMap::new(),
        excluded: 0,
        complete: 0,
        partial: 0,
        abandoned: 0,
    };
    for tun in tunnels {
        let sess = &mut sessions[tun.vp];
        let outcome = reveal_between(
            sess,
            tun.ingress,
            tun.egress,
            tun.egress,
            &RevealOpts::default(),
        );
        match &outcome {
            RevelationOutcome::Complete { .. } => point.complete += 1,
            RevelationOutcome::Partial { .. } => point.partial += 1,
            RevelationOutcome::Abandoned { .. } => point.abandoned += 1,
        }
        match classify(&outcome, tun) {
            Some(bucket) => *point.buckets.entry(bucket).or_insert(0) += 1,
            None => point.excluded += 1,
        }
    }
    point
}

/// Runs the experiment.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new("fault_sweep", "Table 3 buckets under increasing loss");
    let internet = visible_internet(20, quick);
    let tunnels = explicit_tunnels(&internet);
    assert!(
        !tunnels.is_empty(),
        "visible personas must expose explicit tunnels"
    );
    let n = tunnels.len();
    report.line(format!("{n} explicit pairs re-validated per loss level"));
    let mut rows = vec![vec![
        "loss".to_string(),
        "fail".to_string(),
        "dpr".to_string(),
        "brpr".to_string(),
        "hybrid".to_string(),
        "either".to_string(),
        "complete".to_string(),
        "partial".to_string(),
        "abandoned".to_string(),
    ]];
    let mut points = Vec::new();
    for &loss in &LOSS_LEVELS {
        let p = sweep_level(&internet, &tunnels, loss, 7_000);
        let get = |b| p.buckets.get(&b).copied().unwrap_or(0);
        rows.push(vec![
            format!("{:.0}%", loss * 100.0),
            get(Bucket::Fail).to_string(),
            get(Bucket::Dpr).to_string(),
            get(Bucket::Brpr).to_string(),
            get(Bucket::Hybrid).to_string(),
            get(Bucket::Either).to_string(),
            pct(p.complete, n),
            pct(p.partial, n),
            pct(p.abandoned, n),
        ]);
        points.push(p);
    }
    report.table(&rows);

    // Every pair lands in exactly one outcome at every level.
    for p in &points {
        assert_eq!(p.complete + p.partial + p.abandoned, n);
        let bucketed: usize = p.buckets.values().sum();
        assert_eq!(bucketed + p.excluded, n);
    }
    // Clean baseline: nothing abandoned, nothing partial.
    let clean = &points[0];
    assert_eq!(clean.abandoned, 0, "clean runs must not abandon");
    assert_eq!(clean.partial, 0, "clean runs must not truncate");
    // Degradation is graceful, not catastrophic: even the worst level
    // still completes some revelations, and the clean level completes
    // at least as many as the worst.
    let worst = points.last().expect("non-empty sweep");
    assert!(
        worst.complete > 0,
        "revelation must survive {:.0}% loss on some pairs",
        worst.loss * 100.0
    );
    assert!(
        clean.complete >= worst.complete,
        "loss must not improve completion"
    );
    report.line(format!(
        "clean: {}/{n} complete; at {:.0}% loss: {}/{n} complete, {} partial, {} abandoned — \
         degradation is typed and gradual, never a crash",
        clean.complete,
        worst.loss * 100.0,
        worst.complete,
        worst.partial,
        worst.abandoned
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_degrades_gracefully() {
        let r = run(true);
        assert!(r.lines.iter().any(|l| l.contains("typed and gradual")));
    }
}
