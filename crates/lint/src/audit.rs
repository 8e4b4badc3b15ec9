//! `A3xx` / `A4xx` / `V6xx` — result-audit rules over campaign outputs.
//!
//! `A3xx` rules check measurement-consistency invariants (signatures,
//! tunnels, trace indices, probe accounting); `A4xx` rules audit the
//! campaign's *robustness* accounting — probe budgets, partial
//! revelations, degraded shards; `V6xx` rules audit the
//! revelation-veracity screens — the cross-checks that grade each
//! revealed tunnel against independent evidence (quoted-TTL
//! plausibility, per-flow re-trace stability, RTLA return paths) so an
//! adversarial Internet cannot plant artifact "revelations" in the
//! corroborated tier.
//!
//! The campaign layer lives above this crate, so the auditor takes a
//! neutral [`CampaignAudit`] snapshot (built by
//! `wormhole_core::audit_input`) rather than the campaign result type
//! itself.

use crate::diag::{Diagnostic, Location, Severity};
use std::collections::HashSet;
use wormhole_net::{Addr, Network};

/// The Table 1 pair-signature taxonomy: `<time-exceeded, echo-reply>`
/// inferred initial TTLs a router can legitimately exhibit.
pub const SIGNATURE_TAXONOMY: [(u8, u8); 4] = [(255, 255), (255, 64), (128, 128), (64, 64)];

/// Allowed absolute disagreement between a revealed forward tunnel
/// length and the RTLA return-tunnel length before A302 fires. Forward
/// and return LSPs may legitimately differ by a hop or two (Fig. 9b);
/// more than that suggests a broken revelation or fingerprint.
pub const RTLA_GAP_TOLERANCE: i32 = 2;

/// The veracity tier the campaign's evidence screen assigned to a
/// revelation (mirror of the core layer's `Veracity`; the campaign
/// lives above this crate).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum VeracityTier {
    /// Every independent cross-check came back positive.
    Corroborated,
    /// Evidence was incomplete; the revelation is neither confirmed
    /// nor refuted.
    Unverified,
    /// Positive evidence of a measurement artifact or deception.
    Contradicted,
}

/// A revelation's claimed §4 method, as recorded in campaign output.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MethodClaim {
    /// Several hops in a single extra trace.
    Dpr,
    /// One hop per recursion step, more than one step.
    Brpr,
    /// A single revealed hop (DPR/BRPR indistinguishable).
    Either,
    /// Single-hop steps plus a multi-hop step.
    Hybrid,
}

/// Derives the method a step transcript (per-step revealed-hop counts)
/// actually supports — the auditor's independent re-derivation of the
/// Table 3 bucket. `None` when nothing was revealed.
pub fn method_from_steps(steps: &[usize]) -> Option<MethodClaim> {
    let revealing: Vec<usize> = steps.iter().copied().filter(|&n| n > 0).collect();
    let total: usize = revealing.iter().sum();
    if total == 0 {
        return None;
    }
    if total == 1 {
        return Some(MethodClaim::Either);
    }
    let multi = revealing.iter().any(|&n| n > 1);
    Some(if revealing.len() == 1 && multi {
        MethodClaim::Dpr
    } else if multi {
        MethodClaim::Hybrid
    } else {
        MethodClaim::Brpr
    })
}

/// How a revelation attempt ended, as recorded in campaign output.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RevelationKind {
    /// The recursion converged (possibly revealing nothing).
    Complete,
    /// Cut short; the hop set is a lower bound.
    Partial,
    /// Nothing revealed, attempt given up (or its worker died).
    Abandoned,
}

/// One revealed tunnel, reduced to what the auditor needs.
#[derive(Clone, Debug)]
pub struct TunnelAudit {
    /// Suspected ingress LER address.
    pub ingress: Addr,
    /// Suspected egress LER address.
    pub egress: Addr,
    /// Revealed hidden hops, ingress side first.
    pub hops: Vec<Addr>,
    /// RTLA return-tunnel length measured at the egress, when its
    /// signature allowed the measurement.
    pub rtl: Option<i32>,
    /// Per-step revealed-hop counts from the revelation transcript
    /// (empty disables the A308 method cross-check).
    pub steps: Vec<usize>,
    /// The method the campaign claims for this tunnel.
    pub method: Option<MethodClaim>,
}

/// A neutral snapshot of campaign outputs.
#[derive(Clone, Debug, Default)]
pub struct CampaignAudit {
    /// Per-address inferred initial TTLs `(addr, te, er)`; `None` for
    /// reply kinds never observed.
    pub signatures: Vec<(Addr, Option<u8>, Option<u8>)>,
    /// Every revealed tunnel.
    pub tunnels: Vec<TunnelAudit>,
    /// Candidate pairs as `(ingress, egress, trace_index)`.
    pub candidates: Vec<(Addr, Addr, usize)>,
    /// Number of campaign traces kept.
    pub num_traces: usize,
    /// Total probe packets the campaign accounted for.
    pub probes: u64,
    /// Probe packets per vantage-point shard, when the campaign ran
    /// sharded (empty disables the A307 cross-check).
    pub probes_by_shard: Vec<u64>,
    /// The per-trace probe budget the campaign ran with (`None`
    /// disables the A401 overrun check).
    pub trace_budget: Option<u32>,
    /// Per-trace `(probes spent, truncated)` accounting.
    pub trace_probes: Vec<(u32, bool)>,
    /// Every revelation outcome as `(ingress, egress, kind, revealed
    /// hop count)`.
    pub revelations: Vec<(Addr, Addr, RevelationKind, usize)>,
    /// Vantage-point shards lost to worker panics, as `(vp index,
    /// phase)`.
    pub degraded_shards: Vec<(usize, String)>,
    /// Per-phase rows of the incremental snapshot builder as `(phase,
    /// IP paths ingested during the phase, cumulative nodes, cumulative
    /// links, cumulative addresses)`. Empty disables A310.
    pub snapshot_deltas: Vec<(String, u64, usize, usize, usize)>,
    /// Order-independent checksum of the incremental builder's final
    /// state; `None` when the campaign did not aggregate incrementally.
    pub snapshot_checksum: Option<u64>,
    /// Batch-rebuild oracle over the same IP paths as `(paths, nodes,
    /// links, addresses, checksum)`; `None` disables the A310 oracle
    /// sub-check (the campaign did not retain its bootstrap paths).
    pub snapshot_oracle: Option<(u64, usize, usize, usize, u64)>,
    /// Per-revelation veracity tiers as `(ingress, egress, tier)`.
    /// Empty when the campaign ran with screening disabled, which
    /// disables V602–V605.
    pub veracity: Vec<(Addr, Addr, VeracityTier)>,
    /// Per-revelation artifact evidence as `(ingress, egress,
    /// re-trace revisits, re-trace stars, per-flow retrace mismatch)`.
    pub revelation_artifacts: Vec<(Addr, Addr, usize, usize, bool)>,
    /// Whether the campaign's fault plan included deceptive behaviors
    /// (TTL spoofing, non-Paris load balancing, egress hiding).
    pub deceptive_plan: bool,
    /// Cross-process shard accounting of a distributed run; `None`
    /// disables A311/A312 (the campaign ran in one process).
    pub dist: Option<DistAudit>,
}

/// Cross-process accounting of a distributed campaign run (mirror of
/// the core layer's `DistSummary`; the campaign lives above this
/// crate).
#[derive(Clone, Debug, Default)]
pub struct DistAudit {
    /// Worker processes the master partitioned each phase across.
    pub workers: usize,
    /// One entry per dispatched phase, in phase order.
    pub phases: Vec<DistPhaseAudit>,
    /// The config checksum of the substrate cache the master used, if
    /// any.
    pub master_cache: Option<u64>,
    /// Distinct `(worker, checksum)` cache observations reported back
    /// in shard files.
    pub worker_cache: Vec<(usize, u64)>,
}

/// Shard accounting for one dispatched phase of a distributed run.
#[derive(Clone, Debug)]
pub struct DistPhaseAudit {
    /// The phase label (matches degraded-shard phase names).
    pub phase: String,
    /// Workers spawned for the phase.
    pub dispatched: usize,
    /// Shard files received, validated, and merged.
    pub received: usize,
    /// Workers whose shard never arrived.
    pub missing: Vec<usize>,
    /// Worker indices received more than once.
    pub duplicates: Vec<usize>,
    /// Sum of per-VP probe counts over the received shard files.
    pub shard_probes: u64,
}

/// A301: a complete pair-signature outside the Table 1 vendor taxonomy.
/// Inferred initials are snapped to {32, 64, 128, 255} and every
/// simulated vendor produces one of the four taxonomy rows, so any
/// other combination means corrupted fingerprinting.
pub fn signature_taxonomy(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for &(addr, te, er) in &a.signatures {
        let (Some(te), Some(er)) = (te, er) else {
            continue;
        };
        if !SIGNATURE_TAXONOMY.contains(&(te, er)) {
            out.push(Diagnostic::new(
                "A301",
                Severity::Error,
                Location::Addr(addr),
                format!("signature <{te}, {er}> matches no vendor class of Table 1"),
                "check infer_initial_ttl inputs; replies must come from one router per address",
            ));
        }
    }
}

/// A302: the revealed forward tunnel length disagrees with the RTLA
/// return-tunnel length beyond [`RTLA_GAP_TOLERANCE`]. Asymmetric
/// tunnels exist, so this warns rather than errors.
pub fn rtla_gap_mismatch(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for t in &a.tunnels {
        let Some(rtl) = t.rtl else { continue };
        let ftl = t.hops.len() as i32 + 1;
        if (rtl - ftl).abs() > RTLA_GAP_TOLERANCE {
            out.push(Diagnostic::new(
                "A302",
                Severity::Warn,
                Location::Pair(t.ingress, t.egress),
                format!(
                    "revealed forward tunnel length {ftl} vs RTLA return length {rtl} \
                     (|Δ| > {RTLA_GAP_TOLERANCE})"
                ),
                "inspect the revelation transcript; DPR/BRPR may have stopped early or over-revealed",
            ));
        }
    }
}

/// A303: a revealed tunnel whose hop list repeats an address or
/// includes its own endpoints — the recursion double-counted.
pub fn duplicate_revealed_hop(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for t in &a.tunnels {
        let mut seen: HashSet<Addr> = [t.ingress, t.egress].into_iter().collect();
        for &h in &t.hops {
            if !seen.insert(h) {
                out.push(Diagnostic::new(
                    "A303",
                    Severity::Error,
                    Location::Pair(t.ingress, t.egress),
                    format!("revealed hop {h} repeats within the tunnel (or is an endpoint)"),
                    "deduplicate revelation steps against already-known addresses",
                ));
            }
        }
    }
}

/// A304: a revealed hop mapping outside the AS of its tunnel's
/// endpoints — LSPs never cross AS boundaries, so the revelation
/// spliced in a hop from another network.
pub fn foreign_as_hop(net: &Network, a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for t in &a.tunnels {
        let Some(asn) = net.owner_asn(t.ingress) else {
            continue;
        };
        for &h in &t.hops {
            if net.owner_asn(h) != Some(asn) {
                out.push(Diagnostic::new(
                    "A304",
                    Severity::Error,
                    Location::Pair(t.ingress, t.egress),
                    format!(
                        "revealed hop {h} does not belong to the tunnel's AS{}",
                        asn.0
                    ),
                    "restrict revelation to same-AS segments between ingress and egress",
                ));
            }
        }
    }
}

/// A305: a candidate pair pointing at a trace index the result does not
/// contain — downstream per-trace analysis would panic or misattribute.
pub fn dangling_trace_index(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for &(x, y, idx) in &a.candidates {
        if idx >= a.num_traces {
            out.push(Diagnostic::new(
                "A305",
                Severity::Error,
                Location::Pair(x, y),
                format!(
                    "candidate references trace #{idx} but only {} traces exist",
                    a.num_traces
                ),
                "record candidates with the index of the trace that observed them",
            ));
        }
    }
}

/// A306: probe accounting that cannot be right — fewer probes counted
/// than traces run (every trace costs at least one probe).
pub fn probe_accounting(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    if a.probes < a.num_traces as u64 {
        out.push(Diagnostic::new(
            "A306",
            Severity::Error,
            Location::Network,
            format!("{} probes accounted for {} traces", a.probes, a.num_traces),
            "sum the per-VP EngineStats::probes counters into the campaign total",
        ));
    }
}

/// A307: per-shard probe accounting. The shard counters must sum to the
/// campaign total (error — the sharded merge lost or double-counted a
/// worker), and a shard that sent zero probes usually means a vantage
/// point was never assigned work (warn).
pub fn shard_accounting(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    if a.probes_by_shard.is_empty() {
        return;
    }
    let sum: u64 = a.probes_by_shard.iter().sum();
    if sum != a.probes {
        out.push(Diagnostic::new(
            "A307",
            Severity::Error,
            Location::Network,
            format!(
                "per-shard probe counters sum to {sum} but the campaign total is {}",
                a.probes
            ),
            "derive the campaign total by summing the per-VP EngineStats::probes counters",
        ));
    }
    for (shard, &p) in a.probes_by_shard.iter().enumerate() {
        if p == 0 {
            out.push(Diagnostic::new(
                "A307",
                Severity::Warn,
                Location::Network,
                format!("vantage-point shard #{shard} sent zero probes"),
                "check the per-VP work assignment; an idle VP wastes a worker slot",
            ));
        }
    }
}

/// A308: the method the campaign claims for a tunnel disagrees with
/// what its own step transcript supports (the Table 3 bucket would be
/// wrong), or the transcript's hop counts do not sum to the hop list.
pub fn method_claim_consistency(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for t in &a.tunnels {
        if t.steps.is_empty() {
            continue;
        }
        let step_sum: usize = t.steps.iter().sum();
        if step_sum != t.hops.len() {
            out.push(Diagnostic::new(
                "A308",
                Severity::Error,
                Location::Pair(t.ingress, t.egress),
                format!(
                    "step transcript reveals {step_sum} hops but the tunnel lists {}",
                    t.hops.len()
                ),
                "derive the hop list from the revelation steps, nowhere else",
            ));
            continue;
        }
        let derived = method_from_steps(&t.steps);
        if t.method.is_some() && derived != t.method {
            out.push(Diagnostic::new(
                "A308",
                Severity::Error,
                Location::Pair(t.ingress, t.egress),
                format!(
                    "claimed method {:?} but the step transcript supports {:?}",
                    t.method, derived
                ),
                "classify the Table 3 bucket from the step transcript itself",
            ));
        }
    }
}

/// A310: incremental-aggregation accounting. The campaign's snapshot
/// builder only ever *adds* to the graph, so the per-phase delta rows
/// must conserve: cumulative node/link/address counts never shrink
/// between successive phases, the phase that fed the kept traces must
/// have ingested exactly `num_traces` paths, and — when a batch-rebuild
/// oracle over the same IP paths is available — the final counts and
/// the order-independent checksum must agree with it exactly.
pub fn incremental_aggregation(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    if a.snapshot_deltas.is_empty() {
        return;
    }
    for (phase, ingested, ..) in &a.snapshot_deltas {
        if phase == "probe" && *ingested != a.num_traces as u64 {
            out.push(Diagnostic::new(
                "A310",
                Severity::Error,
                Location::Network,
                format!(
                    "the probe phase ingested {ingested} paths but the campaign kept {} traces",
                    a.num_traces
                ),
                "feed every merged phase-4 trace to the builder, exactly once",
            ));
        }
    }
    for w in a.snapshot_deltas.windows(2) {
        let (p0, _, n0, l0, a0) = &w[0];
        let (p1, _, n1, l1, a1) = &w[1];
        if n1 < n0 || l1 < l0 || a1 < a0 {
            out.push(Diagnostic::new(
                "A310",
                Severity::Error,
                Location::Network,
                format!(
                    "snapshot counts shrank between the {p0} and {p1} phases \
                     (nodes {n0}→{n1}, links {l0}→{l1}, addresses {a0}→{a1})"
                ),
                "an incremental builder only adds; a shrinking counter means state was rebuilt or lost",
            ));
        }
    }
    let Some((paths, nodes, links, addresses, checksum)) = a.snapshot_oracle else {
        return;
    };
    let ingested: u64 = a.snapshot_deltas.iter().map(|d| d.1).sum();
    if ingested != paths {
        out.push(Diagnostic::new(
            "A310",
            Severity::Error,
            Location::Network,
            format!("delta rows account for {ingested} ingested paths but the oracle rebuilt from {paths}"),
            "count every path at the phase boundary that ingested it",
        ));
    }
    let last = a.snapshot_deltas.last().expect("checked non-empty above");
    if (last.2, last.3, last.4) != (nodes, links, addresses) {
        out.push(Diagnostic::new(
            "A310",
            Severity::Error,
            Location::Network,
            format!(
                "final snapshot counts ({}, {}, {}) disagree with the batch-rebuild \
                 oracle ({nodes} nodes, {links} links, {addresses} addresses)",
                last.2, last.3, last.4
            ),
            "the incremental builder must converge to the batch build over the same paths",
        ));
    }
    if a.snapshot_checksum != Some(checksum) {
        out.push(Diagnostic::new(
            "A310",
            Severity::Error,
            Location::Network,
            format!(
                "incremental snapshot checksum {:?} disagrees with the batch-rebuild oracle {checksum:#018x}",
                a.snapshot_checksum
            ),
            "ingest order must not matter; a checksum drift means canonicalization broke",
        ));
    }
}

/// A311: cross-process shard accounting for distributed runs. Every
/// phase must balance its ledger — `received + missing == dispatched`,
/// no duplicate shard files — and the probes summed over the received
/// shard files must equal the campaign total exactly (the master only
/// accumulates probes from shards it merged, so the identity holds even
/// when a worker was lost). A missing worker whose loss produced no
/// degraded-shard record in the same phase means the failure was
/// swallowed (warn).
pub fn distributed_accounting(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    let Some(d) = &a.dist else { return };
    let mut shard_probes = 0u64;
    for p in &d.phases {
        shard_probes += p.shard_probes;
        if p.received + p.missing.len() != p.dispatched {
            out.push(Diagnostic::new(
                "A311",
                Severity::Error,
                Location::Network,
                format!(
                    "{} phase dispatched {} workers but accounted {} received + {} missing",
                    p.phase,
                    p.dispatched,
                    p.received,
                    p.missing.len()
                ),
                "every spawned worker must end up in exactly one of the received/missing ledgers",
            ));
        }
        if !p.duplicates.is_empty() {
            out.push(Diagnostic::new(
                "A311",
                Severity::Error,
                Location::Network,
                format!(
                    "{} phase merged duplicate shard files from workers {:?}",
                    p.phase, p.duplicates
                ),
                "a shard file must be merged at most once; de-duplicate by worker index",
            ));
        }
        for &w in &p.missing {
            let degraded = a.degraded_shards.iter().any(|(_, phase)| phase == &p.phase);
            if !degraded {
                out.push(Diagnostic::new(
                    "A311",
                    Severity::Warn,
                    Location::Network,
                    format!(
                        "worker #{w} went missing in the {} phase without a degraded-shard record",
                        p.phase
                    ),
                    "a lost shard must degrade its vantage points, never vanish silently",
                ));
            }
        }
    }
    if !d.phases.is_empty() && shard_probes != a.probes {
        out.push(Diagnostic::new(
            "A311",
            Severity::Error,
            Location::Network,
            format!(
                "shard files account for {shard_probes} probes but the campaign total is {}",
                a.probes
            ),
            "the merged report must count exactly the probes the received shards sent",
        ));
    }
}

/// A312: distributed substrate-cache agreement. Master and workers must
/// resolve the same substrate; a worker reporting a different cache
/// config checksum simulated a *different internet* and its shard data
/// silently poisons the merge (error). Workers using a cache the master
/// did not is a provenance gap (warn).
pub fn distributed_cache_agreement(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    let Some(d) = &a.dist else { return };
    match d.master_cache {
        Some(master) => {
            for &(w, c) in &d.worker_cache {
                if c != master {
                    out.push(Diagnostic::new(
                        "A312",
                        Severity::Error,
                        Location::Network,
                        format!(
                            "worker #{w} resolved substrate cache checksum {c:#018x} \
                             but the master used {master:#018x}"
                        ),
                        "pass the master's cache path and checksum through the shard spec",
                    ));
                }
            }
        }
        None => {
            if !d.worker_cache.is_empty() {
                out.push(Diagnostic::new(
                    "A312",
                    Severity::Warn,
                    Location::Network,
                    format!(
                        "{} worker(s) resolved a substrate cache but the master built from scratch",
                        d.worker_cache.len()
                    ),
                    "cache on both sides or neither; mixed provenance defeats the checksum audit",
                ));
            }
        }
    }
}

/// A401: a trace spent more probes than the per-trace budget allows —
/// the budget enforcement is broken and a hostile path can starve the
/// campaign.
pub fn probe_budget_overrun(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    let Some(budget) = a.trace_budget else { return };
    for (i, &(probes, _)) in a.trace_probes.iter().enumerate() {
        if probes > budget {
            out.push(Diagnostic::new(
                "A401",
                Severity::Error,
                Location::Network,
                format!("trace #{i} spent {probes} probes against a budget of {budget}"),
                "check the budget gate in the traceroute attempt loop",
            ));
        }
    }
}

/// A402: revelation accounting that contradicts itself — a Partial
/// outcome with zero revealed hops (nothing to be partial about) or an
/// Abandoned one that still lists hops (they would silently vanish from
/// every downstream table).
pub fn partial_revelation_accounting(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for &(x, y, kind, hops) in &a.revelations {
        let broken = match kind {
            RevelationKind::Partial => hops == 0,
            RevelationKind::Abandoned => hops > 0,
            RevelationKind::Complete => false,
        };
        if broken {
            out.push(Diagnostic::new(
                "A402",
                Severity::Error,
                Location::Pair(x, y),
                format!("{kind:?} revelation with {hops} revealed hops"),
                "Partial requires ≥1 hop; Abandoned requires 0 — fix the outcome classification",
            ));
        }
    }
}

/// A403: degraded-shard consistency. A degradation record naming a
/// vantage point the campaign does not have is an error (the merge
/// mis-attributed a panic); any genuine degradation is surfaced as a
/// warning so reports over a chaos run are never silently clean.
pub fn degraded_shard_consistency(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    let n = a.probes_by_shard.len();
    for (vp, phase) in &a.degraded_shards {
        if n > 0 && *vp >= n {
            out.push(Diagnostic::new(
                "A403",
                Severity::Error,
                Location::Network,
                format!("degraded shard names vp #{vp} but only {n} shards exist"),
                "record degradations with the vantage-point index that panicked",
            ));
        } else {
            out.push(Diagnostic::new(
                "A403",
                Severity::Warn,
                Location::Network,
                format!("vantage-point shard #{vp} degraded during the {phase} phase"),
                "results are complete minus this shard's work; rerun to recover it",
            ));
        }
    }
}

/// Looks up the veracity tier the screen assigned to a revelation
/// pair. `None` when the pair was never screened.
fn tier_of(a: &CampaignAudit, x: Addr, y: Addr) -> Option<VeracityTier> {
    a.veracity
        .iter()
        .find(|&&(vx, vy, _)| (vx, vy) == (x, y))
        .map(|&(_, _, t)| t)
}

/// V601: a tunnel carrying an RTLA return-tunnel length whose egress
/// signature is not `<255, 64>`. RTLA is only defined for that vendor
/// class (§5.2) — an `rtl` recorded against any other signature means
/// the return-path measurement was attributed to the wrong router or
/// computed from a corrupted fingerprint.
pub fn rtla_assumption_violation(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for t in &a.tunnels {
        if t.rtl.is_none() {
            continue;
        }
        let sig = a
            .signatures
            .iter()
            .find(|&&(addr, ..)| addr == t.egress)
            .map(|&(_, te, er)| (te, er));
        let Some((Some(te), Some(er))) = sig else {
            continue;
        };
        if (te, er) != (255, 64) {
            out.push(Diagnostic::new(
                "V601",
                Severity::Error,
                Location::Pair(t.ingress, t.egress),
                format!(
                    "RTLA length {} recorded against an egress signature <{te}, {er}>",
                    t.rtl.expect("checked above")
                ),
                "RTLA requires the <255, 64> signature; gate the measurement on the fingerprint",
            ));
        }
    }
}

/// V602: a revelation whose re-traces carried positive loop/cycle
/// evidence (an address revisited, or a per-flow stability repeat that
/// diverged) yet was not graded Contradicted. Deterministic per-flow
/// forwarding never revisits a router, so such artifacts are proof of
/// a non-Paris load balancer forging the hop set — the screen must not
/// let the revelation stand.
pub fn loop_artifact_untiered(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    if a.veracity.is_empty() {
        return;
    }
    for &(x, y, revisits, _, mismatch) in &a.revelation_artifacts {
        if revisits == 0 && !mismatch {
            continue;
        }
        let tier = tier_of(a, x, y);
        if tier != Some(VeracityTier::Contradicted) {
            out.push(Diagnostic::new(
                "V602",
                Severity::Error,
                Location::Pair(x, y),
                format!(
                    "revelation with loop/cycle artifacts (revisits={revisits}, \
                     retrace_mismatch={mismatch}) graded {tier:?}, not Contradicted"
                ),
                "positive artifact evidence must contradict the revelation; check the screen order",
            ));
        }
    }
}

/// V603: a DPR (or hybrid) revelation graded Corroborated whose egress
/// never produced an echo reply. DPR hangs everything off the egress's
/// own answers — without an independent echo-reply fingerprint for
/// that router, the hop set cannot be called corroborated (an
/// egress-hiding AS would sail through).
pub fn unverifiable_dpr_egress(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for t in &a.tunnels {
        if !matches!(t.method, Some(MethodClaim::Dpr) | Some(MethodClaim::Hybrid)) {
            continue;
        }
        if tier_of(a, t.ingress, t.egress) != Some(VeracityTier::Corroborated) {
            continue;
        }
        let er_seen = a
            .signatures
            .iter()
            .any(|&(addr, _, er)| addr == t.egress && er.is_some());
        if !er_seen {
            out.push(Diagnostic::new(
                "V603",
                Severity::Error,
                Location::Pair(t.ingress, t.egress),
                "DPR revelation graded Corroborated but its egress has no echo-reply evidence"
                    .to_string(),
                "corroboration requires an echo-reply fingerprint from every participant",
            ));
        }
    }
}

/// V604: a revelation graded Corroborated whose re-traces contained
/// stars. Corroboration claims every cross-check came back positive —
/// a non-responsive hop in the revealing traces is missing evidence by
/// definition, so the grade is too strong.
pub fn star_burst_anomaly(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    for &(x, y, _, stars, _) in &a.revelation_artifacts {
        if stars == 0 {
            continue;
        }
        if tier_of(a, x, y) == Some(VeracityTier::Corroborated) {
            out.push(Diagnostic::new(
                "V604",
                Severity::Error,
                Location::Pair(x, y),
                format!("revelation graded Corroborated despite {stars} stars in its re-traces"),
                "downgrade to Unverified; silence is absence of evidence, not evidence",
            ));
        }
    }
}

/// V605: veracity-accounting conservation. When the campaign screened
/// at all, every revelation must carry exactly one tier and every tier
/// must name a revelation — a dropped or duplicated row means the
/// screening pass and the outcome table diverged.
pub fn veracity_conservation(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    if a.veracity.is_empty() {
        return;
    }
    let mut tiered: HashSet<(Addr, Addr)> = HashSet::new();
    for &(x, y, _) in &a.veracity {
        if !tiered.insert((x, y)) {
            out.push(Diagnostic::new(
                "V605",
                Severity::Error,
                Location::Pair(x, y),
                "revelation carries more than one veracity tier".to_string(),
                "screen each outcome exactly once, after the shard merge",
            ));
        }
    }
    let outcomes: HashSet<(Addr, Addr)> = a.revelations.iter().map(|&(x, y, ..)| (x, y)).collect();
    for &(x, y) in tiered.difference(&outcomes) {
        out.push(Diagnostic::new(
            "V605",
            Severity::Error,
            Location::Pair(x, y),
            "veracity tier names a revelation the campaign does not record".to_string(),
            "derive the tier table from the outcome map, nowhere else",
        ));
    }
    for &(x, y) in outcomes.difference(&tiered) {
        out.push(Diagnostic::new(
            "V605",
            Severity::Error,
            Location::Pair(x, y),
            "revelation left without a veracity tier".to_string(),
            "a screened campaign must grade every outcome, including abandoned ones",
        ));
    }
}

/// V606: a campaign that ran under a deceptive fault plan, produced
/// revelations, and never screened them. Unscreened results from an
/// adversarial run are exactly the artifact-laundering channel the
/// veracity tiers exist to close, so the omission is surfaced (warn —
/// the operator may have disabled screening deliberately).
pub fn unscreened_adversarial_run(a: &CampaignAudit, out: &mut Vec<Diagnostic>) {
    if a.deceptive_plan && !a.revelations.is_empty() && a.veracity.is_empty() {
        out.push(Diagnostic::new(
            "V606",
            Severity::Warn,
            Location::Network,
            format!(
                "deceptive fault plan produced {} unscreened revelations",
                a.revelations.len()
            ),
            "enable revelation screening for adversarial scenarios (screen_revelations)",
        ));
    }
}

/// Runs every audit rule.
pub fn audit(net: &Network, a: &CampaignAudit) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    signature_taxonomy(a, &mut out);
    rtla_gap_mismatch(a, &mut out);
    duplicate_revealed_hop(a, &mut out);
    foreign_as_hop(net, a, &mut out);
    dangling_trace_index(a, &mut out);
    probe_accounting(a, &mut out);
    shard_accounting(a, &mut out);
    method_claim_consistency(a, &mut out);
    incremental_aggregation(a, &mut out);
    distributed_accounting(a, &mut out);
    distributed_cache_agreement(a, &mut out);
    probe_budget_overrun(a, &mut out);
    partial_revelation_accounting(a, &mut out);
    degraded_shard_consistency(a, &mut out);
    rtla_assumption_violation(a, &mut out);
    loop_artifact_untiered(a, &mut out);
    unverifiable_dpr_egress(a, &mut out);
    star_burst_anomaly(a, &mut out);
    veracity_conservation(a, &mut out);
    unscreened_adversarial_run(a, &mut out);
    out
}
