//! The central rule registry: one [`RuleInfo`] record per stable rule
//! code, carrying the rule's family, default severity, a one-line
//! summary, and a one-paragraph explanation.
//!
//! The registry is the single source of truth for rule metadata: the
//! `wormhole-lint` binary serves `--explain <RULE>` and `--rules` from
//! it, severity overrides validate against it, the DESIGN.md rule table
//! is generated from [`markdown_table`] (pinned byte-exact by a test),
//! and [`Diagnostic::new`](crate::Diagnostic::new) debug-asserts that
//! every emitted code is registered.

use crate::diag::Severity;

/// The rule families, in documentation order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// `W1xx` — topology and MPLS-configuration rules over a network.
    Network,
    /// `X2xx` — cross-layer rules over scenarios, personas, Internets.
    Cross,
    /// `A3xx` — result audits over campaign outputs.
    Audit,
    /// `A4xx` — robustness audits over the same campaign snapshot.
    Robustness,
    /// `D5xx` — dense-plane verification: flat control-plane tables
    /// cross-checked against the logical model and against themselves.
    Dense,
    /// `V6xx` — revelation-veracity audits: the evidence screens that
    /// grade each revealed tunnel Corroborated/Unverified/Contradicted,
    /// cross-checked for internal consistency.
    Veracity,
}

impl Family {
    /// Every family, in documentation order.
    pub const ALL: [Family; 6] = [
        Family::Network,
        Family::Cross,
        Family::Audit,
        Family::Robustness,
        Family::Dense,
        Family::Veracity,
    ];

    /// The family's display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Network => "network",
            Family::Cross => "cross",
            Family::Audit => "audit",
            Family::Robustness => "robustness",
            Family::Dense => "dense",
            Family::Veracity => "veracity",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Metadata of one lint rule.
#[derive(Copy, Clone, Debug)]
pub struct RuleInfo {
    /// Stable rule code (`W101`, `D507`, …).
    pub code: &'static str,
    /// The family the code belongs to.
    pub family: Family,
    /// Default severity (overridable per run via `LintConfig`). Rules
    /// that emit at two levels (A307, A403) register the worse one.
    pub severity: Severity,
    /// One-line summary, used in the generated rule table.
    pub summary: &'static str,
    /// One-paragraph explanation, served by `--explain <RULE>`.
    pub explanation: &'static str,
}

/// Every registered rule, grouped by family, sorted by code within.
pub static RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "W101",
        family: Family::Network,
        severity: Severity::Error,
        summary: "a host (CE / vantage point) runs MPLS",
        explanation: "Hosts model customer equipment and vantage points; the paper's \
                      measurement methodology assumes probes enter the network unlabeled. A \
                      host with an MPLS-enabled config would push labels the rest of the \
                      toolchain never expects, so the simulator refuses to start.",
    },
    RuleInfo {
        code: "W102",
        family: Family::Network,
        severity: Severity::Warn,
        summary: "router with no interfaces (unreachable, skews degree stats)",
        explanation: "An interface-less router can never forward or answer a probe, yet it \
                      still counts towards AS membership and degree statistics, silently \
                      skewing campaign-level numbers.",
    },
    RuleInfo {
        code: "W105",
        family: Family::Network,
        severity: Severity::Warn,
        summary: "adjacent MPLS routers disagree on LDP advertising policy",
        explanation: "A Cisco-style all-prefix advertiser next to a Juniper-style \
                      loopback-only advertiser yields asymmetric LSPs — legitimate in the \
                      wild (the paper's §2 mixed-vendor cores) but worth flagging because it \
                      changes which tunnels are invisible.",
    },
    RuleInfo {
        code: "W106",
        family: Family::Network,
        severity: Severity::Warn,
        summary: "an AS's LERs disagree on ttl-propagate",
        explanation: "Mixed ttl-propagate among the label-edge routers of one AS makes \
                      tunnel visibility depend on the entry point, which is exactly the \
                      behavior the paper's classification keys on — legal, but the operator \
                      probably intended uniformity.",
    },
    RuleInfo {
        code: "W107",
        family: Family::Network,
        severity: Severity::Error,
        summary: "RSVP-TE endpoint is not an LER of its AS",
        explanation: "TE tunnels must start and end on label-edge routers of the AS they \
                      traverse; an endpoint deeper in the core could never receive unlabeled \
                      traffic to steer, so the declared tunnel would be dead configuration.",
    },
    RuleInfo {
        code: "W110",
        family: Family::Network,
        severity: Severity::Info,
        summary: "an AS mixes PHP and UHP popping modes",
        explanation: "Mixing penultimate- and ultimate-hop popping within one AS is valid \
                      and occurs in the wild; it is surfaced as information because it makes \
                      the AS's tunnels straddle two rows of the paper's Table 1 taxonomy.",
    },
    RuleInfo {
        code: "X201",
        family: Family::Cross,
        severity: Severity::Error,
        summary: "scenario vantage point is not a host",
        explanation: "The measurement session binds to the scenario's vantage point and \
                      expects host semantics (no forwarding, no MPLS); a router VP would \
                      answer its own probes and corrupt every trace.",
    },
    RuleInfo {
        code: "X202",
        family: Family::Cross,
        severity: Severity::Error,
        summary: "scenario target unreachable from the VP (ground-truth path)",
        explanation: "A scenario whose target the vantage point cannot reach on the ground \
                      truth path yields campaigns of pure timeouts; the scenario definition \
                      is broken, not the network.",
    },
    RuleInfo {
        code: "X203",
        family: Family::Cross,
        severity: Severity::Error,
        summary: "persona vendor mix empty or with invalid weights",
        explanation: "Internet generation samples router vendors from the persona's weighted \
                      mix; an empty mix or non-finite/non-positive weights make the sampler \
                      ill-defined.",
    },
    RuleInfo {
        code: "X204",
        family: Family::Cross,
        severity: Severity::Error,
        summary: "persona topology with zero PoPs or zero edges per PoP",
        explanation: "A persona that declares an empty point-of-presence structure cannot \
                      generate a connected AS, which ControlPlane::build would then reject \
                      after the fact; this rule catches the cause at the persona layer.",
    },
    RuleInfo {
        code: "X206",
        family: Family::Cross,
        severity: Severity::Error,
        summary: "persona member count differs from its topology spec",
        explanation: "The persona's declared member count must equal what its PoP structure \
                      implies; a mismatch means generated ASes silently differ from the \
                      documented persona.",
    },
    RuleInfo {
        code: "A301",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "fingerprint signature outside the Table 1 taxonomy",
        explanation: "Every fingerprinted hop must land in one of the paper's Table 1 \
                      signature classes; an unknown signature means the classifier and the \
                      emulation disagree about what the data plane can emit.",
    },
    RuleInfo {
        code: "A302",
        family: Family::Audit,
        severity: Severity::Warn,
        summary: "RTLA return-tunnel length far from revealed length + 1",
        explanation: "For RTLA-triggered revelations the return-TTL gap should approximate \
                      the revealed LSP length plus one; a large deviation hints at either a \
                      mis-triggered revelation or asymmetric return paths worth inspecting.",
    },
    RuleInfo {
        code: "A303",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "a revealed tunnel repeats a hop (or one of its endpoints)",
        explanation: "A revealed LSP visiting the same address twice (or listing its own \
                      ingress/egress as an interior hop) is topologically impossible under \
                      the simulator's loop-free forwarding — the revelation stitched \
                      unrelated segments together.",
    },
    RuleInfo {
        code: "A304",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "revealed hop owned by a foreign AS",
        explanation: "LDP LSPs are intra-AS; a revealed interior hop owned by a different AS \
                      than the tunnel's endpoints means the revelation crossed an AS \
                      boundary that real MPLS tunnels cannot cross.",
    },
    RuleInfo {
        code: "A305",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "candidate pair references an out-of-bounds trace index",
        explanation: "Candidate ingress/egress pairs carry the index of the trace that \
                      produced them; a dangling index means the campaign merge lost or \
                      reordered traces after pair extraction.",
    },
    RuleInfo {
        code: "A306",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "probe counter lower than the number of traces",
        explanation: "Every trace costs at least one probe, so a campaign-level probe \
                      counter below the trace count proves the accounting dropped probes \
                      somewhere between workers and the merged result.",
    },
    RuleInfo {
        code: "A307",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "per-shard probe counters don't sum to the total / an idle shard",
        explanation: "The per-vantage-point shard counters must sum exactly to the \
                      campaign's probe total (error when they do not); a shard that sent \
                      zero probes is additionally flagged at warn level because an idle \
                      vantage point usually means its task queue was never filled.",
    },
    RuleInfo {
        code: "A308",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "method claim contradicts the tunnel's own step transcript",
        explanation: "The Table 3 method bucket (DPR/BRPR/mixed) must be derivable from the \
                      revelation step transcript, and the transcript's step sizes must sum \
                      to the hop count; otherwise the per-method statistics misreport what \
                      the campaign actually did.",
    },
    RuleInfo {
        code: "A310",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "incremental-aggregation accounting broken",
        explanation: "The campaign's incremental snapshot builder only ever adds to the \
                      router-level graph, so its per-phase delta rows must conserve: \
                      cumulative node/link/address counts never shrink between phases, the \
                      probe phase ingests exactly the kept traces, and — when the campaign \
                      retained its bootstrap paths — the final counts and order-independent \
                      checksum must match a batch rebuild over the same IP paths exactly.",
    },
    RuleInfo {
        code: "A311",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "distributed shard ledger out of balance",
        explanation: "A distributed campaign partitions each probing phase across worker \
                      processes and merges their shard files. The ledger must balance: \
                      received + missing == dispatched, no duplicate shard merges, and the \
                      probes summed over received shard files equal the campaign total \
                      exactly. A missing worker that produced no degraded-shard record in \
                      the same phase was swallowed silently (warn).",
    },
    RuleInfo {
        code: "A312",
        family: Family::Audit,
        severity: Severity::Error,
        summary: "distributed substrate-cache checksum disagreement",
        explanation: "Master and workers must resolve the same simulated internet. A worker \
                      reporting a different substrate-cache config checksum rebuilt a \
                      different topology, so its shard silently poisons the merge; workers \
                      caching while the master built from scratch is a provenance gap \
                      (warn).",
    },
    RuleInfo {
        code: "A401",
        family: Family::Robustness,
        severity: Severity::Error,
        summary: "a trace overran the per-trace probe budget",
        explanation: "The adaptive retry layer enforces a per-trace probe ceiling so a \
                      hostile or rate-limited path cannot starve the campaign; a trace \
                      exceeding it proves the budget gate is broken.",
    },
    RuleInfo {
        code: "A402",
        family: Family::Robustness,
        severity: Severity::Error,
        summary: "partial/abandoned revelation accounting contradicts itself",
        explanation: "A Partial revelation with zero revealed hops has nothing to be \
                      partial about, and an Abandoned one that still lists hops would leak \
                      them out of every downstream table; either way the outcome \
                      classification is wrong.",
    },
    RuleInfo {
        code: "A403",
        family: Family::Robustness,
        severity: Severity::Error,
        summary: "degraded-shard record inconsistent (or a genuine degradation)",
        explanation: "A degradation record naming a vantage point the campaign does not \
                      have is an error (the merge mis-attributed a worker panic); any \
                      genuine degradation is surfaced at warn level so chaos-run reports \
                      are never silently clean.",
    },
    RuleInfo {
        code: "D501",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "te_heads/te_routes CSR malformed",
        explanation: "The TE autoroute table is a CSR grouped by head router: offsets must \
                      start at 0, rise monotonically, end at the pool length, and each \
                      group's tails must be strictly sorted (te_route binary-searches \
                      them). Any violation makes autoroute lookups read the wrong head's \
                      routes — or out of bounds.",
    },
    RuleInfo {
        code: "D502",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "dense TE autoroute disagrees with the logical TE program",
        explanation: "Re-deriving every tunnel's autoroute decision from the declared TE \
                      tunnels (te_program) must reproduce the flattened table exactly: same \
                      (head, tail) pairs, same out interface, first hop, and pushed label. \
                      A disagreement means the CSR flattening dropped, duplicated, or \
                      rewrote a tunnel head's steering decision.",
    },
    RuleInfo {
        code: "D503",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "LDP tables malformed",
        explanation: "LDP labels are computed from small tables, never stored. The per-AS \
                      /32 numbers must be a CSR with exactly one entry per slot of each AS \
                      table, the per-AS /32 slots a CSR over the ASes, and the own-position \
                      rows a CSR over the routers, each row strictly increasing below the \
                      number of slots its router counts. A skewed offset makes every label \
                      of an AS or a router come from a neighbor's entries — the hot-path \
                      advertised() has no bounds to catch it.",
    },
    RuleInfo {
        code: "D504",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "LDP tables disagree with a recount from the AS tables",
        explanation: "Each AS's /32 numbers and /32 slots must number its /32 slots in slot \
                      order, and each router that runs LDP must list exactly the positions \
                      of the counted slots of its AS table that name it as an owner (one that \
                      runs none, nothing). Every label is a closed form over these tables, \
                      so a wrong number or own position shifts or flips labels: LSPs \
                      through the router swap to labels nobody computes.",
    },
    RuleInfo {
        code: "D505",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "IGP distance matrix malformed or not the shortest-path fixed point",
        explanation: "Each AS's row-major distance matrix must hold n² entries with a zero \
                      diagonal, and every off-diagonal cell must be the Bellman fixed point \
                      over the source's intra-AS links: a finite dist(s, d) equals the minimum \
                      of edge_metric(s, iface) + dist(peer, d) over the neighbors that reach \
                      d, and dist(s, d) is INF exactly when no neighbor does. The FIB's ECMP \
                      first hops are derived from these distances, so this is what makes them \
                      shortest.",
    },
    RuleInfo {
        code: "D506",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "explicit LFIB row shape broken",
        explanation: "Only explicit entries (RSVP-TE transit, what-if injections) are \
                      stored, one label-sorted row per router that lookups binary-search. \
                      Row offsets that are not a CSR over the entries, a duplicated or \
                      unsorted label (one entry shadowing another), a FEC past the router's \
                      AS table, branch runs that do not tile the branch pool, or a branch \
                      that does not leave over one of the row's router's links towards its \
                      peer make lookups return another router's or another label's entry.",
    },
    RuleInfo {
        code: "D507",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "installed LFIB disagrees with the logical LDP/TE program",
        explanation: "Per router, the explicit LFIB row must hold the RSVP-TE transit \
                      program's entries, branch for branch. Any other explicit entry must \
                      override an LDP label whose FEC is routed with exactly the branches LDP \
                      computes for it (the hops of the slot's logical next-hop mask and \
                      each next router's advertisement). Extra entries are stale or \
                      unreachable (nothing can ever address them correctly); missing or \
                      differing entries break LSPs mid-path. A network whose TE program no \
                      longer derives (the plane was built from another network) is reported \
                      with the build error.",
    },
    RuleInfo {
        code: "D508",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "FIB next-hop groups malformed or dense entry disagrees with the logical FIB",
        explanation: "The FIB stores each router's distinct ECMP next-hop sets once, as \
                      groups tiling a shared pool, and one group number per slot of the \
                      router's AS table. Every router must own exactly one cell per slot, \
                      each naming one of its own groups, numbered by first appearance in \
                      slot order with none orphaned, and each slot's next-hop set read \
                      through its group must equal the logical FIB re-derived from IGP \
                      distances and prefix owners, a next-hop mask over the router's \
                      adjacencies. A truncated group or a mis-numbered cell silently drops \
                      or swaps ECMP branches for every FEC sharing it. A router with more \
                      intra-AS adjacencies than a 64-bit mask names has no logical row and \
                      is reported.",
    },
    RuleInfo {
        code: "D509",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "AS slot table malformed: owner CSR broken or a prefix in two slots",
        explanation: "Each AS table numbers its prefixes into FEC slots as it is built, and \
                      keeps each slot's owners as one CSR: the offsets must be one per slot \
                      plus one, start at zero, never decrease and close the owner pool, and \
                      no prefix may hold two slots. A broken offset hands a slot its \
                      neighbour's owners; a repeated prefix splits one destination across \
                      two FECs. The oracles read owners through this table, so the LDP, \
                      LFIB and FIB content checks run only when it holds.",
    },
    RuleInfo {
        code: "D510",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "destination-resolution table names the wrong slot",
        explanation: "The build-time loopback_slot/iface_slot tables keep the slot the AS \
                      table numbered for each address a router holds, so the packet walk \
                      never resolves one at run time; each memoized slot must hold the \
                      router's loopback /32 or that interface's prefix and list the router \
                      among its owners, and router_as_idx must equal the network's dense AS \
                      index. A mis-slotted entry steers every packet for that destination \
                      to the wrong FEC; a slot that does not list its holder makes the FIB \
                      route the address elsewhere.",
    },
    RuleInfo {
        code: "D512",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "dense owner index malformed or disagrees with router addresses",
        explanation: "The network's three-level address-to-owner index (/8 directory page, \
                      /20 block run, pool entry) is the one map Network::owner reads: the \
                      engine's DstCache resolves destinations through it on the hot path, \
                      and alias resolution and every ground-truth check read it too. \
                      Directory pages must be aligned, in bounds, distinct and each owned by \
                      a /8, the block runs must tile the pool in directory order, and the \
                      mapping must agree with the routers in both directions: every held \
                      address resolves to its holder and every populated entry names a \
                      holder.",
    },
    RuleInfo {
        code: "D513",
        family: Family::Dense,
        severity: Severity::Error,
        summary: "external-route class table malformed or disagrees with the hot-potato oracle",
        explanation: "External routes are stored per source AS as classes: one packed \
                      route word per member, numbered by first destination AS, and one \
                      class number per (source AS, destination AS). The class blocks must \
                      tile the word pool member-wide in AS order, every router's local \
                      index must be its position among its AS's members, every class \
                      number must lie below its AS's class count with none orphaned, every \
                      word must unpack, a Direct interface must be an inter-AS interface of \
                      its member, and a ViaEgress egress a member of the same AS. Each \
                      stored class must then equal the hot-potato choice the build's own \
                      per-AS oracle recomputes for the destination's candidate borders. A \
                      network whose AS-level routes no longer derive (the plane was built \
                      from another network) is reported with the build error.",
    },
    RuleInfo {
        code: "V601",
        family: Family::Veracity,
        severity: Severity::Error,
        summary: "RTLA length recorded against a non-<255, 64> egress signature",
        explanation: "RTLA is only defined for the <255, 64> vendor class (§5.2): the \
                      return-tunnel length is the gap between a 255-initial time-exceeded \
                      and a 64-initial echo reply. A tunnel carrying an rtl whose egress \
                      fingerprint completes to any other pair means the measurement was \
                      attributed to the wrong router or the fingerprint is corrupt — \
                      either way the recorded length is meaningless.",
    },
    RuleInfo {
        code: "V602",
        family: Family::Veracity,
        severity: Severity::Error,
        summary: "loop/cycle artifact evidence without a Contradicted grade",
        explanation: "Deterministic per-flow forwarding never revisits a router, so a \
                      re-trace that repeats an address — or a per-flow stability repeat \
                      that diverges — is positive proof of a non-Paris load balancer \
                      forging the hop set. A screened campaign must grade such a \
                      revelation Contradicted; anything weaker lets the artifact stand \
                      in downstream tables.",
    },
    RuleInfo {
        code: "V603",
        family: Family::Veracity,
        severity: Severity::Error,
        summary: "Corroborated DPR revelation whose egress has no echo-reply evidence",
        explanation: "DPR hangs its entire recursion off the egress router's answers, so \
                      corroborating a DPR (or hybrid) revelation requires an independent \
                      echo-reply fingerprint from that egress. Granting the top tier \
                      without one would let an egress-hiding AS launder unverifiable hop \
                      sets into the corroborated bucket.",
    },
    RuleInfo {
        code: "V604",
        family: Family::Veracity,
        severity: Severity::Error,
        summary: "Corroborated revelation despite stars in its re-traces",
        explanation: "Corroboration claims every cross-check came back positive. A \
                      non-responsive hop in the revealing traces is evidence that never \
                      arrived — the tier must stay Unverified, because silence is \
                      absence of evidence, not evidence.",
    },
    RuleInfo {
        code: "V605",
        family: Family::Veracity,
        severity: Severity::Error,
        summary: "veracity tiers and revelation outcomes don't conserve",
        explanation: "When the campaign screened at all, the tier table and the outcome \
                      map must be the same set of (ingress, egress) pairs, with exactly \
                      one tier per pair. A dropped, duplicated, or dangling row means \
                      the screening pass and the merge diverged — some revelation's \
                      grade is silently missing or misattributed.",
    },
    RuleInfo {
        code: "V606",
        family: Family::Veracity,
        severity: Severity::Warn,
        summary: "deceptive fault plan with unscreened revelations",
        explanation: "A campaign that ran under a deceptive fault plan (TTL spoofing, \
                      non-Paris load balancing, egress hiding) and produced revelations \
                      without screening them is exactly the artifact-laundering channel \
                      the veracity tiers exist to close. Warn rather than error: the \
                      operator may have disabled screening deliberately to measure the \
                      unscreened baseline.",
    },
];

/// Looks up a rule by its code.
pub fn rule(code: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.code == code)
}

/// Sort rank of a code for stable output ordering: family documentation
/// order, then code; unregistered codes sort last.
pub fn family_rank(code: &str) -> usize {
    rule(code).map_or(usize::MAX, |r| r.family as usize)
}

/// Renders the full rule table as GitHub-flavored markdown — the
/// generator for the DESIGN.md rule table (pinned byte-exact by
/// `tests/rule_table.rs`).
pub fn markdown_table() -> String {
    let mut out = String::from("| code | family | default | finding |\n|---|---|---|---|\n");
    for r in RULES {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            r.code, r.family, r.severity, r.summary
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_unique_sorted_within_family_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for r in RULES {
            assert!(seen.insert(r.code), "duplicate code {}", r.code);
            assert!(!r.summary.is_empty() && !r.explanation.is_empty());
            let prefix = match r.family {
                Family::Network => "W1",
                Family::Cross => "X2",
                Family::Audit => "A3",
                Family::Robustness => "A4",
                Family::Dense => "D5",
                Family::Veracity => "V6",
            };
            assert!(r.code.starts_with(prefix), "{} in {}", r.code, r.family);
        }
        let ranks: Vec<(usize, &str)> = RULES.iter().map(|r| (r.family as usize, r.code)).collect();
        let mut sorted = ranks.clone();
        sorted.sort();
        assert_eq!(ranks, sorted, "registry must be family- then code-sorted");
    }

    #[test]
    fn lookup_and_table() {
        assert_eq!(rule("D507").unwrap().severity, Severity::Error);
        assert!(rule("Z999").is_none());
        assert!(family_rank("W101") < family_rank("D501"));
        let t = markdown_table();
        assert!(t.contains("| D512 | dense | error |"));
        assert_eq!(t.lines().count(), 2 + RULES.len());
    }
}
