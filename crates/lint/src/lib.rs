//! `wormhole-lint`: static invariant analysis for the wormhole
//! workspace.
//!
//! Six rule families, each with stable codes registered in
//! [`registry`] (per-rule metadata: family, default severity, summary,
//! explanation):
//!
//! * **`W1xx`** ([`network`]) — topology and MPLS-configuration rules
//!   over a built [`Network`]: MPLS on hosts, unlinked routers,
//!   asymmetric LDP sessions, `ttl-propagate` mismatches between LERs,
//!   TE tunnels ending off the LER edge, mixed popping modes;
//! * **`X2xx`** ([`cross`]) — cross-layer rules validating
//!   `wormhole-topo` scenarios, personas and generated Internets
//!   against the net layer (vantage points that are not hosts,
//!   unreachable targets, unusable personas, personas referencing
//!   missing routers);
//! * **`A3xx`** ([`audit`](mod@audit)) — result audits over campaign
//!   outputs (signatures outside the Table 1 taxonomy, revealed LSP
//!   length vs RTLA gap, duplicate or foreign-AS revealed hops, dangling
//!   trace indices, impossible probe accounting, method claims
//!   contradicting their step transcripts);
//! * **`A4xx`** ([`audit`](mod@audit)) — robustness audits over the same
//!   snapshot (per-trace probe-budget overruns, partial/abandoned
//!   revelation accounting, degraded-shard consistency);
//! * **`D5xx`** ([`dense`]) — dense-plane verification: the flattened
//!   control-plane tables the hot path runs on (CSR offset tables,
//!   LFIB label rows, destination-resolution memos) and the network's
//!   address→owner index, cross-checked against the logical model they
//!   encode and against themselves;
//! * **`V6xx`** ([`audit`](mod@audit)) — revelation-veracity audits over
//!   the campaign's evidence screens (RTLA lengths against non-`<255, 64>`
//!   signatures, loop/cycle artifacts that escaped a Contradicted
//!   grade, corroboration without echo-reply evidence, tier/outcome
//!   conservation, unscreened adversarial runs).
//!
//! All findings normalize to a stable order — *(family, code, location,
//! message)*, duplicates dropped — so lint summaries are byte-identical
//! regardless of build parallelism; [`to_json`] renders them machine-
//! readably, and [`config::LintConfig`] layers per-run severity
//! overrides and deny levels on top.
//!
//! The contract is *lint before simulate*: under `debug_assertions`,
//! probing sessions and campaigns refuse to start on a network with
//! `Error`-level diagnostics (see [`deny_errors`]). `Warn` and `Info`
//! findings never block — the paper's Internet is full of legitimately
//! "warned" deployments (partial `ttl-propagate`, mixed-vendor LDP).
//!
//! ```
//! use wormhole_lint as lint;
//! use wormhole_topo::{gns3_fig2, Fig2Config};
//!
//! let s = gns3_fig2(Fig2Config::BackwardRecursive);
//! let diags = lint::check_scenario(&s);
//! assert!(!lint::has_errors(&diags), "{}", lint::render(&diags));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod config;
pub mod cross;
pub mod dense;
pub mod diag;
pub mod network;
pub mod registry;

pub use audit::{
    audit, method_from_steps, CampaignAudit, DistAudit, DistPhaseAudit, MethodClaim,
    RevelationKind, TunnelAudit, VeracityTier, RTLA_GAP_TOLERANCE, SIGNATURE_TAXONOMY,
};
pub use config::{parse_severity, LintConfig};
pub use cross::{check_internet, check_persona, check_scenario};
pub use dense::verify_dense;
pub use diag::{count, has_errors, normalize, render, to_json, Diagnostic, Location, Severity};
pub use registry::{markdown_table, rule, Family, RuleInfo, RULES};

use wormhole_net::{ControlPlane, Network};

/// Lints a network, its control plane, *and* the dense tables the hot
/// path runs on: every `W1xx` rule plus the `D5xx` dense-plane
/// verifier. This is the lint-before-simulate gate `Session` and
/// `Campaign` run — a drift between the flat tables and the logical
/// model would silently corrupt every walk.
pub fn check_plane(net: &Network, cp: &ControlPlane) -> Vec<Diagnostic> {
    let mut out = network::check(net);
    out.extend(dense::verify_dense(net, cp));
    normalize(&mut out);
    out
}

/// Panics with a rendered report when `diags` carries `Error`-level
/// findings — the lint-before-simulate guard used by `Session` and
/// `Campaign` under `debug_assertions`.
///
/// # Panics
/// Panics when [`has_errors`] holds, printing every diagnostic.
pub fn deny_errors(what: &str, diags: &[Diagnostic]) {
    if has_errors(diags) {
        panic!(
            "{what} refused to start: the network fails static analysis\n{}",
            render(diags)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topo::{gns3_fig2, Fig2Config};

    #[test]
    fn clean_scenario_has_no_errors() {
        let s = gns3_fig2(Fig2Config::Default);
        let diags = check_plane(&s.net, &s.cp);
        assert!(!has_errors(&diags), "{}", render(&diags));
        deny_errors("test", &diags); // must not panic
    }

    #[test]
    #[should_panic(expected = "refused to start")]
    fn deny_errors_panics_on_error_diagnostics() {
        let d = Diagnostic::new(
            "W101",
            Severity::Error,
            Location::Network,
            "synthetic",
            "none",
        );
        deny_errors("test", &[d]);
    }
}
