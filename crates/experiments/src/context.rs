//! Shared experiment context: one generated Internet plus one campaign
//! run, reused by every campaign-driven experiment.

use crate::util::Report;
use wormhole_core::{
    audit_campaign, Campaign, CampaignConfig, CampaignResult, Scheduling, WorkerSubstrate,
};
use wormhole_lint::Severity;
use wormhole_net::{Asn, FaultScenario};
use wormhole_probe::{NullSink, TraceSink};
use wormhole_topo::{config_checksum, generate, generate_cached, Internet, InternetConfig};

/// How big an Internet to run against.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Three personas, few stubs — for tests and quick iterations.
    Quick,
    /// All ten paper personas with the default stub/vantage-point
    /// population — what the experiment binaries use.
    Paper,
    /// One hundred transit ASes: the paper personas plus ninety drawn
    /// from the operator survey ([`InternetConfig::tenfold`]) — the
    /// scale target for the sharded campaign executor.
    Tenfold,
    /// One thousand transit ASes over the extended address plan
    /// ([`InternetConfig::thousandfold`]) — the scale target for the
    /// dense control-plane tables and the work-stealing executor.
    ThousandFold,
}

impl Scale {
    /// Reads `WORMHOLE_SCALE=quick|paper|tenfold|thousandfold`, in any
    /// case (default `paper`). Unknown names abort loudly — listing the
    /// valid scales — rather than silently running paper scale.
    pub fn from_env() -> Scale {
        match std::env::var("WORMHOLE_SCALE") {
            Ok(name) => Scale::parse(&name.to_ascii_lowercase()).unwrap_or_else(|| {
                panic!(
                    "WORMHOLE_SCALE={name}: unknown scale \
                     (expected quick, paper, tenfold, thousandfold)"
                )
            }),
            Err(_) => Scale::Paper,
        }
    }

    /// The canonical lowercase name — the inverse of [`Scale::parse`];
    /// distributed shard specs carry it in the substrate token.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
            Scale::Tenfold => "tenfold",
            Scale::ThousandFold => "thousandfold",
        }
    }

    /// Parses a canonical scale name (see [`Scale::name`]).
    pub fn parse(name: &str) -> Option<Scale> {
        Some(match name {
            "quick" => Scale::Quick,
            "paper" => Scale::Paper,
            "tenfold" => Scale::Tenfold,
            "thousandfold" => Scale::ThousandFold,
            _ => return None,
        })
    }
}

/// Reads `WORMHOLE_JOBS` (default `1`; `0` = available parallelism).
/// The campaign result is byte-identical at every setting — this knob
/// only trades wall-clock time.
pub fn jobs_from_env() -> usize {
    std::env::var("WORMHOLE_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Reads `WORMHOLE_FAULTS` (default `clean`), accepting any
/// [`FaultScenario::ALL`] name. Unknown names abort loudly — listing
/// the valid scenarios — rather than silently running a clean campaign
/// that claims to be a chaos run.
pub fn faults_from_env() -> FaultScenario {
    match std::env::var("WORMHOLE_FAULTS") {
        Ok(name) => FaultScenario::parse(&name).unwrap_or_else(|| {
            let names: Vec<&str> = FaultScenario::ALL.iter().map(|s| s.name()).collect();
            panic!(
                "WORMHOLE_FAULTS={name}: unknown fault scenario (expected one of: {})",
                names.join(", ")
            )
        }),
        Err(_) => FaultScenario::Clean,
    }
}

/// The generator parameters for a scale/seed pair — the one mapping a
/// distributed master and its workers both resolve substrates (and
/// substrate-cache checksums) through.
pub fn internet_config_for(scale: Scale, seed: u64) -> InternetConfig {
    match scale {
        Scale::Quick => InternetConfig::small(seed),
        Scale::Paper => InternetConfig {
            seed,
            ..InternetConfig::default()
        },
        Scale::Tenfold => InternetConfig::tenfold(seed),
        Scale::ThousandFold => InternetConfig::thousandfold(seed),
    }
}

/// Resolves a distributed worker's `<scale>:<seed>` substrate token
/// back to the Internet the master dispatched over — through the
/// shared on-disk cache when the shard spec carries one. Both
/// `wormhole-cli campaign-worker` and the bench harness's self-worker
/// mode route through this one function, so master and workers can
/// never drift on what a token means.
pub fn resolve_worker_substrate(
    token: &str,
    cache: Option<(&std::path::Path, u64)>,
) -> Result<WorkerSubstrate, String> {
    let (scale_name, seed) = token.split_once(':').ok_or_else(|| {
        format!("substrate token '{token}' (expected '<scale>:<seed>', e.g. 'tenfold:8')")
    })?;
    let scale = Scale::parse(scale_name).ok_or_else(|| {
        format!(
            "unknown scale '{scale_name}' in substrate token \
             (expected quick, paper, tenfold, thousandfold)"
        )
    })?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("bad seed '{seed}' in substrate token '{token}'"))?;
    let net_cfg = internet_config_for(scale, seed);
    match cache {
        Some((path, _expected)) => {
            // Resolve through the shared cache directory; the computed
            // checksum goes back in the shard file, where the A312
            // audit compares it against the master's.
            let dir = path
                .parent()
                .ok_or_else(|| format!("cache path {} has no directory", path.display()))?;
            let (internet, _status) = generate_cached(&net_cfg, dir)
                .map_err(|e| format!("substrate cache {}: {e}", path.display()))?;
            Ok(WorkerSubstrate {
                net: internet.net,
                cp: internet.cp,
                vps: internet.vps,
                cache_checksum: Some(config_checksum(&net_cfg)),
            })
        }
        None => {
            // The master linted this exact substrate before
            // dispatching; regenerating it is deterministic.
            let internet = generate(&net_cfg);
            Ok(WorkerSubstrate {
                net: internet.net,
                cp: internet.cp,
                vps: internet.vps,
                cache_checksum: None,
            })
        }
    }
}

/// Generates (and statically checks) the Internet for a scale/seed
/// pair. This is the expensive half of [`PaperContext::generate_full`],
/// split out so long-lived processes (`wormhole-serve`) can build the
/// substrate once and run many campaigns over it.
///
/// # Panics
/// Panics when the generated Internet fails static analysis — a broken
/// substrate would waste every campaign run over it.
pub fn internet_for(scale: Scale, seed: u64) -> Internet {
    let internet = generate(&internet_config_for(scale, seed));
    // Lint before simulate: a generated Internet that fails static
    // analysis would waste an entire campaign on a broken substrate.
    let diags = wormhole_lint::check_internet(&internet);
    wormhole_lint::deny_errors("internet_for", &diags);
    internet
}

/// The campaign configuration every experiment (and `wormhole-serve`)
/// runs at a given scale: the quick scale lowers the HDN threshold so
/// the small Internet still yields candidates; everything else follows
/// the paper's §4 parameters.
pub fn campaign_config(scale: Scale, jobs: usize, scenario: FaultScenario) -> CampaignConfig {
    CampaignConfig {
        hdn_threshold: match scale {
            Scale::Quick => 6,
            Scale::Paper | Scale::Tenfold | Scale::ThousandFold => 9,
        },
        jobs,
        faults: scenario.plan(),
        ..CampaignConfig::default()
    }
}

/// [`campaign_config`] under its old four-argument signature, kept only
/// because the benchmark package (`perfbench/`) still calls it; the
/// [`Scheduling`] value is ignored. The unblocking benchmark change in
/// ROADMAP.md deletes it.
pub fn campaign_config_for(
    scale: Scale,
    jobs: usize,
    scenario: FaultScenario,
    _: Scheduling,
) -> CampaignConfig {
    campaign_config(scale, jobs, scenario)
}

/// Runs one §4 campaign over an already-built Internet, streaming
/// merged traces into `sink` (pass [`wormhole_probe::NullSink`] to
/// discard them). The batch CLI and `wormhole-serve` both emit through
/// this one path, so their outputs agree byte for byte.
pub fn campaign_over(
    internet: &Internet,
    cfg: &CampaignConfig,
    sink: &mut dyn TraceSink,
) -> CampaignResult {
    Campaign::new(
        &internet.net,
        &internet.cp,
        internet.vps.clone(),
        cfg.clone(),
    )
    .run_streaming(sink)
}

/// A generated Internet plus its campaign result.
pub struct PaperContext {
    /// The synthetic Internet.
    pub internet: Internet,
    /// The §4 campaign result over it.
    pub result: CampaignResult,
    /// The campaign configuration used.
    pub config: CampaignConfig,
    /// Warn-level summary of the post-campaign result audit, appended
    /// next to every experiment table.
    lint_lines: Vec<String>,
}

impl PaperContext {
    /// Generates the context at the given scale with the default seed,
    /// the `WORMHOLE_JOBS` worker count and the `WORMHOLE_FAULTS`
    /// scenario (default clean).
    pub fn generate(scale: Scale) -> PaperContext {
        PaperContext::generate_with(scale, 8, jobs_from_env())
    }

    /// Generates the context with an explicit seed and worker count,
    /// under the `WORMHOLE_FAULTS` scenario (default clean).
    pub fn generate_with(scale: Scale, seed: u64, jobs: usize) -> PaperContext {
        PaperContext::generate_full(scale, seed, jobs, faults_from_env())
    }

    /// Generates the context with every knob explicit: scale, seed,
    /// worker count and fault scenario. The result is byte-identical at
    /// every `jobs` setting.
    pub fn generate_full(
        scale: Scale,
        seed: u64,
        jobs: usize,
        scenario: FaultScenario,
    ) -> PaperContext {
        let internet = internet_for(scale, seed);
        let campaign_cfg = campaign_config(scale, jobs, scenario);
        let result = campaign_over(&internet, &campaign_cfg, &mut NullSink);
        let lint_lines = lint_summary(&internet, &result);
        PaperContext {
            internet,
            result,
            config: campaign_cfg,
            lint_lines,
        }
    }

    /// The ASN of the persona named `name` (panics when absent —
    /// experiment code only asks for paper personas).
    pub fn persona_asn(&self, name: &str) -> Asn {
        self.internet
            .personas
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no persona named {name}"))
            .asn
    }

    /// Appends the warn-level lint summary of the campaign result to an
    /// experiment report, so every table carries the audit verdict of
    /// the data behind it.
    pub fn append_lint(&self, report: &mut Report) {
        for l in &self.lint_lines {
            report.line(l.clone());
        }
    }
}

/// Audits a campaign result and reduces the outcome to report lines:
/// an error/warn/info tally, the first eight warn-or-worse findings in
/// [`wormhole_lint::normalize`] order (the audit's own order follows
/// hash iteration, which changes from run to run), and the per-shard
/// probe accounting the `A307` rule cross-checks.
fn lint_summary(internet: &Internet, result: &CampaignResult) -> Vec<String> {
    let mut diags = audit_campaign(&internet.net, result);
    let (errors, warns, infos) = wormhole_lint::count(&diags);
    wormhole_lint::normalize(&mut diags);
    let mut out = vec![format!(
        "lint: {errors} errors, {warns} warnings, {infos} notes over {} traces / {} probes \
         (shards: {:?})",
        result.traces.len(),
        result.probes,
        result.probes_by_vp
    )];
    for d in diags
        .iter()
        .filter(|d| d.severity >= Severity::Warn)
        .take(8)
    {
        out.push(format!("lint: {d}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_generates() {
        let ctx = PaperContext::generate(Scale::Quick);
        assert!(!ctx.result.traces.is_empty());
        assert!(ctx.result.probes > 0);
        assert_eq!(ctx.persona_asn("Tinet"), Asn(3257));
    }

    /// The only test that touches `WORMHOLE_SCALE`, so no two tests
    /// race on the variable.
    #[test]
    fn scale_from_env_parses_any_case_and_rejects_unknown_names() {
        std::env::remove_var("WORMHOLE_SCALE");
        assert_eq!(Scale::from_env(), Scale::Paper);
        for scale in [
            Scale::Quick,
            Scale::Paper,
            Scale::Tenfold,
            Scale::ThousandFold,
        ] {
            for name in [scale.name().to_string(), scale.name().to_uppercase()] {
                std::env::set_var("WORMHOLE_SCALE", &name);
                assert_eq!(Scale::from_env(), scale, "{name}");
            }
        }
        std::env::set_var("WORMHOLE_SCALE", "tenfld");
        let err = std::panic::catch_unwind(Scale::from_env).unwrap_err();
        std::env::remove_var("WORMHOLE_SCALE");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("WORMHOLE_SCALE=tenfld"), "{msg}");
        assert!(
            msg.contains("expected quick, paper, tenfold, thousandfold"),
            "{msg}"
        );
    }

    #[test]
    fn lint_summary_reaches_reports() {
        let ctx = PaperContext::generate_with(Scale::Quick, 8, 2);
        let mut r = Report::new("test", "lint summary plumbing");
        ctx.append_lint(&mut r);
        assert!(
            r.lines.iter().any(|l| l.starts_with("lint: ")),
            "expected a lint tally line"
        );
        assert!(
            r.lines[0].contains("shards"),
            "tally should include per-shard probe accounting"
        );
    }

    /// The audit's findings come out of hash-ordered collections, so
    /// two contexts of one seed list them in different orders; the
    /// summary must not.
    #[test]
    fn lint_summary_is_stable_across_calls() {
        let ctx = PaperContext::generate_with(Scale::Paper, 8, 2);
        let first = lint_summary(&ctx.internet, &ctx.result);
        assert!(first.len() > 2, "{first:?}");
        assert_eq!(lint_summary(&ctx.internet, &ctx.result), first);
        let again = PaperContext::generate_with(Scale::Paper, 8, 2);
        assert_eq!(lint_summary(&again.internet, &again.result), first);
    }
}
