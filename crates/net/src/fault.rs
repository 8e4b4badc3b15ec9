//! Fault injection: probe loss, ICMP rate limiting, persistent
//! silence, and link flaps — composed into named scenarios.
//!
//! Real campaigns lose probes and replies; scamper retries. The engine
//! consults a [`FaultPlan`] at every wire crossing and at every ICMP
//! generation so the probing layer's retry logic is actually exercised.
//!
//! Beyond the v1 i.i.d. loss model, a plan can now describe the failure
//! modes the paper's Internet-scale campaign actually met:
//!
//! * **token-bucket ICMP rate limiters** ([`RateLimit`]) applied
//!   per router, with *separate* budgets for `time-exceeded` and
//!   `echo-reply` generation — an MPLS-only limiter that throttles
//!   `time-exceeded` harder than `echo-reply` stresses exactly the
//!   `<255, 64>` signature RTLA depends on;
//! * **persistently silent routers** ([`SilentSet`]) — the anonymous
//!   routers of real traces, chosen by a pure hash of the router id so
//!   the *same* routers stay silent for every worker and every
//!   `jobs` setting;
//! * **deterministic link-flap schedules** ([`FlapSchedule`]) — a
//!   subset of links goes down for a fixed window of every period of
//!   each worker's *virtual clock* (probes pace the clock forward, see
//!   [`crate::state::ProbeState`]), modelling routing churn without
//!   consuming randomness.
//!
//! On top of the *degrading* faults sit three *deceptive* ones — the
//! adversarial personas of the measurement-artifact literature:
//!
//! * **quoted-TTL spoofing** ([`TtlSpoof`]) — routers that lie about
//!   the initial TTL of the ICMP they emit, breaking the `<255, 64>`
//!   signature RTLA keys on and poisoning the fingerprint taxonomy;
//! * **non-Paris load balancers** ([`NonParisLb`]) — routers that hash
//!   per *probe* instead of per *flow*, forking consecutive probes of
//!   one traceroute onto different ECMP branches and forging loops,
//!   cycles, and phantom stars;
//! * **egress-hiding ASes** ([`EgressHide`]) — ASes that silently drop
//!   `time-exceeded` for probes aimed at their interior interface
//!   addresses, starving exactly the DPR re-traces that target a
//!   suspected egress.
//!
//! Only `loss`, `icmp_loss` and `jitter_ms` draw from the worker RNG
//! stream; every new fault dimension is a pure function of
//! `(plan, router/link id, virtual time)` — the deceptive ones of
//! `(plan, router/AS id, probe key)` — so sharded campaigns stay
//! byte-identical at any thread count.

use crate::error::NetError;
use crate::ids::{LinkId, RouterId};

/// A per-router token-bucket ICMP rate limiter.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RateLimit {
    /// Tokens refilled per second of virtual time.
    pub per_sec: f64,
    /// Bucket capacity (initial tokens and refill ceiling).
    pub burst: f64,
    /// Restrict the limiter to MPLS-enabled routers (LER/LSR throttling,
    /// the paper's §4 failure mode) instead of every router.
    pub mpls_only: bool,
}

impl RateLimit {
    fn validate(&self, what: &str) -> Result<(), NetError> {
        if !(self.per_sec > 0.0 && self.per_sec.is_finite()) {
            return Err(NetError::InvalidFaultPlan {
                reason: format!("{what}: per_sec must be positive and finite"),
            });
        }
        if !(self.burst >= 1.0 && self.burst.is_finite()) {
            return Err(NetError::InvalidFaultPlan {
                reason: format!("{what}: burst must be at least one token"),
            });
        }
        Ok(())
    }
}

/// Persistently silent (anonymous) routers: a `share` of non-host
/// routers, selected by a pure hash of `(salt, router id)`, never
/// generates *any* ICMP — the same routers for every worker.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SilentSet {
    /// Fraction of routers that are persistently silent.
    pub share: f64,
    /// Hash salt (vary to select a different subset).
    pub salt: u64,
}

impl SilentSet {
    /// Whether `router` is in the silent subset. Pure — no RNG.
    pub fn contains(&self, router: RouterId) -> bool {
        in_share(self.salt, u64::from(router.0), self.share)
    }
}

/// A deterministic link-flap schedule: a `share` of links is down for
/// the first `down_ms` of every `period_ms` window of the worker's
/// virtual clock. Each flapping link's phase is offset by its id hash
/// so the whole subset does not blink in unison.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FlapSchedule {
    /// Fraction of links that flap.
    pub share: f64,
    /// Hash salt for subset selection and phase offsets.
    pub salt: u64,
    /// Flap period in virtual milliseconds.
    pub period_ms: f64,
    /// Down window at the start of each period, in virtual ms.
    pub down_ms: f64,
}

impl FlapSchedule {
    /// Whether `link` is down at virtual time `now_ms`. Pure — no RNG.
    pub fn is_down(&self, link: LinkId, now_ms: f64) -> bool {
        if !in_share(self.salt, u64::from(link.0), self.share) {
            return false;
        }
        let offset = (mix(self.salt ^ 0xF1A9, u64::from(link.0)) % 1_000_000) as f64 / 1_000_000.0
            * self.period_ms;
        (now_ms + offset).rem_euclid(self.period_ms) < self.down_ms
    }
}

/// Quoted-TTL deception: a `share` of routers lies about the initial
/// TTL of every ICMP packet it originates, picked from the common
/// initial-TTL menu so the spoof survives the campaign's snap-to-menu
/// inference yet lands on signature pairs outside the honest taxonomy.
/// With `per_probe` set the lie also varies probe to probe, so the same
/// router quotes *inconsistent* TTLs across a fingerprint series.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TtlSpoof {
    /// Fraction of routers that spoof.
    pub share: f64,
    /// Hash salt (vary to select a different subset).
    pub salt: u64,
    /// Re-roll the spoofed value per probe instead of per router.
    pub per_probe: bool,
}

impl TtlSpoof {
    /// Whether `router` spoofs its quoted TTLs. Pure — no RNG.
    pub fn contains(&self, router: RouterId) -> bool {
        in_share(self.salt, u64::from(router.0), self.share)
    }

    /// The initial TTL `router` pretends to use for a reply of `kind`
    /// (0 = time-exceeded/unreachable, 1 = echo-reply) to the probe
    /// identified by `probe_key`. Honest routers return `honest`
    /// unchanged. Pure — no RNG.
    pub fn initial_ttl(&self, router: RouterId, kind: u8, probe_key: u64, honest: u8) -> u8 {
        if !self.contains(router) {
            return honest;
        }
        const MENU: [u8; 4] = [255, 128, 64, 32];
        let per = if self.per_probe { probe_key } else { 0 };
        let h = mix(
            self.salt ^ (0xDE_CE00 + u64::from(kind)),
            mix(u64::from(router.0), per),
        );
        MENU[(h % MENU.len() as u64) as usize]
    }
}

/// Non-Paris load balancing: a `share` of routers re-hashes ECMP per
/// *probe* instead of per *flow*, so consecutive probes of one
/// traceroute fork onto different branches — the classic source of
/// forged loops, cycles, and phantom stars (Viger et al.).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NonParisLb {
    /// Fraction of routers that fork per probe.
    pub share: f64,
    /// Hash salt (vary to select a different subset).
    pub salt: u64,
}

impl NonParisLb {
    /// Whether `router` forks per probe. Pure — no RNG.
    pub fn forks(&self, router: RouterId) -> bool {
        in_share(self.salt, u64::from(router.0), self.share)
    }

    /// The extra ECMP salt a forking `router` folds in for the probe
    /// identified by `probe_key` — zero for non-forking routers, so the
    /// flow hash stays untouched on the honest path. Pure — no RNG.
    pub fn probe_salt(&self, router: RouterId, probe_key: u64) -> u32 {
        if !self.forks(router) {
            return 0;
        }
        (mix(self.salt ^ 0x1B4A, mix(u64::from(router.0), probe_key)) & 0xFFFF_FFFF) as u32
    }
}

/// Egress hiding: a `share` of ASes silently drops `time-exceeded`
/// (and unreachable) generation for probes whose destination is one of
/// the AS's *interior interface* addresses — exactly the targets DPR
/// re-traces aim at — while leaving loopback- and host-bound traffic
/// honest, so ordinary traceroutes still look clean.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EgressHide {
    /// Fraction of ASes that hide their interior interfaces.
    pub share: f64,
    /// Hash salt (vary to select a different subset).
    pub salt: u64,
}

impl EgressHide {
    /// Whether the AS numbered `asn` hides its interfaces. Pure.
    pub fn hides(&self, asn: u32) -> bool {
        in_share(self.salt, u64::from(asn), self.share)
    }
}

/// Fault configuration for an [`crate::engine::Engine`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that a packet is dropped on each link crossing.
    pub loss: f64,
    /// Probability that a router suppresses an ICMP error it should
    /// have generated (memoryless rate limiting).
    pub icmp_loss: f64,
    /// Uniform extra per-crossing delay bound, in milliseconds
    /// (0 ⇒ deterministic delays).
    pub jitter_ms: f64,
    /// Token-bucket limiter for *time-exceeded* (and unreachable)
    /// generation, per router.
    pub te_limit: Option<RateLimit>,
    /// Token-bucket limiter for *echo-reply* generation, per router.
    pub er_limit: Option<RateLimit>,
    /// Persistently silent routers.
    pub silent: Option<SilentSet>,
    /// Link-flap schedule.
    pub flaps: Option<FlapSchedule>,
    /// Quoted-TTL spoofing routers.
    pub ttl_spoof: Option<TtlSpoof>,
    /// Non-Paris (per-probe) load balancers.
    pub non_paris: Option<NonParisLb>,
    /// Egress-hiding ASes.
    pub egress_hide: Option<EgressHide>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            loss: 0.0,
            icmp_loss: 0.0,
            jitter_ms: 0.0,
            te_limit: None,
            er_limit: None,
            silent: None,
            flaps: None,
            ttl_spoof: None,
            non_paris: None,
            egress_hide: None,
        }
    }
}

impl FaultPlan {
    /// A lossless, deterministic plan (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with uniform packet loss.
    ///
    /// # Errors
    /// [`NetError::InvalidFaultPlan`] when `loss` is outside `[0, 1]`.
    pub fn with_loss(loss: f64) -> Result<FaultPlan, NetError> {
        FaultPlan {
            loss,
            ..FaultPlan::default()
        }
        .validated()
    }

    /// Validates every field, returning the plan for chaining.
    ///
    /// # Errors
    /// [`NetError::InvalidFaultPlan`] naming the first offending field.
    pub fn validated(self) -> Result<FaultPlan, NetError> {
        let prob = |v: f64, what: &str| -> Result<(), NetError> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(NetError::InvalidFaultPlan {
                    reason: format!("{what} must lie in [0, 1], got {v}"),
                })
            }
        };
        prob(self.loss, "loss")?;
        prob(self.icmp_loss, "icmp_loss")?;
        if !(self.jitter_ms >= 0.0 && self.jitter_ms.is_finite()) {
            return Err(NetError::InvalidFaultPlan {
                reason: format!("jitter_ms must be finite and ≥ 0, got {}", self.jitter_ms),
            });
        }
        if let Some(l) = &self.te_limit {
            l.validate("te_limit")?;
        }
        if let Some(l) = &self.er_limit {
            l.validate("er_limit")?;
        }
        if let Some(s) = &self.silent {
            prob(s.share, "silent.share")?;
        }
        if let Some(t) = &self.ttl_spoof {
            prob(t.share, "ttl_spoof.share")?;
        }
        if let Some(n) = &self.non_paris {
            prob(n.share, "non_paris.share")?;
        }
        if let Some(e) = &self.egress_hide {
            prob(e.share, "egress_hide.share")?;
        }
        if let Some(f) = &self.flaps {
            prob(f.share, "flaps.share")?;
            if !(f.period_ms > 0.0 && f.period_ms.is_finite()) {
                return Err(NetError::InvalidFaultPlan {
                    reason: format!("flaps.period_ms must be positive, got {}", f.period_ms),
                });
            }
            if !(f.down_ms >= 0.0 && f.down_ms <= f.period_ms) {
                return Err(NetError::InvalidFaultPlan {
                    reason: format!(
                        "flaps.down_ms must lie in [0, period_ms], got {}",
                        f.down_ms
                    ),
                });
            }
        }
        Ok(self)
    }

    /// True when the plan can consume randomness. The structured faults
    /// (rate limits, silence, flaps) are pure functions of ids and
    /// virtual time and never draw from the RNG.
    pub fn is_random(&self) -> bool {
        self.loss > 0.0 || self.icmp_loss > 0.0 || self.jitter_ms > 0.0
    }

    /// True when the plan carries any *deceptive* dimension — faults
    /// that forge plausible-but-wrong evidence (spoofed quoted TTLs,
    /// per-probe forks, hidden egresses) rather than merely losing or
    /// throttling honest evidence.
    pub fn is_deceptive(&self) -> bool {
        self.ttl_spoof.is_some() || self.non_paris.is_some() || self.egress_hide.is_some()
    }

    /// Whether `router` is persistently silent under this plan.
    pub fn is_persistently_silent(&self, router: RouterId) -> bool {
        self.silent.is_some_and(|s| s.contains(router))
    }
}

/// Named fault-scenario presets: the adversarial conditions a campaign
/// must degrade gracefully under, from clean emulation to the hostile
/// composite. Every preset is deterministic per worker stream, so
/// `jobs = N` stays byte-identical under all of them.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultScenario {
    /// No faults: the deterministic baseline.
    Clean,
    /// Congested transit core: i.i.d. loss, memoryless ICMP
    /// suppression, and RTT jitter.
    LossyCore,
    /// Edge LERs/LSRs running ICMP rate limiters, with `time-exceeded`
    /// throttled harder than `echo-reply` — the configuration that
    /// starves RTLA's `<255, 64>` gap measurements.
    RateLimitedEdge,
    /// Everything at once: loss, suppression, jitter, asymmetric MPLS
    /// rate limiting, persistently silent routers, and link flaps.
    Hostile,
    /// Deceptive quoted TTLs: a share of routers spoofs the initial
    /// TTL of its ICMP, breaking the `<255, 64>` RTLA assumption and
    /// poisoning fingerprint signatures. No loss, no RNG.
    DeceptiveTtl,
    /// Measurement-artifact load balancers: a share of routers hashes
    /// ECMP per probe instead of per flow, forging loops, cycles, and
    /// phantom stars in otherwise clean traces. No loss, no RNG.
    ArtifactLb,
    /// The deceptive composite: spoofed-and-randomized quoted TTLs,
    /// per-probe forks, egress-hiding ASes, and a pinch of persistent
    /// silence — adversarial, yet still RNG-free and deterministic.
    Paranoid,
}

impl FaultScenario {
    /// Every built-in scenario, in severity order: the degrading
    /// presets first, then the deceptive ones.
    pub const ALL: [FaultScenario; 7] = [
        FaultScenario::Clean,
        FaultScenario::LossyCore,
        FaultScenario::RateLimitedEdge,
        FaultScenario::Hostile,
        FaultScenario::DeceptiveTtl,
        FaultScenario::ArtifactLb,
        FaultScenario::Paranoid,
    ];

    /// The scenario's canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::Clean => "clean",
            FaultScenario::LossyCore => "lossy_core",
            FaultScenario::RateLimitedEdge => "rate_limited_edge",
            FaultScenario::Hostile => "hostile",
            FaultScenario::DeceptiveTtl => "deceptive_ttl",
            FaultScenario::ArtifactLb => "artifact_lb",
            FaultScenario::Paranoid => "paranoid",
        }
    }

    /// Parses a CLI name (`-` and `_` are interchangeable).
    pub fn parse(s: &str) -> Option<FaultScenario> {
        let norm = s.trim().to_ascii_lowercase().replace('-', "_");
        FaultScenario::ALL.into_iter().find(|sc| sc.name() == norm)
    }

    /// The scenario's fault plan.
    pub fn plan(self) -> FaultPlan {
        match self {
            FaultScenario::Clean => FaultPlan::none(),
            FaultScenario::LossyCore => FaultPlan {
                loss: 0.03,
                icmp_loss: 0.02,
                jitter_ms: 0.5,
                ..FaultPlan::default()
            },
            FaultScenario::RateLimitedEdge => FaultPlan {
                loss: 0.005,
                jitter_ms: 0.2,
                te_limit: Some(RateLimit {
                    per_sec: 4.0,
                    burst: 6.0,
                    mpls_only: true,
                }),
                er_limit: Some(RateLimit {
                    per_sec: 12.0,
                    burst: 12.0,
                    mpls_only: true,
                }),
                ..FaultPlan::default()
            },
            FaultScenario::Hostile => FaultPlan {
                loss: 0.06,
                icmp_loss: 0.04,
                jitter_ms: 1.0,
                te_limit: Some(RateLimit {
                    per_sec: 2.0,
                    burst: 4.0,
                    mpls_only: true,
                }),
                er_limit: Some(RateLimit {
                    per_sec: 6.0,
                    burst: 8.0,
                    mpls_only: true,
                }),
                silent: Some(SilentSet {
                    share: 0.04,
                    salt: 0x5117,
                }),
                flaps: Some(FlapSchedule {
                    share: 0.06,
                    salt: 0xF1A9,
                    period_ms: 5_000.0,
                    down_ms: 400.0,
                }),
                ..FaultPlan::default()
            },
            FaultScenario::DeceptiveTtl => FaultPlan {
                ttl_spoof: Some(TtlSpoof {
                    share: 0.30,
                    salt: 0xDECE,
                    per_probe: false,
                }),
                ..FaultPlan::default()
            },
            FaultScenario::ArtifactLb => FaultPlan {
                non_paris: Some(NonParisLb {
                    share: 0.35,
                    salt: 0x1B4A,
                }),
                ..FaultPlan::default()
            },
            FaultScenario::Paranoid => FaultPlan {
                ttl_spoof: Some(TtlSpoof {
                    share: 0.25,
                    salt: 0xDECE,
                    per_probe: true,
                }),
                non_paris: Some(NonParisLb {
                    share: 0.20,
                    salt: 0x1B4A,
                }),
                egress_hide: Some(EgressHide {
                    share: 0.50,
                    salt: 0xE6E5,
                }),
                silent: Some(SilentSet {
                    share: 0.03,
                    salt: 0x5117,
                }),
                ..FaultPlan::default()
            },
        }
    }

    /// Whether the scenario's plan carries deceptive dimensions.
    pub fn is_deceptive(self) -> bool {
        self.plan().is_deceptive()
    }
}

/// SplitMix64 finalizer — the shared bit mixer behind worker seeds and
/// the pure subset-selection hashes.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pure membership test: hashes `(salt, id)` onto `[0, 1)` and compares
/// with `share`.
fn in_share(salt: u64, id: u64, share: f64) -> bool {
    if share <= 0.0 {
        return false;
    }
    ((mix(salt, id.wrapping_add(1)) >> 11) as f64 / (1u64 << 53) as f64) < share
}

/// Derives the RNG seed for campaign worker `worker_id` from the
/// campaign seed — a SplitMix64 finalizer over the pair, so adjacent
/// worker ids land on statistically unrelated streams and the mapping
/// is stable across platforms and thread counts.
pub fn worker_seed(campaign_seed: u64, worker_id: u64) -> u64 {
    mix(campaign_seed, worker_id)
}

/// Derives the RNG seed for one trace of a campaign from
/// `(campaign_seed, vp, target)` — a chained SplitMix64 finalizer, so
/// every trace owns a hermetic stream that depends only on *what* is
/// probed, never on *which worker* runs it or in *what order*. This is
/// what lets idle workers steal individual traces while the campaign
/// report stays byte-identical at any job count.
pub fn trace_seed(campaign_seed: u64, vp: u64, target: u64) -> u64 {
    mix(
        mix(campaign_seed, vp.wrapping_add(0x7472_6163_655F_7631)),
        target,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_lossless() {
        let p = FaultPlan::none();
        assert_eq!(p.loss, 0.0);
        assert_eq!(p.icmp_loss, 0.0);
        assert_eq!(p.jitter_ms, 0.0);
        assert!(p.te_limit.is_none() && p.er_limit.is_none());
        assert!(p.silent.is_none() && p.flaps.is_none());
        assert!(!p.is_random());
        assert!(!p.is_deceptive());
    }

    #[test]
    fn loss_out_of_range_is_an_error() {
        let err = FaultPlan::with_loss(1.5).unwrap_err();
        assert!(matches!(err, NetError::InvalidFaultPlan { .. }));
        assert!(err.to_string().contains("loss"));
        assert!(FaultPlan::with_loss(0.3).is_ok());
    }

    #[test]
    fn validated_rejects_bad_structured_fields() {
        let bad_rate = FaultPlan {
            te_limit: Some(RateLimit {
                per_sec: 0.0,
                burst: 4.0,
                mpls_only: true,
            }),
            ..FaultPlan::default()
        };
        assert!(bad_rate.validated().is_err());
        let bad_flap = FaultPlan {
            flaps: Some(FlapSchedule {
                share: 0.1,
                salt: 1,
                period_ms: 100.0,
                down_ms: 200.0,
            }),
            ..FaultPlan::default()
        };
        assert!(bad_flap.validated().is_err());
        let bad_share = FaultPlan {
            silent: Some(SilentSet {
                share: 2.0,
                salt: 1,
            }),
            ..FaultPlan::default()
        };
        assert!(bad_share.validated().is_err());
    }

    #[test]
    fn every_scenario_plan_is_valid() {
        for sc in FaultScenario::ALL {
            assert!(
                sc.plan().validated().is_ok(),
                "{} preset must validate",
                sc.name()
            );
            assert_eq!(FaultScenario::parse(sc.name()), Some(sc));
        }
        assert_eq!(
            FaultScenario::parse("rate-limited-edge"),
            Some(FaultScenario::RateLimitedEdge)
        );
        assert_eq!(FaultScenario::parse("nope"), None);
        assert!(!FaultScenario::Clean.plan().is_random());
        assert!(FaultScenario::Hostile.plan().is_random());
    }

    #[test]
    fn silent_set_is_pure_and_share_scaled() {
        let s = SilentSet {
            share: 0.25,
            salt: 99,
        };
        let hits = (0u32..4000).filter(|&i| s.contains(RouterId(i))).count();
        // Deterministic repeat.
        let hits2 = (0u32..4000).filter(|&i| s.contains(RouterId(i))).count();
        assert_eq!(hits, hits2);
        assert!((800..1200).contains(&hits), "share miscalibrated: {hits}");
        let none = SilentSet {
            share: 0.0,
            salt: 99,
        };
        assert!((0u32..100).all(|i| !none.contains(RouterId(i))));
    }

    #[test]
    fn flap_schedule_is_periodic() {
        let f = FlapSchedule {
            share: 1.0,
            salt: 7,
            period_ms: 1000.0,
            down_ms: 100.0,
        };
        let link = LinkId(3);
        // Find one down instant, then check periodicity and duty cycle.
        let down_times: Vec<f64> = (0..10_000)
            .map(|i| i as f64)
            .filter(|&t| f.is_down(link, t))
            .collect();
        assert!(!down_times.is_empty(), "a 10% duty cycle must show up");
        let share = down_times.len() as f64 / 10_000.0;
        assert!((0.05..0.15).contains(&share), "duty cycle {share}");
        for &t in &down_times {
            assert!(f.is_down(link, t + 1000.0), "periodic at {t}");
        }
        let quiet = FlapSchedule { share: 0.0, ..f };
        assert!((0..1000).all(|t| !quiet.is_down(link, t as f64)));
    }

    #[test]
    fn ttl_spoof_is_pure_and_menu_bound() {
        let t = TtlSpoof {
            share: 1.0,
            salt: 0xDECE,
            per_probe: false,
        };
        for r in 0..200u32 {
            let v = t.initial_ttl(RouterId(r), 0, 7, 255);
            assert_eq!(v, t.initial_ttl(RouterId(r), 0, 99, 255), "per-router");
            assert!([255, 128, 64, 32].contains(&v), "menu-bound: {v}");
        }
        // Some router must actually lie about the <255, 64> pair.
        assert!((0..200u32).any(|r| t.initial_ttl(RouterId(r), 0, 0, 255) != 255));
        assert!((0..200u32).any(|r| t.initial_ttl(RouterId(r), 1, 0, 64) != 64));
        // per_probe re-rolls across probes but stays deterministic.
        let p = TtlSpoof {
            per_probe: true,
            ..t
        };
        assert!((0..64u64)
            .any(|k| p.initial_ttl(RouterId(3), 0, k, 255)
                != p.initial_ttl(RouterId(3), 0, k + 64, 255)));
        assert_eq!(
            p.initial_ttl(RouterId(3), 0, 5, 255),
            p.initial_ttl(RouterId(3), 0, 5, 255)
        );
        // Out-of-share routers stay honest.
        let none = TtlSpoof { share: 0.0, ..t };
        assert!((0..100u32).all(|r| none.initial_ttl(RouterId(r), 0, 0, 255) == 255));
    }

    #[test]
    fn non_paris_perturbs_only_forking_routers() {
        let n = NonParisLb {
            share: 0.5,
            salt: 0x1B4A,
        };
        let forking = (0..100u32).filter(|&r| n.forks(RouterId(r))).count();
        assert!(
            (25..75).contains(&forking),
            "share miscalibrated: {forking}"
        );
        for r in 0..100u32 {
            let rid = RouterId(r);
            if n.forks(rid) {
                // Per-probe: distinct keys yield distinct salts somewhere.
                assert_eq!(n.probe_salt(rid, 4), n.probe_salt(rid, 4));
            } else {
                assert_eq!(n.probe_salt(rid, 4), 0, "honest routers unsalted");
            }
        }
        let rid = (0..100u32).map(RouterId).find(|&r| n.forks(r)).unwrap();
        assert!((0..32u64).any(|k| n.probe_salt(rid, k) != n.probe_salt(rid, k + 32)));
    }

    #[test]
    fn egress_hide_selects_ases_purely() {
        let e = EgressHide {
            share: 0.5,
            salt: 0xE6E5,
        };
        let hidden = (0..1000u32).filter(|&a| e.hides(a)).count();
        assert!(
            (400..600).contains(&hidden),
            "share miscalibrated: {hidden}"
        );
        assert_eq!(e.hides(77), e.hides(77));
        let none = EgressHide { share: 0.0, ..e };
        assert!((0..100u32).all(|a| !none.hides(a)));
    }

    #[test]
    fn deceptive_plans_draw_no_randomness() {
        for sc in [
            FaultScenario::DeceptiveTtl,
            FaultScenario::ArtifactLb,
            FaultScenario::Paranoid,
        ] {
            let p = sc.plan();
            assert!(p.is_deceptive(), "{} is deceptive", sc.name());
            assert!(!p.is_random(), "{} never draws RNG", sc.name());
        }
        for sc in [FaultScenario::Clean, FaultScenario::Hostile] {
            assert!(!sc.plan().is_deceptive(), "{} stays honest", sc.name());
        }
    }

    #[test]
    fn worker_seed_is_stable_and_spread() {
        assert_eq!(worker_seed(8, 3), worker_seed(8, 3));
        let seeds: std::collections::HashSet<u64> = (0..64).map(|w| worker_seed(1717, w)).collect();
        assert_eq!(seeds.len(), 64, "worker streams must not collide");
        assert_ne!(worker_seed(0, 0), worker_seed(1, 0));
    }

    #[test]
    fn trace_seed_depends_only_on_the_triple() {
        // Stable, and spread across every axis of (seed, vp, target).
        assert_eq!(trace_seed(42, 3, 9), trace_seed(42, 3, 9));
        let mut seeds = std::collections::HashSet::new();
        for s in 0..4u64 {
            for vp in 0..8u64 {
                for t in 0..32u64 {
                    seeds.insert(trace_seed(s, vp, t));
                }
            }
        }
        assert_eq!(seeds.len(), 4 * 8 * 32, "trace streams must not collide");
        // Distinct from the per-worker stream family on the same ids.
        assert_ne!(trace_seed(42, 3, 9), worker_seed(42, 3));
    }
}
