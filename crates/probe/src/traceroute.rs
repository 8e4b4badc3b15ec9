//! Paris traceroute over the simulator.
//!
//! Mirrors the paper's measurement setup: scamper's ICMP-Paris
//! traceroute — ICMP echo probes whose flow-identifying fields are held
//! constant so per-flow ECMP keeps the path stable, configurable start
//! TTL (the campaign starts at 2), per-hop retries, and a gap limit.
//!
//! Robustness extensions on top of the paper's setup: adaptive per-hop
//! retry with exponential backoff in *virtual* time (backoff lets
//! rate-limiter token buckets refill, so retrying a rate-limited hop
//! actually helps), and a per-trace probe budget that cuts runaway
//! traces short instead of letting a hostile path consume the whole
//! campaign. All of it is deterministic: backoff advances the worker's
//! virtual clock only.

use crate::trace::{HopOutcome, Trace, TraceHop};
use wormhole_net::{Addr, Engine, Packet, ReplyKind, RouterId, SendOutcome};

/// Extra attempts the adaptive policy may add when a hop's failures
/// look like rate limiting (waiting + retrying is likely to succeed).
const ADAPTIVE_EXTRA_ATTEMPTS: u8 = 2;

/// Exponential-backoff cap: waits double per retry up to `2^3 ×` the
/// base backoff.
const BACKOFF_MAX_DOUBLINGS: u8 = 3;

/// Traceroute options.
#[derive(Clone, Debug)]
pub struct TracerouteOpts {
    /// First TTL probed (the paper's campaign uses 2).
    pub start_ttl: u8,
    /// Last TTL probed.
    pub max_ttl: u8,
    /// Probe attempts per hop before recording `*`.
    pub attempts: u8,
    /// Consecutive stars after which the trace is abandoned.
    pub gap_limit: u8,
    /// Per-trace probe budget; when it runs out the trace is truncated
    /// with a [`HopOutcome::BudgetExhausted`] hop. `None` = unlimited.
    pub probe_budget: Option<u32>,
    /// Base backoff (virtual ms) before each per-hop retry; doubles per
    /// retry. `0.0` disables backoff.
    pub backoff_ms: f64,
    /// When true, hops whose failures look rate-limited earn up to
    /// `ADAPTIVE_EXTRA_ATTEMPTS` extra (backed-off) attempts.
    pub adaptive: bool,
}

impl Default for TracerouteOpts {
    fn default() -> TracerouteOpts {
        TracerouteOpts {
            start_ttl: 1,
            max_ttl: 40,
            attempts: 2,
            gap_limit: 6,
            probe_budget: None,
            backoff_ms: 0.0,
            adaptive: false,
        }
    }
}

impl TracerouteOpts {
    /// The §4 campaign configuration (start at TTL 2), hardened with a
    /// probe budget and adaptive backed-off retries.
    pub fn campaign() -> TracerouteOpts {
        TracerouteOpts {
            start_ttl: 2,
            probe_budget: Some(160),
            backoff_ms: 20.0,
            adaptive: true,
            ..TracerouteOpts::default()
        }
    }
}

/// Runs a Paris traceroute from `vp` towards `dst`: one probe at a
/// time, each sent with [`Engine::send`] and its reply read before the
/// next goes out.
///
/// `flow` is held constant for every probe of the trace; `id` tags the
/// echo identifier so replies can be matched in logs. TTLs run from
/// `start_ttl` to `max_ttl`; each TTL gets up to `attempts` probes
/// (more under the adaptive policy), backed off in virtual time after
/// the first. The trace stops at an echo-reply, an unreachable, a
/// reply from `dst` itself, `gap_limit` unanswered TTLs in a row, or
/// an exhausted probe budget.
pub fn traceroute(
    eng: &mut Engine<'_>,
    vp: RouterId,
    src: Addr,
    dst: Addr,
    flow: u16,
    id: u16,
    opts: &TracerouteOpts,
) -> Trace {
    let mut t = Trace {
        src,
        dst,
        flow,
        hops: Vec::new(),
        reached: false,
        probes: 0,
        truncated: false,
    };
    trace_into(eng, vp, id, opts, &mut t);
    t
}

/// Runs the traceroute `t` names — from `t.src` to `t.dst` on flow
/// `t.flow` — as [`traceroute`] does, overwriting `t`'s hops, counters
/// and flags. `t.hops` keeps its allocation, so a caller that traces
/// into one `Trace` over and over allocates its hop buffer once.
pub(crate) fn trace_into(
    eng: &mut Engine<'_>,
    vp: RouterId,
    id: u16,
    opts: &TracerouteOpts,
    t: &mut Trace,
) {
    let (src, dst, flow) = (t.src, t.dst, t.flow);
    t.hops.clear();
    // Pre-sized for the common short trace; paths longer than this
    // grow normally.
    t.hops.reserve(8);
    t.reached = false;
    t.probes = 0;
    t.truncated = false;
    let base_attempts = opts.attempts.max(1);
    let mut seq: u16 = 0;
    let mut gap = 0u8;
    for ttl in opts.start_ttl..=opts.max_ttl {
        let mut hop = TraceHop::star(ttl);
        let mut last_drop = None;
        let mut max_attempts = base_attempts;
        let mut attempt = 0u8;
        while hop.addr.is_none() && attempt < max_attempts {
            if opts.probe_budget.is_some_and(|b| t.probes >= b) {
                hop.outcome = HopOutcome::BudgetExhausted;
                hop.attempts = attempt;
                t.hops.push(hop);
                t.truncated = true;
                return;
            }
            if attempt > 0 && opts.backoff_ms > 0.0 {
                let doublings = (attempt - 1).min(BACKOFF_MAX_DOUBLINGS);
                eng.wait(opts.backoff_ms * f64::from(1u32 << doublings));
            }
            seq = seq.wrapping_add(1);
            attempt += 1;
            t.probes += 1;
            match eng.send(vp, Packet::echo_request(src, dst, ttl, flow, id, seq)) {
                SendOutcome::Reply(r) => {
                    hop = TraceHop {
                        ttl,
                        addr: Some(r.from),
                        reply_ip_ttl: Some(r.ip_ttl),
                        rtt_ms: Some(r.rtt_ms),
                        labels: r.mpls_ext,
                        kind: Some(r.kind),
                        outcome: HopOutcome::Replied,
                        attempts: attempt,
                        truth: Some(r.replier),
                    }
                }
                SendOutcome::Lost { reason, .. } => {
                    last_drop = Some(reason);
                    if opts.adaptive
                        && HopOutcome::from_drop(reason) == HopOutcome::RateLimited
                        && max_attempts < base_attempts + ADAPTIVE_EXTRA_ATTEMPTS
                    {
                        // Backed-off retries give the bucket time to
                        // refill; spend a couple extra attempts here.
                        max_attempts += 1;
                    }
                }
            }
        }
        let Some(from) = hop.addr else {
            hop.attempts = attempt;
            if let Some(reason) = last_drop {
                hop.outcome = HopOutcome::from_drop(reason);
            }
            t.hops.push(hop);
            gap += 1;
            if gap >= opts.gap_limit {
                break;
            }
            continue;
        };
        gap = 0;
        let kind = hop.kind;
        t.hops.push(hop);
        if kind == Some(ReplyKind::DestUnreachable) {
            break;
        }
        // Echo replies are sourced from the probed address, and a
        // time-exceeded *from* the destination still means the target
        // was reached.
        if kind == Some(ReplyKind::EchoReply) || from == dst {
            t.reached = true;
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::{DropReason, FaultPlan};
    use wormhole_topo::{gns3_fig2, Fig2Config};

    #[test]
    fn reaches_target_with_all_hops() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let t = traceroute(
            &mut eng,
            s.vp,
            src,
            s.target,
            5,
            1,
            &TracerouteOpts::default(),
        );
        assert!(t.reached);
        assert_eq!(t.hops.len(), 7);
        let names: Vec<String> = t
            .hops
            .iter()
            .map(|h| {
                let owner = s.net.owner(h.addr.unwrap()).unwrap();
                s.net.router(owner).name.clone()
            })
            .collect();
        assert_eq!(names, ["CE1", "PE1", "P1", "P2", "P3", "PE2", "CE2"]);
        // Explicit tunnel: mid hops labeled.
        assert!(t.hops[2].is_labeled());
        assert!(!t.hops[0].is_labeled());
        // Final hop is an echo reply.
        assert_eq!(t.hops[6].kind, Some(ReplyKind::EchoReply));
    }

    #[test]
    fn campaign_opts_start_at_two() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let t = traceroute(
            &mut eng,
            s.vp,
            src,
            s.target,
            5,
            1,
            &TracerouteOpts::campaign(),
        );
        assert_eq!(t.hops[0].ttl, 2);
        assert!(t.reached);
    }

    #[test]
    fn invisible_tunnel_shows_four_hops() {
        let s = gns3_fig2(Fig2Config::BackwardRecursive);
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let t = traceroute(
            &mut eng,
            s.vp,
            src,
            s.target,
            5,
            1,
            &TracerouteOpts::default(),
        );
        assert!(t.reached);
        assert_eq!(t.hops.len(), 4);
        assert!(!t.has_labels());
    }

    #[test]
    fn retries_survive_loss() {
        let s = gns3_fig2(Fig2Config::Default);
        // 5% loss *per link crossing* (a late hop's round trip crosses
        // ~14 links); with 5 attempts the trace should still complete.
        let mut eng = wormhole_net::Engine::with_faults(
            &s.net,
            &s.cp,
            FaultPlan::with_loss(0.05).unwrap(),
            9,
        );
        let src = s.net.router(s.vp).loopback;
        let opts = TracerouteOpts {
            attempts: 5,
            ..TracerouteOpts::default()
        };
        let t = traceroute(&mut eng, s.vp, src, s.target, 5, 1, &opts);
        assert!(t.responsive_count() >= 5, "trace: {t}");
    }

    #[test]
    fn gap_limit_abandons_dead_paths() {
        let s = gns3_fig2(Fig2Config::Default);
        // 100% loss: every hop is a star; trace stops at the gap limit.
        let mut eng =
            wormhole_net::Engine::with_faults(&s.net, &s.cp, FaultPlan::with_loss(1.0).unwrap(), 9);
        let src = s.net.router(s.vp).loopback;
        let opts = TracerouteOpts {
            gap_limit: 3,
            attempts: 1,
            ..TracerouteOpts::default()
        };
        let t = traceroute(&mut eng, s.vp, src, s.target, 5, 1, &opts);
        assert_eq!(t.hops.len(), 3);
        assert!(!t.reached);
        assert!(t
            .hops
            .iter()
            .all(|h| h.outcome == HopOutcome::Lost && h.attempts == 1));
        assert_eq!(t.probes, 3);
        let _ = DropReason::Loss;
    }

    #[test]
    fn probe_budget_truncates_the_trace() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng =
            wormhole_net::Engine::with_faults(&s.net, &s.cp, FaultPlan::with_loss(1.0).unwrap(), 9);
        let src = s.net.router(s.vp).loopback;
        let opts = TracerouteOpts {
            attempts: 2,
            probe_budget: Some(5),
            ..TracerouteOpts::default()
        };
        let t = traceroute(&mut eng, s.vp, src, s.target, 5, 1, &opts);
        assert!(t.truncated);
        assert_eq!(t.probes, 5);
        assert_eq!(
            t.hops.last().unwrap().outcome,
            HopOutcome::BudgetExhausted,
            "trace: {t:?}"
        );
    }

    #[test]
    fn start_past_max_sends_nothing() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let opts = TracerouteOpts {
            start_ttl: 5,
            max_ttl: 4,
            ..TracerouteOpts::default()
        };
        let t = traceroute(&mut eng, s.vp, src, s.target, 5, 1, &opts);
        assert!(t.hops.is_empty());
        assert!(!t.reached && !t.truncated);
        assert_eq!(t.probes, 0);
        assert_eq!(eng.stats().probes, 0);
    }

    #[test]
    fn max_ttl_stops_short_of_the_target() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let opts = TracerouteOpts {
            max_ttl: 3,
            ..TracerouteOpts::default()
        };
        let t = traceroute(&mut eng, s.vp, src, s.target, 5, 1, &opts);
        assert_eq!(t.hops.len(), 3);
        assert!(t.hops.iter().all(|h| h.outcome == HopOutcome::Replied));
        assert!(!t.reached);
        assert_eq!(t.probes, 3);
    }

    #[test]
    fn budget_runs_out_between_hops() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng =
            wormhole_net::Engine::with_faults(&s.net, &s.cp, FaultPlan::with_loss(1.0).unwrap(), 9);
        let src = s.net.router(s.vp).loopback;
        let opts = TracerouteOpts {
            attempts: 2,
            probe_budget: Some(4),
            ..TracerouteOpts::default()
        };
        let t = traceroute(&mut eng, s.vp, src, s.target, 5, 1, &opts);
        let shape: Vec<(u8, HopOutcome, u8)> = t
            .hops
            .iter()
            .map(|h| (h.ttl, h.outcome, h.attempts))
            .collect();
        assert_eq!(
            shape,
            [
                (1, HopOutcome::Lost, 2),
                (2, HopOutcome::Lost, 2),
                (3, HopOutcome::BudgetExhausted, 0),
            ]
        );
        assert!(t.truncated);
        assert_eq!(t.probes, 4);
        assert_eq!(eng.stats().probes, 4);
    }

    #[test]
    fn stars_are_typed_rate_limited_when_buckets_are_dry() {
        use wormhole_net::RateLimit;
        let s = gns3_fig2(Fig2Config::Default);
        // Single-token buckets with a near-zero refill: a first trace
        // drains every router's bucket, the second sees typed
        // rate-limited stars.
        let plan = FaultPlan {
            te_limit: Some(RateLimit {
                per_sec: 0.01,
                burst: 1.0,
                mpls_only: false,
            }),
            ..FaultPlan::default()
        };
        let mut eng = wormhole_net::Engine::with_faults(&s.net, &s.cp, plan, 9);
        let src = s.net.router(s.vp).loopback;
        let warm = traceroute(
            &mut eng,
            s.vp,
            src,
            s.target,
            5,
            1,
            &TracerouteOpts::default(),
        );
        assert!(warm.reached);
        let t = traceroute(
            &mut eng,
            s.vp,
            src,
            s.target,
            5,
            2,
            &TracerouteOpts {
                attempts: 1,
                gap_limit: 2,
                ..TracerouteOpts::default()
            },
        );
        assert!(
            t.hops.iter().any(|h| h.outcome == HopOutcome::RateLimited),
            "expected a rate-limited hop: {t:?}"
        );
    }

    #[test]
    fn adaptive_backoff_recovers_a_rate_limited_hop() {
        use wormhole_net::RateLimit;
        let s = gns3_fig2(Fig2Config::Default);
        // 2 tokens/s, burst 1: after a warm-up trace drains the buckets,
        // a bare single-attempt retrace fails its first hops, but the
        // adaptive policy's backed-off extra attempts wait long enough
        // (100/200 virtual ms) for buckets to refill.
        let plan = FaultPlan {
            te_limit: Some(RateLimit {
                per_sec: 2.0,
                burst: 1.0,
                mpls_only: false,
            }),
            ..FaultPlan::default()
        };
        let src = s.net.router(s.vp).loopback;
        let mut eng = wormhole_net::Engine::with_faults(&s.net, &s.cp, plan, 9);
        let warm = traceroute(
            &mut eng,
            s.vp,
            src,
            s.target,
            5,
            1,
            &TracerouteOpts::default(),
        );
        assert!(warm.reached);
        let opts = TracerouteOpts {
            attempts: 1,
            adaptive: true,
            backoff_ms: 100.0,
            ..TracerouteOpts::default()
        };
        let t = traceroute(&mut eng, s.vp, src, s.target, 5, 2, &opts);
        assert!(t.reached, "adaptive retries should complete: {t:?}");
        assert!(
            t.hops.iter().any(|h| h.attempts > 1),
            "some hop should have needed a retry: {t:?}"
        );
    }

    #[test]
    fn unreachable_terminates() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let t = traceroute(
            &mut eng,
            s.vp,
            src,
            Addr::new(9, 9, 9, 9),
            5,
            1,
            &TracerouteOpts::default(),
        );
        assert!(!t.reached);
        assert_eq!(
            t.last_responsive().unwrap().kind,
            Some(ReplyKind::DestUnreachable)
        );
    }
}
