//! Echo-request probing (ping), used for router fingerprinting.
//!
//! RTLA and the Table 1 signatures need, for each discovered address,
//! the initial TTL of its *echo-reply* in addition to the
//! *time-exceeded* TTL traceroute already observed (§2.3).
//!
//! A failed ping is not just a missing value: the campaign's
//! degradation accounting wants to know *how* it failed (rate limited
//! vs. silent vs. lost) and how many probes it burned, so [`ping`]
//! always returns a [`PingResult`] carrying attempts-used and the last
//! failure kind.

use crate::trace::HopOutcome;
use wormhole_net::{Addr, DropReason, Engine, Packet, ReplyKind, RouterId, SendOutcome};

/// Why the last unsuccessful ping attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PingFailure {
    /// Echo-reply (or the probe's ICMP) suppressed by rate limiting.
    RateLimited,
    /// The target is configured (or persistently faulted) silent.
    Silent,
    /// No route, or an error reply came back instead of an echo-reply.
    Unreachable,
    /// Probe or reply lost in transit.
    Lost,
}

impl PingFailure {
    fn from_drop(reason: DropReason) -> PingFailure {
        match HopOutcome::from_drop(reason) {
            HopOutcome::RateLimited => PingFailure::RateLimited,
            HopOutcome::Silent => PingFailure::Silent,
            HopOutcome::Unreachable => PingFailure::Unreachable,
            _ => PingFailure::Lost,
        }
    }
}

/// The observation from a successful ping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PingReply {
    /// Replying address.
    pub from: Addr,
    /// The echo-reply's IP-TTL as received at the vantage point.
    pub reply_ip_ttl: u8,
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
}

/// The full outcome of a ping: the reply when one arrived, plus
/// probe-accounting either way.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PingResult {
    /// The reply, when any attempt succeeded.
    pub reply: Option<PingReply>,
    /// Probe attempts actually sent.
    pub attempts: u8,
    /// The last attempt's failure kind, when no reply arrived (also set
    /// when earlier attempts failed before one succeeded).
    pub last_failure: Option<PingFailure>,
}

impl PingResult {
    /// An empty result (no probes sent) — the merge default for work
    /// lost to a degraded shard.
    pub fn empty() -> PingResult {
        PingResult {
            reply: None,
            attempts: 0,
            last_failure: None,
        }
    }

    /// The echo-reply's IP-TTL, when a reply arrived.
    pub fn reply_ip_ttl(&self) -> Option<u8> {
        self.reply.map(|r| r.reply_ip_ttl)
    }

    /// True when a reply arrived.
    pub fn is_reply(&self) -> bool {
        self.reply.is_some()
    }
}

/// Pings `dst` from `vp`: up to `attempts` echo requests (at least
/// one), each sent with [`Engine::send`], stopping at the first
/// echo-reply.
pub fn ping(
    eng: &mut Engine<'_>,
    vp: RouterId,
    src: Addr,
    dst: Addr,
    flow: u16,
    id: u16,
    attempts: u8,
) -> PingResult {
    let mut result = PingResult::empty();
    for seq in 0..u16::from(attempts.max(1)) {
        result.attempts += 1;
        match eng.send(vp, Packet::echo_request(src, dst, 64, flow, id, seq)) {
            SendOutcome::Reply(r) if r.kind == ReplyKind::EchoReply => {
                result.reply = Some(PingReply {
                    from: r.from,
                    reply_ip_ttl: r.ip_ttl,
                    rtt_ms: r.rtt_ms,
                });
                break;
            }
            SendOutcome::Reply(_) => {
                // An error reply (unreachable) instead of an echo-reply.
                result.last_failure = Some(PingFailure::Unreachable);
            }
            SendOutcome::Lost { reason, .. } => {
                result.last_failure = Some(PingFailure::from_drop(reason));
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::FaultPlan;
    use wormhole_topo::{gns3_fig2, gns3_fig2_with, Fig2Config, Fig2Opts};

    #[test]
    fn ping_returns_reply_ttl() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let out = ping(&mut eng, s.vp, src, s.target, 1, 7, 2);
        let r = out.reply.unwrap();
        assert_eq!(r.from, s.target);
        assert!(r.rtt_ms > 0.0);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.last_failure, None);
    }

    #[test]
    fn juniper_echo_reply_is_64_based() {
        // Juniper LERs: echo-reply initial TTL 64 → observed well below
        // the 255-based time-exceeded values.
        let s = gns3_fig2_with(Fig2Opts::preset_juniper_ler(Fig2Config::BackwardRecursive));
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let pe2_left = s.left_addr("PE2");
        let r = ping(&mut eng, s.vp, src, pe2_left, 1, 7, 2).reply.unwrap();
        assert!(r.reply_ip_ttl <= 64, "got {}", r.reply_ip_ttl);
        assert!(r.reply_ip_ttl > 48);
    }

    #[test]
    fn ping_gives_up_on_full_loss_with_accounting() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::with_faults(&s.net, &s.cp, FaultPlan::with_loss(1.0).unwrap(), 3);
        let src = s.net.router(s.vp).loopback;
        let out = ping(&mut eng, s.vp, src, s.target, 1, 7, 3);
        assert!(out.reply.is_none());
        assert_eq!(out.attempts, 3);
        assert_eq!(out.last_failure, Some(PingFailure::Lost));
    }

    #[test]
    fn zero_attempts_still_sends_one_probe() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::with_faults(&s.net, &s.cp, FaultPlan::with_loss(1.0).unwrap(), 3);
        let src = s.net.router(s.vp).loopback;
        let out = ping(&mut eng, s.vp, src, s.target, 1, 7, 0);
        assert!(out.reply.is_none());
        assert_eq!(out.attempts, 1);
        assert_eq!(eng.stats().probes, 1);
    }

    #[test]
    fn unreachable_target_reports_failure_kind() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut eng = Engine::new(&s.net, &s.cp);
        let src = s.net.router(s.vp).loopback;
        let out = ping(&mut eng, s.vp, src, Addr::new(9, 9, 9, 9), 1, 7, 2);
        assert!(out.reply.is_none());
        assert_eq!(out.last_failure, Some(PingFailure::Unreachable));
    }
}
