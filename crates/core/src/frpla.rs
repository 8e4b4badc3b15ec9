//! FRPLA — Forward/Return Path Length Analysis (paper §3.1).
//!
//! For a traceroute hop answered by router `E` at probe TTL `f`, the
//! reply's received IP-TTL gives the *return* path length
//! `r = init − observed + 1`. With an invisible tunnel on the forward
//! path, `f` undercounts the hidden LSRs while `r` — thanks to the
//! RFC 3443 `min` rule at the return tunnel's exit — counts them, so
//! the Return-vs-Forward Asymmetry `RFA = r − f` shifts positive.
//!
//! FRPLA is statistical: per-hop RFA also contains plain routing
//! asymmetry (hot-potato), which averages to ~0 over many vantage
//! points; only the per-AS distribution shift is meaningful (§3.4).

use crate::fingerprint::return_path_len;
use wormhole_net::{Addr, Asn, ReplyKind};
use wormhole_probe::{Trace, TraceHop};

/// One RFA observation.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RfaSample {
    /// The replying address (candidate egress LER).
    pub addr: Addr,
    /// Forward path length (the probe TTL).
    pub forward_len: u8,
    /// Inferred return path length.
    pub return_len: u8,
    /// `return_len - forward_len`.
    pub rfa: i32,
}

/// Computes the RFA of a single hop, when it replied.
pub fn rfa_of_hop(hop: &TraceHop) -> Option<RfaSample> {
    let addr = hop.addr?;
    let observed = hop.reply_ip_ttl?;
    let return_len = return_path_len(observed);
    Some(RfaSample {
        addr,
        forward_len: hop.ttl,
        return_len,
        rfa: i32::from(return_len) - i32::from(hop.ttl),
    })
}

/// All RFA samples of a trace, one per responsive time-exceeded hop
/// (echo replies use a different initial TTL on Juniper and are RTLA's
/// business, so they are skipped here).
pub fn rfa_of_trace(trace: &Trace) -> Vec<RfaSample> {
    trace
        .hops
        .iter()
        .filter(|h| h.kind == Some(ReplyKind::TimeExceeded))
        .filter_map(rfa_of_hop)
        .collect()
}

/// An empirical integer distribution with the summary statistics the
/// paper reads off its RFA plots.
#[derive(Clone, Debug, Default)]
pub struct RfaDistribution {
    samples: Vec<i32>,
    sorted: bool,
}

impl RfaDistribution {
    /// An empty distribution.
    pub fn new() -> RfaDistribution {
        RfaDistribution::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, rfa: i32) {
        self.samples.push(rfa);
        self.sorted = false;
    }

    /// Adds many observations.
    pub fn extend<I: IntoIterator<Item = i32>>(&mut self, it: I) {
        self.samples.extend(it);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[i32] {
        &self.samples
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The median (lower median for even sizes).
    pub fn median(&mut self) -> Option<i32> {
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        Some(self.samples[(self.samples.len() - 1) / 2])
    }

    /// The mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&x| f64::from(x)).sum::<f64>() / self.samples.len() as f64)
    }

    /// The probability density over the integer support (Fig. 7's PDF).
    pub fn pdf(&self) -> Vec<(i32, f64)> {
        if self.samples.is_empty() {
            return Vec::new();
        }
        let mut counts = std::collections::BTreeMap::new();
        for &s in &self.samples {
            *counts.entry(s).or_insert(0usize) += 1;
        }
        let n = self.samples.len() as f64;
        counts.into_iter().map(|(v, c)| (v, c as f64 / n)).collect()
    }

    /// The paper's shift test: an AS whose RFA median is at least
    /// `threshold` (default judgement uses 2) very likely hides tunnels
    /// — plain routing asymmetry centres the median near 0–1.
    pub fn shifted_by(&mut self, threshold: i32) -> bool {
        self.median().is_some_and(|m| m >= threshold)
    }

    /// The FRPLA estimate of the AS's average invisible tunnel length:
    /// the median RFA (asymmetry noise averages out).
    pub fn tunnel_length_estimate(&mut self) -> Option<i32> {
        self.median()
    }
}

/// Per-AS FRPLA aggregation.
#[derive(Clone, Debug, Default)]
pub struct FrplaAnalysis {
    per_as: std::collections::HashMap<Asn, RfaDistribution>,
    all: RfaDistribution,
}

impl FrplaAnalysis {
    /// An empty analysis.
    pub fn new() -> FrplaAnalysis {
        FrplaAnalysis::default()
    }

    /// Records a sample attributed to `asn` (unattributed samples only
    /// enter the global distribution).
    pub fn record(&mut self, asn: Option<Asn>, sample: &RfaSample) {
        self.all.push(sample.rfa);
        if let Some(asn) = asn {
            self.per_as.entry(asn).or_default().push(sample.rfa);
        }
    }

    /// The distribution for one AS.
    pub fn for_as(&mut self, asn: Asn) -> Option<&mut RfaDistribution> {
        self.per_as.get_mut(&asn)
    }

    /// The global distribution.
    pub fn global(&mut self) -> &mut RfaDistribution {
        &mut self.all
    }

    /// ASes seen, sorted.
    pub fn ases(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.per_as.keys().copied().collect();
        v.sort_by_key(|a| a.0);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_probe::TraceHop;

    fn hop(ttl: u8, reply_ttl: u8) -> TraceHop {
        TraceHop {
            ttl,
            addr: Some(Addr::new(10, 0, 0, 1)),
            reply_ip_ttl: Some(reply_ttl),
            rtt_ms: Some(1.0),
            labels: wormhole_net::LabelStack::empty(),
            kind: Some(ReplyKind::TimeExceeded),
            outcome: wormhole_probe::HopOutcome::Replied,
            attempts: 1,
            truth: None,
        }
    }

    #[test]
    fn paper_fig2_example() {
        // PE2 at forward hop 3, reply TTL 250 (255-init): return length
        // 6, RFA = 3 = the tunnel's three LSRs.
        let s = rfa_of_hop(&hop(3, 250)).unwrap();
        assert_eq!(s.return_len, 6);
        assert_eq!(s.rfa, 3);
    }

    #[test]
    fn symmetric_path_has_zero_rfa() {
        // Hop 5, reply 251 from a 255 stack: return length 5, RFA 0.
        let s = rfa_of_hop(&hop(5, 251)).unwrap();
        assert_eq!(s.rfa, 0);
    }

    #[test]
    fn stars_yield_nothing() {
        assert!(rfa_of_hop(&TraceHop::star(4)).is_none());
    }

    #[test]
    fn distribution_stats() {
        let mut d = RfaDistribution::new();
        d.extend([0, 1, 0, -1, 3, 3, 3, 4]);
        assert_eq!(d.len(), 8);
        assert_eq!(d.median(), Some(1));
        assert!((d.mean().unwrap() - 13.0 / 8.0).abs() < 1e-9);
        let pdf = d.pdf();
        let total: f64 = pdf.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(!d.shifted_by(2));
        let mut shifted = RfaDistribution::new();
        shifted.extend([2, 3, 4, 3, 2, 5]);
        assert!(shifted.shifted_by(2));
        assert_eq!(shifted.tunnel_length_estimate(), Some(3));
    }

    #[test]
    fn per_as_aggregation() {
        let mut a = FrplaAnalysis::new();
        let s = rfa_of_hop(&hop(3, 250)).unwrap();
        a.record(Some(Asn(3257)), &s);
        a.record(None, &s);
        assert_eq!(a.global().len(), 2);
        assert_eq!(a.for_as(Asn(3257)).unwrap().len(), 1);
        assert!(a.for_as(Asn(1)).is_none());
        assert_eq!(a.ases(), vec![Asn(3257)]);
    }

    #[test]
    fn echo_replies_excluded_from_trace_rfa() {
        let mut t = wormhole_probe::Trace {
            src: Addr::new(1, 1, 1, 1),
            dst: Addr::new(2, 2, 2, 2),
            flow: 0,
            hops: vec![hop(1, 255), hop(2, 254)],
            reached: true,
            probes: 3,
            truncated: false,
        };
        t.hops.push(TraceHop {
            kind: Some(ReplyKind::EchoReply),
            ..hop(3, 62)
        });
        let samples = rfa_of_trace(&t);
        assert_eq!(samples.len(), 2);
    }
}
