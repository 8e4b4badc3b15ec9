//! Internet-model update (paper §7): correcting traces, graphs, RFA
//! distributions, and RTT profiles with revealed tunnel content.

use std::collections::{BTreeSet, HashMap};
use wormhole_core::{RevealedTunnel, RevelationOutcome};
use wormhole_net::Addr;
use wormhole_probe::Trace;
use wormhole_topo::{ItdkSnapshot, NodeInfo};

/// Splices revealed hops into a trace's address path: wherever the path
/// contains a revealed `(ingress, egress)` pair as consecutive
/// responsive hops, the tunnel's LSRs are inserted between them.
pub fn corrected_path(
    trace: &Trace,
    revelations: &HashMap<(Addr, Addr), RevelationOutcome>,
) -> Vec<Option<Addr>> {
    let path = trace.addr_path();
    let mut out: Vec<Option<Addr>> = Vec::with_capacity(path.len());
    let mut i = 0usize;
    while i < path.len() {
        out.push(path[i]);
        if let Some(a) = path[i] {
            // The next responsive hop (stars in between block splicing —
            // the pair was not adjacent in the measured view).
            if let Some(b) = path.get(i + 1).copied().flatten() {
                if let Some(t) = revelations.get(&(a, b)).and_then(RevelationOutcome::tunnel) {
                    out.extend(t.hops().into_iter().map(Some));
                }
            }
        }
        i += 1;
    }
    out
}

/// Corrected paths for a whole trace set.
pub fn corrected_paths(
    traces: &[Trace],
    revelations: &HashMap<(Addr, Addr), RevelationOutcome>,
) -> Vec<Vec<Option<Addr>>> {
    traces
        .iter()
        .map(|t| corrected_path(t, revelations))
        .collect()
}

/// Builds the *visible* (corrected) snapshot next to the *invisible*
/// (measured) one, with the same resolver.
pub fn before_after_snapshots<R>(
    traces: &[Trace],
    revelations: &HashMap<(Addr, Addr), RevelationOutcome>,
    mut resolve: R,
) -> (ItdkSnapshot, ItdkSnapshot)
where
    R: FnMut(Addr) -> NodeInfo + Copy,
{
    let raw: Vec<Vec<Option<Addr>>> = traces.iter().map(Trace::addr_path).collect();
    let before = ItdkSnapshot::build(&raw, &mut resolve);
    let fixed = corrected_paths(traces, revelations);
    let after = ItdkSnapshot::build(&fixed, resolve);
    (before, after)
}

/// Responsive path lengths before and after correction, per trace that
/// reached its destination (Fig. 11's two distributions).
pub fn trace_lengths(
    traces: &[Trace],
    revelations: &HashMap<(Addr, Addr), RevelationOutcome>,
) -> Vec<(usize, usize)> {
    traces
        .iter()
        .filter(|t| t.reached)
        .map(|t| {
            let before = t.responsive_count();
            let after = corrected_path(t, revelations)
                .iter()
                .filter(|h| h.is_some())
                .count();
            (before, after)
        })
        .collect()
}

/// One point of an RTT-versus-hop profile.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RttPoint {
    /// Hop number (1-based position in the rendered path).
    pub hop: usize,
    /// RTT in milliseconds.
    pub rtt_ms: f64,
}

/// The measured per-hop RTT profile of a trace (Fig. 6's "Invisible"
/// curve).
pub fn rtt_profile(trace: &Trace) -> Vec<RttPoint> {
    trace
        .hops
        .iter()
        .filter(|h| h.addr.is_some())
        .enumerate()
        .filter_map(|(i, h)| h.rtt_ms.map(|rtt_ms| RttPoint { hop: i + 1, rtt_ms }))
        .collect()
}

/// The corrected profile (Fig. 6's "Visible" curve): revealed hops are
/// inserted with the RTTs observed during revelation, decomposing the
/// tunnel's apparent delay jump.
pub fn corrected_rtt_profile(trace: &Trace, tunnel: &RevealedTunnel) -> Vec<RttPoint> {
    let mut out = Vec::new();
    let mut hop = 0usize;
    for h in trace.hops.iter().filter(|h| h.addr.is_some()) {
        hop += 1;
        if let Some(rtt_ms) = h.rtt_ms {
            out.push(RttPoint { hop, rtt_ms });
        }
        if h.addr == Some(tunnel.ingress) {
            for step in tunnel.steps.iter().rev() {
                for revealed in &step.new_hops {
                    hop += 1;
                    if let Some(rtt_ms) = revealed.rtt_ms {
                        out.push(RttPoint { hop, rtt_ms });
                    }
                }
            }
        }
    }
    out
}

/// Graph density over the candidate Ingress–Egress node set, before and
/// after revelation (the last two columns of Table 4).
pub fn density_before_after(
    before: &ItdkSnapshot,
    after: &ItdkSnapshot,
    pair_addrs: &BTreeSet<Addr>,
) -> (f64, f64) {
    let nodes_before: BTreeSet<usize> = pair_addrs
        .iter()
        .filter_map(|&a| before.node_of(a))
        .collect();
    let nodes_after: BTreeSet<usize> = pair_addrs
        .iter()
        .filter_map(|&a| after.node_of(a))
        .collect();
    (
        before.density_of(&nodes_before),
        after.density_of(&nodes_after),
    )
}

/// The corrected RFA of an egress hop once its forward tunnel is known
/// (Fig. 7b): the revealed hop count is added back to the forward
/// length.
pub fn corrected_rfa(rfa: i32, tunnel: &RevealedTunnel) -> i32 {
    rfa - tunnel.len() as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_core::{RevealMethod, RevealStep, RevealedHop};
    use wormhole_net::{LabelStack, ReplyKind};
    use wormhole_probe::{HopOutcome, TraceHop};

    fn a(x: u8) -> Addr {
        Addr::new(10, 0, 0, x)
    }

    fn hop(ttl: u8, x: u8, rtt: f64) -> TraceHop {
        TraceHop {
            ttl,
            addr: Some(a(x)),
            reply_ip_ttl: Some(250),
            rtt_ms: Some(rtt),
            labels: LabelStack::empty(),
            kind: Some(ReplyKind::TimeExceeded),
            outcome: HopOutcome::Replied,
            attempts: 1,
            truth: None,
        }
    }

    fn revealed(x: u8, rtt: f64) -> RevealedHop {
        RevealedHop {
            addr: a(x),
            labeled: false,
            rtt_ms: Some(rtt),
            truth: None,
        }
    }

    fn tunnel(ingress: u8, egress: u8, hops: &[u8]) -> RevealedTunnel {
        RevealedTunnel {
            ingress: a(ingress),
            egress: a(egress),
            target: a(99),
            steps: vec![RevealStep {
                target: a(egress),
                new_hops: hops.iter().map(|&h| revealed(h, 5.0)).collect(),
            }],
            extra_probes: 7,
            revisits: 0,
            stars: 0,
            retrace_mismatch: false,
        }
    }

    fn trace(hops: Vec<TraceHop>) -> Trace {
        Trace {
            src: a(100),
            dst: a(99),
            flow: 0,
            hops,
            reached: true,
            probes: 3,
            truncated: false,
        }
    }

    #[test]
    fn splice_inserts_revealed_hops() {
        let t = trace(vec![hop(1, 1, 1.0), hop(2, 2, 2.0), hop(3, 9, 50.0)]);
        let mut revs = HashMap::new();
        revs.insert(
            (a(2), a(9)),
            RevelationOutcome::complete(tunnel(2, 9, &[21, 22])),
        );
        let fixed = corrected_path(&t, &revs);
        let addrs: Vec<u8> = fixed.iter().map(|h| h.unwrap().octets()[3]).collect();
        assert_eq!(addrs, [1, 2, 21, 22, 9]);
    }

    #[test]
    fn stars_block_splicing() {
        let t = trace(vec![hop(1, 2, 1.0), TraceHop::star(2), hop(3, 9, 2.0)]);
        let mut revs = HashMap::new();
        revs.insert(
            (a(2), a(9)),
            RevelationOutcome::complete(tunnel(2, 9, &[21])),
        );
        let fixed = corrected_path(&t, &revs);
        assert_eq!(fixed.len(), 3);
    }

    #[test]
    fn lengths_before_after() {
        let t = trace(vec![hop(1, 1, 1.0), hop(2, 2, 2.0), hop(3, 9, 3.0)]);
        let mut revs = HashMap::new();
        revs.insert(
            (a(2), a(9)),
            RevelationOutcome::complete(tunnel(2, 9, &[21, 22, 23])),
        );
        let lens = trace_lengths(&[t], &revs);
        assert_eq!(lens, vec![(3, 6)]);
    }

    #[test]
    fn rtt_profiles() {
        let t = trace(vec![hop(1, 1, 1.0), hop(2, 2, 2.0), hop(3, 9, 52.0)]);
        let before = rtt_profile(&t);
        assert_eq!(before.len(), 3);
        assert_eq!(before[2].hop, 3);
        let tun = tunnel(2, 9, &[21, 22]);
        let after = corrected_rtt_profile(&t, &tun);
        assert_eq!(after.len(), 5);
        // Revealed hops slot in after the ingress (hop 2).
        assert_eq!(after[2].hop, 3);
        assert_eq!(after[2].rtt_ms, 5.0);
        assert_eq!(after[4].hop, 5);
        assert_eq!(after[4].rtt_ms, 52.0);
        let _ = RevealMethod::Dpr;
    }

    #[test]
    fn snapshots_and_density() {
        let t = trace(vec![hop(1, 1, 1.0), hop(2, 2, 2.0), hop(3, 9, 3.0)]);
        let mut revs = HashMap::new();
        revs.insert(
            (a(2), a(9)),
            RevelationOutcome::complete(tunnel(2, 9, &[21])),
        );
        let resolve = |addr: Addr| NodeInfo {
            key: addr.0 as u64,
            asn: None,
        };
        let (before, after) = before_after_snapshots(&[t], &revs, resolve);
        assert_eq!(before.num_nodes(), 3);
        assert_eq!(after.num_nodes(), 4);
        let pair: BTreeSet<Addr> = [a(2), a(9)].into_iter().collect();
        let (db, da) = density_before_after(&before, &after, &pair);
        assert!(db > da, "direct edge removed: {db} > {da}");
    }

    #[test]
    fn rfa_correction() {
        let tun = tunnel(2, 9, &[21, 22, 23]);
        assert_eq!(corrected_rfa(3, &tun), 0);
        assert_eq!(corrected_rfa(5, &tun), 2);
    }
}
