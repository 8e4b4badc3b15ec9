//! Resumed forward legs are exact: a probe that [`Engine::send`] starts
//! where the previous probe of its trace ended sees what a walk from the
//! vantage point sees.
//!
//! A [`Session`] keeps path recording off, so its Paris probes resume
//! the last forward leg; an [`Engine`] that records ground-truth paths
//! always walks from the origin. Both run the same probes from the same
//! RNG seed: every trace, ping result and [`SendOutcome`] must match,
//! and so must the [`EngineStats`] (all but `heap_allocs`, which only
//! the recording engine charges). Any fault draw a resumed probe skips
//! or adds shifts the shared RNG stream and shows up in a later probe.
//!
//! The beds are quick Internets at several seeds and the six Fig. 2
//! testbeds (four LDP configurations, two RSVP-TE ones), under every
//! [`FaultScenario`]; an ignored row adds the tenfold Internet.

use wormhole::net::{
    Addr, ControlPlane, Engine, EngineStats, FaultScenario, Network, Packet, PoppingMode,
    ProbeState, ReplyKind, RouterId, SendOutcome, SubstrateRef,
};
use wormhole::probe::{ping, traceroute, Session, TracerouteOpts};
use wormhole::topo::{generate, gns3_fig2, gns3_fig2_te, Fig2Config, InternetConfig, Scenario};

/// A network probed from some of its routers.
struct Bed<'a> {
    net: &'a Network,
    cp: &'a ControlPlane,
    vps: Vec<RouterId>,
}

/// The counters that must agree between the two walks.
fn counters(s: &EngineStats) -> [u64; 4] {
    [s.probes, s.crossings, s.replies, s.lost]
}

/// What the prober observes of `out`, plus the replier; the recorded
/// paths are left out (only one side records them).
fn observed(out: &SendOutcome) -> String {
    match out {
        SendOutcome::Reply(r) => format!(
            "{:?} {} {} {:?} {:x} {:?}",
            r.kind,
            r.from,
            r.ip_ttl,
            r.mpls_ext,
            r.rtt_ms.to_bits(),
            r.replier
        ),
        SendOutcome::Lost { at, reason } => format!("lost {at:?} {reason:?}"),
    }
}

/// Each router's loopback and interfaces, plus one unrouted address.
fn targets(net: &Network) -> Vec<Addr> {
    net.routers()
        .iter()
        .flat_map(|r| std::iter::once(r.loopback).chain(r.ifaces.iter().map(|f| f.addr)))
        .chain([Addr::new(9, 9, 9, 9)])
        .collect()
}

/// The session walk from `vp`: a campaign traceroute and a ping to
/// every target, against the same calls on a path-recording engine.
fn session_walk(bed: &Bed<'_>, scenario: FaultScenario, vp: RouterId, seed: u64, dsts: &[Addr]) {
    let sub = SubstrateRef::new(bed.net, bed.cp);
    let mut sess = Session::over(sub, vp, ProbeState::new(scenario.plan(), seed));
    let mut full = Engine::over(sub, ProbeState::new(scenario.plan(), seed));
    let opts = TracerouteOpts::campaign();
    let src = sess.src();
    // A session numbers its echo ids from 1, one per trace or ping.
    let mut id = 1u16;
    for &dst in dsts {
        let t = sess.traceroute(dst);
        let want = traceroute(&mut full, vp, src, dst, t.flow, id, &opts);
        assert_eq!(t, want, "{}: trace {vp:?} → {dst}", scenario.name());
        let p = sess.ping(dst);
        let want = ping(&mut full, vp, src, dst, t.flow, id + 1, 2);
        assert_eq!(p, want, "{}: ping {vp:?} → {dst}", scenario.name());
        id += 2;
        assert_eq!(
            counters(sess.engine_stats()),
            counters(full.stats()),
            "{}: counters after {vp:?} → {dst}",
            scenario.name()
        );
    }
    assert_eq!(sess.engine_stats().heap_allocs, 0);
}

/// Raw sends in an order that exercises every resume case: TTLs rising
/// from 1, each sent twice (a same-TTL retry), until the destination or
/// an unreachable answers; then a fall back to TTL 1 and a probe of
/// another echo id. Two engines send them, one resuming (recording off)
/// and one walking in full.
fn send_walk(bed: &Bed<'_>, scenario: FaultScenario, vp: RouterId, seed: u64, dsts: &[Addr]) {
    let sub = SubstrateRef::new(bed.net, bed.cp);
    let mut resumed = Engine::over(sub, ProbeState::new(scenario.plan(), seed));
    resumed.set_record_paths(false);
    let mut full = Engine::over(sub, ProbeState::new(scenario.plan(), seed));
    let router = bed.net.router(vp);
    let sources = [
        router.loopback,
        router.ifaces.first().map_or(router.loopback, |f| f.addr),
    ];
    let mut seq = 0u16;
    let mut send = |src: Addr, dst: Addr, ttl: u8, id: u16| {
        seq = seq.wrapping_add(1);
        let pkt = Packet::echo_request(src, dst, ttl, 7, id, seq);
        let got = resumed.send(vp, pkt);
        let want = full.send(vp, pkt);
        assert_eq!(
            observed(&got),
            observed(&want),
            "{}: {src} → {dst} at TTL {ttl}, id {id}",
            scenario.name()
        );
        got.reply()
            .is_some_and(|r| r.kind != ReplyKind::TimeExceeded)
    };
    for &dst in dsts {
        for src in sources {
            for ttl in 1..=32 {
                let answered = send(src, dst, ttl, 1);
                if send(src, dst, ttl, 1) || answered {
                    break;
                }
            }
            for (ttl, id) in [(1, 1), (3, 2), (4, 1), (2, 1)] {
                send(src, dst, ttl, id);
            }
        }
    }
    assert_eq!(
        counters(resumed.stats()),
        counters(full.stats()),
        "{}: send-walk counters from {vp:?}",
        scenario.name()
    );
}

/// Both walks from every vantage point under every scenario: the
/// session walk to `dsts`, the send walk to `sends`.
fn check(bed: &Bed<'_>, dsts: &[Addr], sends: &[Addr]) {
    for scenario in FaultScenario::ALL {
        for (i, &vp) in bed.vps.iter().enumerate() {
            let seed = 0x5EED ^ i as u64;
            session_walk(bed, scenario, vp, seed, dsts);
            send_walk(bed, scenario, vp, seed, sends);
        }
    }
}

/// Every router's loopback, plus one unrouted address.
fn loopbacks(net: &Network) -> Vec<Addr> {
    net.routers()
        .iter()
        .map(|r| r.loopback)
        .chain([Addr::new(9, 9, 9, 9)])
        .collect()
}

#[test]
fn resumed_walks_equal_full_walks_on_the_fig2_testbeds() {
    let testbeds: Vec<Scenario> = Fig2Config::ALL
        .into_iter()
        .map(gns3_fig2)
        .chain([
            gns3_fig2_te(PoppingMode::Php, true),
            gns3_fig2_te(PoppingMode::Uhp, false),
        ])
        .collect();
    for s in &testbeds {
        let ce2 = s.net.owner(s.target).expect("the target has an owner");
        let bed = Bed {
            net: &s.net,
            cp: &s.cp,
            vps: vec![s.vp, ce2],
        };
        let all = targets(&s.net);
        check(&bed, &all, &all);
    }
}

#[test]
fn resumed_walks_equal_full_walks_on_quick_internets() {
    for seed in [8, 11, 1, 2] {
        let internet = generate(&InternetConfig::small(seed));
        let bed = Bed {
            net: &internet.net,
            cp: &internet.cp,
            vps: internet.vps.clone(),
        };
        check(&bed, &targets(&internet.net), &loopbacks(&internet.net));
    }
}

/// The tenfold Internet, whose paths are the campaign's longest: both
/// walks from every vantage point to every router loopback.
/// `cargo test --release --test resumed_walks -- --ignored`.
#[test]
#[ignore = "tenfold: run in release"]
fn resumed_walks_equal_full_walks_at_tenfold() {
    let internet = generate(&InternetConfig::tenfold(8));
    let bed = Bed {
        net: &internet.net,
        cp: &internet.cp,
        vps: internet.vps.clone(),
    };
    let dsts = loopbacks(&internet.net);
    check(&bed, &dsts, &dsts);
}
