//! Engine transcript: pins every byte the engine hands back, under
//! every built-in fault scenario.
//!
//! The campaign rows of `BENCH_campaign.json` fix the bytes of the
//! clean and hostile scenarios only, and no row fixes the ground-truth
//! paths the engine records. Here, for each of [`FaultScenario::ALL`],
//! the transcript covers the quick-scale Internet and the Fig. 2
//! testbeds (the four LDP configurations and two RSVP-TE ones, which
//! add label-switched replies, UHP and TE tunnels). On each, every
//! vantage point runs a [`Session`] traceroute to every router
//! loopback and pings every hop it saw, and a path-recording
//! [`Engine`] sweeps every router address TTL by TTL — from the
//! vantage point's loopback, from one of its interface addresses, and
//! from another vantage point's loopback — plus one unrouted address.
//! The traces, the ping results, every [`SendOutcome`] field
//! (`fwd_path` and `ret_path` included) and the [`EngineStats`] of both
//! walks (`heap_allocs` included) are folded into one checksum per
//! scenario.
//!
//! A deliberate change to what the engine or the probe layer returns
//! re-pins `EXPECTED`; the failure message prints the whole table.

use wormhole::net::wire::{checksum, Wire};
use wormhole::net::{
    Addr, ControlPlane, Engine, FaultScenario, Network, Packet, PoppingMode, ProbeState, ReplyKind,
    RouterId, SendOutcome, SubstrateRef,
};
use wormhole::probe::Session;
use wormhole::topo::{generate, gns3_fig2, gns3_fig2_te, Fig2Config, InternetConfig, Scenario};

/// The campaign seed every walk's RNG streams derive from.
const SEED: u64 = 5;

/// Highest TTL of the engine sweep.
const MAX_TTL: u8 = 32;

/// One checksum per scenario, in [`FaultScenario::ALL`] order.
const EXPECTED: [(&str, u64); 7] = [
    ("clean", 5331754931124915195),
    ("lossy_core", 12896595244054968970),
    ("rate_limited_edge", 3438396056004445487),
    ("hostile", 9912414401194667367),
    ("deceptive_ttl", 2916110012918253985),
    ("artifact_lb", 7299426625663433408),
    ("paranoid", 5108103937726569035),
];

/// A network the transcript walks, with the routers that probe it.
struct Bed<'a> {
    net: &'a Network,
    cp: &'a ControlPlane,
    vps: Vec<RouterId>,
}

impl<'a> Bed<'a> {
    /// A Fig. 2 testbed probed from its VP and from CE2, the target's
    /// router, so both directions through the tunnel are walked.
    fn testbed(s: &'a Scenario) -> Bed<'a> {
        let ce2 = s.net.owner(s.target).expect("the target has an owner");
        Bed {
            net: &s.net,
            cp: &s.cp,
            vps: vec![s.vp, ce2],
        }
    }
}

/// Every field of `out`, in declaration order.
fn put_outcome(out: &SendOutcome, bytes: &mut Vec<u8>) {
    match out {
        SendOutcome::Reply(r) => {
            0u8.put(bytes);
            r.kind.put(bytes);
            r.from.put(bytes);
            r.ip_ttl.put(bytes);
            r.mpls_ext.as_slice().to_vec().put(bytes);
            r.rtt_ms.put(bytes);
            r.replier.put(bytes);
            r.fwd_path.put(bytes);
            r.ret_path.put(bytes);
        }
        SendOutcome::Lost { at, reason } => {
            1u8.put(bytes);
            at.put(bytes);
            format!("{reason:?}").put(bytes);
        }
    }
}

/// The per-VP session walk: a traceroute to every loopback, then a ping
/// of every responsive hop of those traces, in trace order.
fn session_walk(bed: &Bed<'_>, scenario: FaultScenario, bytes: &mut Vec<u8>) {
    let sub = SubstrateRef::new(bed.net, bed.cp);
    for (i, &vp) in bed.vps.iter().enumerate() {
        let state = ProbeState::for_worker(scenario.plan(), SEED, i as u64);
        let mut sess = Session::over(sub, vp, state);
        let mut hops = Vec::new();
        for r in bed.net.routers() {
            let t = sess.traceroute(r.loopback);
            hops.extend(t.hops.iter().filter_map(|h| h.addr));
            t.put(bytes);
        }
        for a in hops {
            sess.ping(a).put(bytes);
        }
        sess.engine_stats().put(bytes);
        assert_eq!(
            sess.engine_stats().heap_allocs,
            0,
            "{}: a session walk allocated",
            scenario.name()
        );
    }
}

/// Sends echo requests from `vp` with source `src` to `dst` at TTL 1,
/// 2, … until an echo-reply or an unreachable comes back (or
/// [`MAX_TTL`]), recording every outcome.
fn ttl_sweep(eng: &mut Engine<'_>, vp: RouterId, src: Addr, dst: Addr, bytes: &mut Vec<u8>) {
    for ttl in 1..=MAX_TTL {
        let out = eng.send(
            vp,
            Packet::echo_request(src, dst, ttl, 7, 1, u16::from(ttl)),
        );
        put_outcome(&out, bytes);
        if matches!(
            out.reply().map(|r| r.kind),
            Some(ReplyKind::EchoReply | ReplyKind::DestUnreachable)
        ) {
            break;
        }
    }
}

/// The path-recording engine sweep from every VP, over every router
/// loopback and interface address.
fn engine_sweep(bed: &Bed<'_>, scenario: FaultScenario, bytes: &mut Vec<u8>) {
    let sub = SubstrateRef::new(bed.net, bed.cp);
    let n = bed.vps.len();
    let routers = bed.net.routers();
    let dsts = routers
        .iter()
        .flat_map(|r| std::iter::once(r.loopback).chain(r.ifaces.iter().map(|f| f.addr)))
        .chain([Addr::new(9, 9, 9, 9)]);
    for (i, &vp) in bed.vps.iter().enumerate() {
        let state = ProbeState::for_worker(scenario.plan(), SEED, (n + i) as u64);
        let mut eng = Engine::over(sub, state);
        let router = bed.net.router(vp);
        let sources = [
            router.loopback,
            router.ifaces.first().map_or(router.loopback, |f| f.addr),
            bed.net.router(bed.vps[(i + 1) % n]).loopback,
        ];
        for dst in dsts.clone() {
            for src in sources {
                ttl_sweep(&mut eng, vp, src, dst, bytes);
            }
        }
        eng.stats().put(bytes);
    }
}

#[test]
fn every_scenario_reproduces_its_pinned_transcript() {
    let internet = generate(&InternetConfig::small(8));
    let testbeds: Vec<Scenario> = Fig2Config::ALL
        .into_iter()
        .map(gns3_fig2)
        .chain([
            gns3_fig2_te(PoppingMode::Php, true),
            gns3_fig2_te(PoppingMode::Uhp, false),
        ])
        .collect();
    let mut beds = vec![Bed {
        net: &internet.net,
        cp: &internet.cp,
        vps: internet.vps.clone(),
    }];
    beds.extend(testbeds.iter().map(Bed::testbed));
    let got: Vec<(&str, u64)> = FaultScenario::ALL
        .into_iter()
        .map(|scenario| {
            let mut bytes = Vec::new();
            for bed in &beds {
                session_walk(bed, scenario, &mut bytes);
                engine_sweep(bed, scenario, &mut bytes);
            }
            (scenario.name(), checksum(&bytes))
        })
        .collect();
    assert_eq!(got, EXPECTED, "transcript checksums moved: {got:#?}");
}
