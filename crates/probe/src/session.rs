//! Vantage-point probing sessions with budget accounting.
//!
//! The paper's campaign ran five VP teams at 25 packets/s for weeks; our
//! sessions count the probe packets they send so experiments can report
//! the probing budget a real deployment would need.

use crate::ping::{ping, PingResult};
use crate::trace::{AddrPath, Trace};
use crate::traceroute::{trace_into, TracerouteOpts};
use wormhole_net::{
    Addr, ControlPlane, Engine, EngineStats, FaultPlan, Network, ProbeState, RouterId, SubstrateRef,
};

/// Session counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionStats {
    /// Individual probe packets injected; equal to
    /// [`Session::engine_stats`]`.probes`.
    pub probes: u64,
}

/// A probing session bound to one vantage point.
///
/// A session is the per-worker half of the substrate/worker split: it
/// owns its engine's [`ProbeState`] (fault RNG stream, counters) and
/// its own TTL/flow bookkeeping, while the topology and routing state
/// behind its [`SubstrateRef`] are immutable and shared. Sessions are
/// `Send`, so a campaign can move one per vantage point onto scoped
/// worker threads.
pub struct Session<'a> {
    eng: Engine<'a>,
    vp: RouterId,
    src: Addr,
    opts: TracerouteOpts,
    next_id: u16,
    /// The trace [`Session::traceroute`] and [`Session::addr_path`]
    /// run into; its hop buffer is reused from trace to trace.
    trace: Trace,
    /// Counters.
    pub stats: SessionStats,
}

// Compile-time audit: campaign workers move sessions across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session<'_>>();
};

impl<'a> Session<'a> {
    /// A fault-free session probing from `vp`.
    pub fn new(net: &'a Network, cp: &'a ControlPlane, vp: RouterId) -> Session<'a> {
        Session::with_faults(net, cp, vp, FaultPlan::none(), 0)
    }

    /// A session with fault injection.
    ///
    /// # Panics
    /// Under `debug_assertions`, refuses to start over a network with
    /// `Error`-level static-analysis findings (lint before simulate).
    pub fn with_faults(
        net: &'a Network,
        cp: &'a ControlPlane,
        vp: RouterId,
        faults: FaultPlan,
        seed: u64,
    ) -> Session<'a> {
        #[cfg(debug_assertions)]
        wormhole_lint::deny_errors("Session", &wormhole_lint::check_plane(net, cp));
        Session::over(
            SubstrateRef::new(net, cp),
            vp,
            ProbeState::new(faults, seed),
        )
    }

    /// A session over an already-linted substrate with externally-built
    /// worker state. No lint gate runs here: the caller (typically a
    /// campaign, which lints the substrate once for all of its workers)
    /// is responsible for having vetted the network.
    pub fn over(sub: SubstrateRef<'a>, vp: RouterId, state: ProbeState) -> Session<'a> {
        let src = sub.net.router(vp).loopback;
        // Sessions consume replies through [`Trace`]/[`PingResult`] and
        // never read the engine's ground-truth path recordings, so the
        // recording (and its per-probe heap traffic) stays off: the
        // steady-state campaign walk is allocation-free.
        let mut eng = Engine::over(sub, state);
        eng.set_record_paths(false);
        Session {
            eng,
            vp,
            src,
            opts: TracerouteOpts::campaign(),
            next_id: 1,
            trace: Trace {
                src,
                dst: src,
                flow: 0,
                hops: Vec::new(),
                reached: false,
                probes: 0,
                truncated: false,
            },
            stats: SessionStats::default(),
        }
    }

    /// Restarts the session at `vp` with fresh worker state seeded with
    /// `seed`: virtual clock 0, empty rate-limiter buckets, zeroed
    /// counters, an undrawn RNG stream and echo ids from 1, under the
    /// same fault plan and options. It then probes exactly like
    /// `Session::over(sub, vp, ProbeState::new(faults, seed))`; only
    /// its buffers' capacity carries over.
    pub fn restart(&mut self, vp: RouterId, seed: u64) {
        self.eng.state.reset(seed);
        self.vp = vp;
        self.src = self.eng.network().router(vp).loopback;
        self.next_id = 1;
        self.stats = SessionStats::default();
    }

    /// Overrides the traceroute options (default: the §4 campaign
    /// settings).
    pub fn set_opts(&mut self, opts: TracerouteOpts) {
        self.opts = opts;
    }

    /// The vantage point.
    pub fn vp(&self) -> RouterId {
        self.vp
    }

    /// The vantage point's source address.
    pub fn src(&self) -> Addr {
        self.src
    }

    /// The network probed by this session.
    pub fn network(&self) -> &'a Network {
        self.eng.network()
    }

    /// The underlying engine's traffic counters — in particular the
    /// `heap_allocs` proof counter the benches and the regression gate
    /// assert stays at zero for the recording-off campaign walk.
    pub fn engine_stats(&self) -> &EngineStats {
        self.eng.stats()
    }

    fn flow_for(&self, dst: Addr) -> u16 {
        // Stable per-(vp, dst) flow id: Paris traceroute keeps the flow
        // constant within a trace; different destinations hash onto
        // different ECMP branches.
        let mut h: u32 = 0x811c_9dc5;
        for b in dst.0.to_le_bytes().into_iter().chain([self.vp.0 as u8]) {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
        h as u16
    }

    /// Runs a Paris traceroute to `dst` into the session's trace.
    fn run_trace(&mut self, dst: Addr) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.trace.src = self.src;
        self.trace.dst = dst;
        self.trace.flow = self.flow_for(dst);
        let before = self.eng.stats().probes;
        trace_into(&mut self.eng, self.vp, id, &self.opts, &mut self.trace);
        self.stats.probes += self.eng.stats().probes - before;
    }

    /// Runs a Paris traceroute to `dst`. The returned trace's hops are
    /// one exact-size copy of the session's reused buffer.
    pub fn traceroute(&mut self, dst: Addr) -> Trace {
        self.run_trace(dst);
        self.trace.clone()
    }

    /// Runs a Paris traceroute to `dst` and returns only its address
    /// path ([`Trace::addr_path`]). The hops stay in the session's
    /// reused buffer, so no [`Trace`] is built and dropped, and a path
    /// of up to three hops takes no heap memory at all.
    pub fn addr_path(&mut self, dst: Addr) -> AddrPath {
        self.run_trace(dst);
        AddrPath::of(&self.trace.hops)
    }

    /// Pings `dst` (two attempts). The result carries attempts-used and
    /// the last failure kind even when no reply arrived.
    pub fn ping(&mut self, dst: Addr) -> PingResult {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let flow = self.flow_for(dst);
        let before = self.eng.stats().probes;
        let r = ping(&mut self.eng, self.vp, self.src, dst, flow, id, 2);
        self.stats.probes += self.eng.stats().probes - before;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topo::{gns3_fig2, Fig2Config};

    #[test]
    fn session_counts_probes() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        let t = sess.traceroute(s.target);
        assert!(t.reached);
        assert_eq!(sess.stats.probes, 7);
        assert!(sess.ping(s.target).is_reply());
        assert_eq!(sess.stats.probes, 8);
        assert_eq!(sess.engine_stats().probes, 8);
        assert_eq!(
            sess.engine_stats().heap_allocs,
            0,
            "sessions keep path recording off, so the walk must not allocate"
        );
    }

    #[test]
    fn a_restarted_session_probes_like_a_new_one() {
        use wormhole_net::RateLimit;
        let s = gns3_fig2(Fig2Config::Default);
        let sub = SubstrateRef::new(&s.net, &s.cp);
        let faults = FaultPlan {
            loss: 0.1,
            te_limit: Some(RateLimit {
                per_sec: 2.0,
                burst: 2.0,
                mpls_only: false,
            }),
            ..FaultPlan::default()
        };
        let ce2 = s.net.router_by_name("CE2").unwrap().id;
        let back = s.net.router(s.vp).loopback;
        let run = |sess: &mut Session<'_>, dst: Addr| {
            let t = sess.traceroute(dst);
            let p = sess.ping(dst);
            (t, p, sess.engine_stats().clone(), sess.stats.clone())
        };
        // Draw from the RNG, drain buckets, advance the clock and the
        // echo ids, then restart elsewhere under another seed.
        let mut used = Session::over(sub, s.vp, ProbeState::new(faults.clone(), 1));
        run(&mut used, s.target);
        assert!(used.engine_stats().probes > 0);
        // End on the probe a restarted session sends first — echo id 1
        // from CE2 to `back` at TTL 2 — so its remembered forward leg
        // matches that probe's path key and TTL.
        used.restart(ce2, 3);
        used.set_opts(TracerouteOpts {
            max_ttl: 2,
            ..TracerouteOpts::campaign()
        });
        used.traceroute(back);
        used.set_opts(TracerouteOpts::campaign());
        used.restart(ce2, 2);
        let mut fresh = Session::over(sub, ce2, ProbeState::new(faults, 2));
        assert_eq!(used.vp(), fresh.vp());
        assert_eq!(used.src(), fresh.src());
        for _ in 0..3 {
            assert_eq!(run(&mut used, back), run(&mut fresh, back));
        }
    }

    #[test]
    fn flows_are_stable_per_destination() {
        let s = gns3_fig2(Fig2Config::Default);
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        let t1 = sess.traceroute(s.target);
        let t2 = sess.traceroute(s.target);
        assert_eq!(t1.flow, t2.flow);
        let other = s.left_addr("PE2");
        let t3 = sess.traceroute(other);
        // Different destination (almost surely) hashes differently; at
        // minimum the trace is still well-formed.
        assert!(t3.responsive_count() > 0);
    }
}
