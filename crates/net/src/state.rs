//! Per-worker mutable probing state.
//!
//! The counterpart of [`crate::substrate`]: while the substrate is
//! immutable and shared, everything a probing worker mutates — its
//! fault-injection RNG stream, its traffic counters, its virtual clock,
//! its per-router rate-limiter buckets and the last forward leg it
//! walked — is bundled here so each
//! campaign worker owns its state outright and no locking or
//! cross-worker ordering is ever needed.
//!
//! Reproducibility contract: a state's RNG stream is a pure function of
//! the seed it was built or reset with (a campaign derives one per task
//! via [`crate::fault::trace_seed`]), and its virtual clock advances
//! only through its own probe pacing and explicit backoff waits, so a
//! task's probes do not depend on which thread runs it.

use crate::engine::{EngineStats, LastLeg};
use crate::fault::{FaultPlan, RateLimit};
use crate::hash::WordMap;
use crate::ids::RouterId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Virtual milliseconds between consecutive probe injections — the
/// paper's 25 packets/s campaign rate. Token buckets and link flaps
/// refill/advance against this clock, so pacing and backoff genuinely
/// interact with rate limiters.
pub const PROBE_PACING_MS: f64 = 40.0;

/// A lazily materialised RNG stream: the seed is stored at
/// construction and the generator is built on the first draw, so the
/// stream is bit-identical to eager seeding. Work-stealing campaigns
/// construct one hermetic [`ProbeState`] per stolen trace, and under
/// clean (non-random) fault plans that generator is never consulted —
/// laziness removes the per-task seeding cost from the hot path
/// without touching determinism.
#[derive(Clone, Debug)]
pub(crate) struct LazyRng {
    seed: u64,
    rng: Option<StdRng>,
}

impl LazyRng {
    fn new(seed: u64) -> LazyRng {
        LazyRng { seed, rng: None }
    }

    /// The generator, materialised on first use.
    #[inline]
    pub(crate) fn get(&mut self) -> &mut StdRng {
        self.rng
            .get_or_insert_with(|| StdRng::seed_from_u64(self.seed))
    }
}

/// One per-router token bucket.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    refilled_at_ms: f64,
}

/// Which ICMP generation a bucket throttles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum IcmpClass {
    /// time-exceeded and destination-unreachable.
    TimeExceeded,
    /// echo-reply.
    EchoReply,
}

/// The mutable half of a probing engine: fault plan, RNG stream,
/// virtual clock, rate-limiter buckets, counters and the last forward
/// leg walked. A campaign worker keeps one and [`ProbeState::reset`]s
/// it for every task.
#[derive(Clone, Debug)]
pub struct ProbeState {
    /// Fault injection configuration.
    pub faults: FaultPlan,
    /// The fault/jitter RNG stream (materialised on first draw).
    pub(crate) rng: LazyRng,
    /// Traffic counters.
    pub stats: EngineStats,
    /// The worker's virtual clock, in milliseconds. Advances by
    /// [`PROBE_PACING_MS`] per injected probe and by explicit
    /// [`ProbeState::wait`] calls (retry backoff) — never by wall time.
    pub now_ms: f64,
    /// Probed and cleared, never iterated.
    buckets: WordMap<(RouterId, IcmpClass), Bucket>,
    /// The forward leg the next probe of the same trace resumes.
    pub(crate) last_leg: LastLeg,
}

impl ProbeState {
    /// State seeded directly with `seed` (single-session use).
    pub fn new(faults: FaultPlan, seed: u64) -> ProbeState {
        ProbeState {
            faults,
            rng: LazyRng::new(seed),
            stats: EngineStats::default(),
            now_ms: 0.0,
            buckets: WordMap::default(),
            last_leg: LastLeg::default(),
        }
    }

    /// Resets the state to what `ProbeState::new(faults, seed)` builds
    /// with the same fault plan: virtual clock 0, empty rate-limiter
    /// buckets (their table keeps its allocation), zeroed counters, an
    /// RNG stream seeded with `seed`, not yet drawn, and no remembered
    /// forward leg.
    pub fn reset(&mut self, seed: u64) {
        self.rng = LazyRng::new(seed);
        self.stats = EngineStats::default();
        self.now_ms = 0.0;
        self.buckets.clear();
        self.last_leg.clear();
    }

    /// A fault-free, deterministic state.
    pub fn deterministic() -> ProbeState {
        ProbeState::new(FaultPlan::none(), 0)
    }

    /// Advances the virtual clock by `ms` (retry backoff in virtual
    /// time; negative and non-finite waits are ignored).
    pub fn wait(&mut self, ms: f64) {
        if ms.is_finite() && ms > 0.0 {
            self.now_ms += ms;
        }
    }

    /// Clock tick for one injected probe.
    pub(crate) fn tick_probe(&mut self) {
        self.now_ms += PROBE_PACING_MS;
    }

    /// Consults (and consumes from) `router`'s token bucket for one
    /// ICMP generation. `true` when the reply may be generated.
    fn allow(&mut self, router: RouterId, class: IcmpClass, limit: RateLimit) -> bool {
        let now = self.now_ms;
        let b = self.buckets.entry((router, class)).or_insert(Bucket {
            tokens: limit.burst,
            refilled_at_ms: now,
        });
        let dt = (now - b.refilled_at_ms).max(0.0);
        b.tokens = (b.tokens + dt * limit.per_sec / 1000.0).min(limit.burst);
        b.refilled_at_ms = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Rate-limit gate for a *time-exceeded* / *unreachable* at
    /// `router` (`mpls` = the router's MPLS capability).
    pub(crate) fn allow_te(&mut self, router: RouterId, mpls: bool) -> bool {
        match self.faults.te_limit {
            Some(l) if mpls || !l.mpls_only => self.allow(router, IcmpClass::TimeExceeded, l),
            _ => true,
        }
    }

    /// Rate-limit gate for an *echo-reply* at `router`.
    pub(crate) fn allow_er(&mut self, router: RouterId, mpls: bool) -> bool {
        match self.faults.er_limit {
            Some(l) if mpls || !l.mpls_only => self.allow(router, IcmpClass::EchoReply, l),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn a_reset_state_replays_a_new_states_stream() {
        let draw =
            |st: &mut ProbeState| -> Vec<u64> { (0..4).map(|_| st.rng.get().next_u64()).collect() };
        let mut a = ProbeState::new(FaultPlan::none(), 7);
        let xs = draw(&mut a);
        assert_ne!(
            xs,
            draw(&mut ProbeState::new(FaultPlan::none(), 8)),
            "different seeds ⇒ different streams"
        );
        a.tick_probe();
        a.reset(7);
        assert_eq!(a.now_ms, 0.0);
        assert_eq!(draw(&mut a), xs, "a reset replays the seed's stream");
    }

    #[test]
    fn token_bucket_throttles_and_refills() {
        let plan = FaultPlan {
            te_limit: Some(RateLimit {
                per_sec: 10.0,
                burst: 2.0,
                mpls_only: false,
            }),
            ..FaultPlan::default()
        };
        let mut st = ProbeState::new(plan, 0);
        let r = RouterId(5);
        assert!(st.allow_te(r, false));
        assert!(st.allow_te(r, false));
        assert!(!st.allow_te(r, false), "burst of 2 exhausted");
        // 10 tokens/s ⇒ one token back after 100 virtual ms.
        st.wait(150.0);
        assert!(st.allow_te(r, false));
        assert!(!st.allow_te(r, false));
        // A different router has its own bucket.
        assert!(st.allow_te(RouterId(6), false));
    }

    #[test]
    fn mpls_only_limits_skip_plain_routers() {
        let plan = FaultPlan {
            er_limit: Some(RateLimit {
                per_sec: 1.0,
                burst: 1.0,
                mpls_only: true,
            }),
            ..FaultPlan::default()
        };
        let mut st = ProbeState::new(plan, 0);
        let r = RouterId(1);
        // Plain IP router: never throttled.
        assert!((0..10).all(|_| st.allow_er(r, false)));
        // MPLS router: throttled after the single-token burst.
        assert!(st.allow_er(r, true));
        assert!(!st.allow_er(r, true));
    }

    #[test]
    fn virtual_clock_advances_by_pacing_and_waits() {
        let mut st = ProbeState::deterministic();
        assert_eq!(st.now_ms, 0.0);
        st.tick_probe();
        assert_eq!(st.now_ms, PROBE_PACING_MS);
        st.wait(10.0);
        st.wait(-5.0); // ignored
        st.wait(f64::NAN); // ignored
        assert_eq!(st.now_ms, PROBE_PACING_MS + 10.0);
    }
}
