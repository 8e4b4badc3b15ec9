//! The four probing phases of the §4 campaign, each defined once.
//!
//! A phase says what one task is, how the task's seed key is derived,
//! and what running it on a session does. The campaign hands the same
//! definition to whichever executor the run selected — vantage-point
//! batches, in-process work stealing, or worker processes
//! ([`crate::distributed`]) — so the executors differ only in where a
//! task's session comes from and how its result travels back.

use crate::reveal::{reveal_between, RevealOpts, RevelationOutcome};
use crate::shard::STEAL_CHUNK;
use std::collections::{BTreeSet, HashSet};
use wormhole_net::wire::{Reader, Wire, WireError};
use wormhole_net::{Addr, RouterId};
use wormhole_probe::{AddrPath, PingResult, Session, Trace};

/// One probing phase. The phase value's own [`Wire`] encoding is the
/// context a worker process needs to run its tasks; tasks and results
/// cross the process boundary through their own encodings.
pub(crate) trait Phase: Wire + Sync {
    /// Phase tag, named by shard specs and files and folded into every
    /// task's seed key.
    const TAG: u8;
    /// Phase label, as [`crate::DegradedShard::phase`] reports it.
    const LABEL: &'static str;
    /// Tasks one stealing claim covers. Only contention on the shared
    /// cursor depends on it, never results.
    const CHUNK: usize = STEAL_CHUNK;
    /// One task; the owning vantage point travels beside it.
    type Task: Copy + Send + Sync + Wire;
    /// What one task produces.
    type Out: Send + Wire;
    /// State a task may read and extend: one value per task in hermetic
    /// sessions, one per vantage-point batch under
    /// [`crate::Scheduling::VpBatches`].
    type Scratch: Default;
    /// The task's seed key: a hermetic session draws its fault RNG
    /// stream from `(campaign seed, vp, key)`.
    fn key(task: &Self::Task) -> u64;
    /// Runs one task on `sess`.
    fn run(
        &self,
        sess: &mut Session<'_>,
        scratch: &mut Self::Scratch,
        task: Self::Task,
    ) -> Self::Out;
}

/// Folds a phase tag and up to two identifying values into a task's
/// seed key, so a VP probing the same address in two phases still draws
/// from two distinct RNG streams. Only [`Phase::key`] calls it.
fn steal_key(tag: u8, a: u64, b: u64) -> u64 {
    (u64::from(tag) << 56) ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ b
}

/// Phase 1: one bootstrap traceroute, kept as its IP path (inline when
/// short, as nearly every bootstrap path is).
pub(crate) struct Bootstrap;

/// Phase 4: one Paris traceroute to an HDN-neighbourhood target.
pub(crate) struct Probe {
    /// The in-process chaos hook
    /// ([`crate::CampaignConfig::chaos_panic_vp`]): every task of this
    /// `(vp index, router)` panics. Worker processes never receive it.
    pub(crate) chaos: Option<(usize, RouterId)>,
}

/// Fingerprinting: one echo-request ping of a discovered address.
pub(crate) struct Fingerprint;

/// Phase 5b: the DPR/BRPR recursion over one candidate `(x, y, d)`, plus
/// echo-reply pings of the revealed hops phase 4 did not discover.
pub(crate) struct Reveal {
    /// The recursion options, with `paris_check` already resolved.
    pub(crate) opts: RevealOpts,
    /// Every address phase 4 discovered (and so already pinged).
    pub(crate) discovered: BTreeSet<Addr>,
}

impl Phase for Bootstrap {
    const TAG: u8 = 1;
    const LABEL: &'static str = "bootstrap";
    type Task = Addr;
    type Out = AddrPath;
    type Scratch = ();

    fn key(t: &Addr) -> u64 {
        steal_key(Self::TAG, u64::from(t.0), 0)
    }

    fn run(&self, sess: &mut Session<'_>, _: &mut (), t: Addr) -> AddrPath {
        sess.addr_path(t)
    }
}

impl Phase for Probe {
    const TAG: u8 = 2;
    const LABEL: &'static str = "probe";
    type Task = Addr;
    type Out = Trace;
    type Scratch = ();

    fn key(t: &Addr) -> u64 {
        steal_key(Self::TAG, u64::from(t.0), 0)
    }

    fn run(&self, sess: &mut Session<'_>, _: &mut (), t: Addr) -> Trace {
        if let Some((idx, vp)) = self.chaos {
            assert!(sess.vp() != vp, "chaos: injected worker panic (vp {idx})");
        }
        sess.traceroute(t)
    }
}

impl Phase for Fingerprint {
    const TAG: u8 = 3;
    const LABEL: &'static str = "fingerprint";
    type Task = Addr;
    type Out = PingResult;
    type Scratch = ();

    fn key(a: &Addr) -> u64 {
        steal_key(Self::TAG, u64::from(a.0), 0)
    }

    fn run(&self, sess: &mut Session<'_>, _: &mut (), a: Addr) -> PingResult {
        sess.ping(a)
    }
}

impl Phase for Reveal {
    const TAG: u8 = 4;
    const LABEL: &'static str = "revelation";
    // Pairs are few and individually heavy (a whole recursion each), so
    // claims stay per task: a wider chunk could hand one worker the
    // entire phase.
    const CHUNK: usize = 1;
    type Task = (Addr, Addr, Addr);
    type Out = (RevelationOutcome, Vec<(Addr, Option<u8>)>);
    /// The addresses already pinged by this session.
    type Scratch = HashSet<Addr>;

    fn key(&(x, y, _): &(Addr, Addr, Addr)) -> u64 {
        steal_key(Self::TAG, u64::from(x.0), u64::from(y.0))
    }

    fn run(
        &self,
        sess: &mut Session<'_>,
        pinged: &mut HashSet<Addr>,
        (x, y, d): (Addr, Addr, Addr),
    ) -> Self::Out {
        let out = reveal_between(sess, x, y, d, &self.opts);
        let mut ers: Vec<(Addr, Option<u8>)> = Vec::new();
        if let Some(t) = out.tunnel() {
            for step in &t.steps {
                for h in &step.new_hops {
                    if !self.discovered.contains(&h.addr) && pinged.insert(h.addr) {
                        ers.push((h.addr, sess.ping(h.addr).reply_ip_ttl()));
                    }
                }
            }
        }
        (out, ers)
    }
}

/// Phases whose tasks carry everything they need ship no context.
macro_rules! no_context {
    ($($phase:ident),+) => {$(
        impl Wire for $phase {
            fn put(&self, _: &mut Vec<u8>) {}

            fn take(_: &mut Reader<'_>) -> Result<$phase, WireError> {
                Ok($phase)
            }
        }
    )+};
}

no_context!(Bootstrap, Fingerprint);

impl Wire for Probe {
    fn put(&self, _: &mut Vec<u8>) {}

    fn take(_: &mut Reader<'_>) -> Result<Probe, WireError> {
        Ok(Probe { chaos: None })
    }
}

impl Wire for Reveal {
    fn put(&self, out: &mut Vec<u8>) {
        self.opts.put(out);
        // Encoded as a `Vec<Addr>`, in ascending order.
        self.discovered.len().put(out);
        for a in &self.discovered {
            a.put(out);
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Reveal, WireError> {
        Ok(Reveal {
            opts: Wire::take(r)?,
            discovered: Vec::<Addr>::take(r)?.into_iter().collect(),
        })
    }
}
