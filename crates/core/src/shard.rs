//! The campaign's one in-process executor: per-task work stealing.
//!
//! The executor takes a phase definition and its `(vp, task)` queue in
//! global order and hands back one result lane per VP in queue order
//! and one engine counter record per VP, from which the campaign's
//! driver restores global order.
//!
//! Every task is published in one flat injector queue, and each worker
//! claims the next *chunk* of tasks with a single atomic fetch-add — no
//! per-VP affinity at all, so a vantage point that owns the slow traces
//! never leaves the other workers idle. Determinism holds because each
//! task runs **hermetically**: on the worker's one [`Session`],
//! restarted for the task, whose fault RNG stream is derived from
//! `(campaign_seed, vp, task key)` ([`wormhole_net::trace_seed`]) and
//! whose clock, rate-limiter buckets and counters start from zero. A
//! task carries no state to the next one, so its probe sequence is a
//! pure function of its identity, not of which worker ran it, what ran
//! before it on that worker, or how many tasks the claim that won it
//! covered. Results are regrouped per VP in queue order after the join,
//! which makes the merged output byte-identical at any job count, any
//! steal interleaving and any chunk size. The distributed worker runs
//! its share of a phase through this same executor, so a task's
//! hermetic session is readied in one place ([`Hermetic::session`])
//! wherever it runs.
//!
//! Chunked claims amortize the queue's only shared cache line (the
//! cursor) over several tasks; the campaign claims [`STEAL_CHUNK`]
//! tasks at a time (one at a time for revelation). A claim's size
//! changes contention, never results.
//!
//! Robustness: each task runs under [`std::panic::catch_unwind`], so a
//! panicking task degrades only its own vantage point's shard — the
//! campaign keeps the other VPs' results and reports the loss instead
//! of dying. Because a task's work is independent of every other
//! task's, the surviving shards are byte-identical to a run where the
//! panic never happened.

use crate::phase::Phase;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use wormhole_net::{trace_seed, EngineStats, FaultPlan, ProbeState, RouterId, SubstrateRef};
use wormhole_probe::{Session, TracerouteOpts};

/// Tasks one stealing claim covers in a campaign. Only contention on
/// the shared cursor depends on it: results are identical at every
/// chunk size.
pub(crate) const STEAL_CHUNK: usize = 64;

/// Renders a caught panic payload into a report-friendly message.
fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

/// What one phase's executor hands back, both indexed by VP: the result
/// lanes (each in queue order, or the VP's panic message) and the
/// engine counters of the VP's sessions over the phase.
pub(crate) type PhaseOutput<R> = (Vec<Result<Vec<R>, String>>, Vec<EngineStats>);

/// What every hermetic task session is built from. The in-process
/// executor and the distributed worker both build their sessions
/// through [`Hermetic::session`].
pub(crate) struct Hermetic<'n> {
    /// The shared substrate.
    pub(crate) sub: SubstrateRef<'n>,
    /// The vantage points, indexed by VP.
    pub(crate) vps: &'n [RouterId],
    /// The campaign's fault plan.
    pub(crate) faults: &'n FaultPlan,
    /// The campaign's traceroute options.
    pub(crate) opts: &'n TracerouteOpts,
    /// The campaign seed.
    pub(crate) seed: u64,
}

impl<'n> Hermetic<'n> {
    /// The session for one task, in the worker's `slot`: built on the
    /// worker's first task and [`Session::restart`]ed for every later
    /// one. Either way its fault RNG stream is a pure function of
    /// `(seed, vp, key)` and nothing else carries over, so the task
    /// behaves identically no matter which thread or process runs it,
    /// or what ran there before.
    fn session<'s>(
        &self,
        slot: &'s mut Option<Session<'n>>,
        vp: usize,
        key: u64,
    ) -> &'s mut Session<'n> {
        let seed = trace_seed(self.seed, vp as u64, key);
        match slot {
            Some(s) => {
                s.restart(self.vps[vp], seed);
                s
            }
            None => {
                let state = ProbeState::new(self.faults.clone(), seed);
                let mut s = Session::over(self.sub, self.vps[vp], state);
                s.set_opts(self.opts.clone());
                slot.insert(s)
            }
        }
    }
}

/// One stolen task's outcome: `(result, engine counters)` or the panic
/// message.
type TaskResult<R> = Result<(R, EngineStats), String>;

/// Runs `phase` over `queue` under chunked work stealing with up to
/// `jobs` worker threads and regroups the results per vantage point, in
/// queue order.
///
/// Workers have no VP affinity: each claims the next unstarted *chunk*
/// of up to `chunk` tasks from the shared queue (one atomic fetch-add
/// on a cursor over the flat task list), then runs each claimed task in
/// a hermetic session (the worker's one session, restarted for the
/// task). Because every task owns its RNG stream and TTL bookkeeping,
/// the result of a task does not depend on the claim order or the
/// chunking, and the per-VP regrouping below restores a canonical
/// order — the output is identical for every `jobs` and every `chunk`
/// value. With one job, tasks run in queue order and each result goes
/// straight into its VP's lane; only threaded runs park results in a
/// per-task table to undo the steal order.
///
/// A VP with at least one panicked task yields `Err` (the message of
/// its lowest-index panicked task) and its other results are
/// discarded; the driver records it as a degraded shard.
///
/// Engine counters are summed per VP over that VP's *completed* tasks
/// (every task runs exactly once regardless of scheduling, so the sums
/// are deterministic too — including for VPs that end up degraded).
pub(crate) fn run_stealing<'n, P: Phase>(
    hermetic: &Hermetic<'n>,
    phase: &P,
    queue: &[(usize, P::Task)],
    jobs: usize,
    chunk: usize,
) -> PhaseOutput<P::Out> {
    // Each worker keeps one session in its slot; a task that panics
    // drops it, so the next task starts from a newly built one.
    let run_task =
        |slot: &mut Option<Session<'n>>, &(vp, task): &(usize, P::Task)| -> TaskResult<P::Out> {
            catch_unwind(AssertUnwindSafe(|| {
                let sess = hermetic.session(slot, vp, P::key(&task));
                let r = phase.run(sess, task);
                (r, sess.engine_stats().clone())
            }))
            .map_err(|e| {
                *slot = None;
                panic_message(e)
            })
        };
    let jobs = jobs.clamp(1, queue.len().max(1));
    let chunk = chunk.max(1);
    // Per-VP lanes in queue order, pre-sized from the queue's per-VP
    // task counts so placing a result never reallocates.
    let n_vps = hermetic.vps.len();
    let mut counts = vec![0usize; n_vps];
    for &(vp, _) in queue {
        counts[vp] += 1;
    }
    let mut out: Vec<Result<Vec<P::Out>, String>> =
        counts.iter().map(|&c| Ok(Vec::with_capacity(c))).collect();
    let mut stats = vec![EngineStats::default(); n_vps];
    // Results must be placed in queue order: a VP's first panic then
    // is its lowest-index one, and it discards the VP's other results.
    let mut place = |vp: usize, result: TaskResult<P::Out>| match result {
        Ok((r, task_stats)) => {
            stats[vp].merge(&task_stats);
            if let Ok(v) = &mut out[vp] {
                v.push(r);
            }
        }
        Err(message) => {
            if out[vp].is_ok() {
                out[vp] = Err(message);
            }
        }
    };
    if jobs <= 1 {
        let mut slot = None;
        for t in queue {
            place(t.0, run_task(&mut slot, t));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let produced: Vec<Vec<(usize, TaskResult<P::Out>)>> = std::thread::scope(|scope| {
            let cursor = &cursor;
            let run_task = &run_task;
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut slot = None;
                        loop {
                            // One cursor bump claims a whole chunk of
                            // consecutive tasks; each task still runs
                            // hermetically, so chunk size only changes
                            // contention, never results.
                            let base = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if base >= queue.len() {
                                break;
                            }
                            let end = (base + chunk).min(queue.len());
                            out.reserve(end - base);
                            for (i, t) in queue[base..end].iter().enumerate() {
                                out.push((base + i, run_task(&mut slot, t)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        // Steal order is gone; restore queue order before placing.
        let mut slots: Vec<Option<TaskResult<P::Out>>> =
            std::iter::repeat_with(|| None).take(queue.len()).collect();
        for (i, r) in produced.into_iter().flatten() {
            slots[i] = Some(r);
        }
        for (&(vp, _), slot) in queue.iter().zip(slots) {
            place(vp, slot.expect("every queued task was claimed"));
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::wire::{Reader, Wire, WireError};
    use wormhole_net::Addr;
    use wormhole_topo::{generate, Internet, InternetConfig};

    /// Test phase: one traceroute per task, answering the session's
    /// running probe count. Tasks to `poison_dst` panic instead.
    #[derive(Default)]
    struct Traced {
        poison_dst: Option<Addr>,
    }

    impl Wire for Traced {
        fn put(&self, _: &mut Vec<u8>) {}

        fn take(_: &mut Reader<'_>) -> Result<Traced, WireError> {
            Ok(Traced::default())
        }
    }

    impl Phase for Traced {
        const TAG: u8 = 0;
        const LABEL: &'static str = "traced";
        type Task = Addr;
        type Out = u64;

        fn key(t: &Addr) -> u64 {
            u64::from(t.0)
        }

        fn run(&self, s: &mut Session<'_>, t: Addr) -> u64 {
            assert!(Some(t) != self.poison_dst, "chaos: injected task panic");
            s.traceroute(t);
            s.engine_stats().probes
        }
    }

    /// Every router loopback round-robined over the VPs.
    fn queue(internet: &Internet) -> Vec<(usize, Addr)> {
        let n_vps = internet.vps.len();
        internet
            .net
            .routers()
            .iter()
            .enumerate()
            .map(|(i, r)| (i % n_vps, r.loopback))
            .collect()
    }

    /// Runs `phase` over `queue` under stealing with lossy faults, so the
    /// RNG stream actually matters.
    fn steal(
        internet: &Internet,
        phase: &Traced,
        queue: &[(usize, Addr)],
        jobs: usize,
        chunk: usize,
    ) -> PhaseOutput<u64> {
        let faults = FaultPlan {
            loss: 0.2,
            icmp_loss: 0.1,
            ..FaultPlan::default()
        };
        let opts = TracerouteOpts::campaign();
        let hermetic = Hermetic {
            sub: SubstrateRef::new(&internet.net, &internet.cp),
            vps: &internet.vps,
            faults: &faults,
            opts: &opts,
            seed: 7,
        };
        run_stealing(&hermetic, phase, queue, jobs, chunk)
    }

    #[test]
    fn stealing_results_are_identical_at_any_job_and_chunk_count() {
        let internet = generate(&InternetConfig::small(3));
        let queue = queue(&internet);
        let run = |jobs, chunk| steal(&internet, &Traced::default(), &queue, jobs, chunk);
        let (serial, serial_stats) = run(1, 1);
        assert!(serial.iter().all(|r| r.is_ok()));
        assert!(serial_stats.iter().map(|s| s.probes).sum::<u64>() > 0);
        for jobs in [2, 4, 9] {
            for chunk in [1, 3, STEAL_CHUNK] {
                let (out, stats) = run(jobs, chunk);
                assert_eq!(
                    serial, out,
                    "jobs={jobs} chunk={chunk} diverged from serial"
                );
                assert_eq!(
                    serial_stats, stats,
                    "jobs={jobs} chunk={chunk} probe accounting diverged"
                );
            }
        }
    }

    #[test]
    fn stealing_task_results_do_not_depend_on_claim_order() {
        // Reversing the queue must permute, not change, per-task
        // results: each task's probe sequence is a pure function of
        // `(seed, vp, key)`, never of what ran before it.
        let internet = generate(&InternetConfig::small(3));
        let run = |reverse: bool| {
            let mut queue = queue(&internet);
            if reverse {
                queue.reverse();
            }
            let (out, _) = steal(&internet, &Traced::default(), &queue, 1, 1);
            let lanes = out.into_iter().map(|r| r.expect("no panics here"));
            let mut lanes: Vec<_> = lanes.map(Vec::into_iter).collect();
            let mut flat: Vec<((usize, Addr), Option<u64>)> = queue
                .into_iter()
                .map(|(vp, t)| ((vp, t), lanes[vp].next()))
                .collect();
            flat.sort_by_key(|&(id, _)| id);
            flat
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stealing_normalizes_a_panicked_task_to_a_degraded_vp() {
        let internet = generate(&InternetConfig::small(3));
        let queue = queue(&internet);
        let poison = queue
            .iter()
            .filter(|&&(vp, _)| vp == 1)
            .nth(1)
            .map(|&(_, t)| t)
            .expect("vp 1 has tasks");
        let phase = Traced {
            poison_dst: Some(poison),
        };
        for jobs in [1, 3] {
            let (out, stats) = steal(&internet, &phase, &queue, jobs, 4);
            assert!(out[0].is_ok(), "jobs={jobs}");
            assert!(out[2].is_ok(), "jobs={jobs}");
            let err = out[1].as_ref().unwrap_err();
            assert!(err.contains("chaos"), "jobs={jobs}: {err}");
            // Completed tasks of the degraded VP still count probes —
            // they did run — and the sums stay deterministic.
            assert!(stats[1].probes > 0, "jobs={jobs}");
        }
    }
}
