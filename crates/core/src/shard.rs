//! Deterministic vantage-point sharding for the §4 campaign.
//!
//! The executor here is what makes `jobs = N` produce byte-identical
//! campaign output for every `N`:
//!
//! * work is assigned **per vantage point**, never per thread — the
//!   task list of a VP is a pure function of the merged state of the
//!   previous phase, so it does not depend on the worker count;
//! * each VP's tasks run **in their assigned order** against that VP's
//!   own [`Session`] (which owns its RNG stream and TTL bookkeeping),
//!   so a session consumes exactly the same probe sequence no matter
//!   which OS thread hosts it;
//! * workers emit **ordered result shards** (one `Vec` per VP, aligned
//!   with the VP's task list) that the caller merges back in VP order —
//!   a deterministic merge with no cross-worker communication at all.
//!
//! `jobs` only chooses how many contiguous VP ranges run concurrently;
//! it can never change what any VP does.
//!
//! Robustness: each VP's batch runs under [`std::panic::catch_unwind`],
//! so one panicking vantage-point worker degrades only its own shard —
//! the campaign keeps the other VPs' results and reports the loss
//! instead of dying. Because a VP's work is independent of every other
//! VP's, the surviving shards are byte-identical to a run where the
//! panic never happened.
//!
//! # Work stealing ([`run_stealing`])
//!
//! VP batches balance poorly when one vantage point owns the slow
//! traces: the other workers idle while its batch drains. The stealing
//! executor instead publishes every task in one flat injector queue and
//! lets each worker claim the next *chunk* of tasks with a single
//! atomic fetch-add — no per-VP affinity at all. Determinism survives
//! because *state* moves from the worker to the task: each task runs in
//! its own hermetic [`Session`] whose fault RNG stream is derived from
//! `(campaign_seed, vp, task key)` ([`wormhole_net::trace_seed`]), so
//! the probe sequence of a task is a pure function of its identity, not
//! of which worker ran it, what ran before it on that worker, or how
//! many tasks the claim that won it covered. Results carry their queue
//! index and are regrouped per VP in task order after the join, which
//! makes the merged output byte-identical at any job count, any steal
//! interleaving, and any chunk size.
//!
//! Chunked claims amortize the queue's only shared cache line (the
//! cursor) over several tasks; the campaign claims [`STEAL_CHUNK`]
//! tasks at a time. A claim's size changes contention, never results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use wormhole_net::EngineStats;
use wormhole_probe::Session;

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

/// Runs `f` once per vantage point over that VP's task batch, using up
/// to `jobs` worker threads, and returns the per-VP result batches in
/// VP order. `tasks` must be index-aligned with `sessions`.
///
/// `f` receives the VP's whole batch (not one task at a time) so phases
/// that need per-worker caches — e.g. the revelation phase's
/// already-pinged set — can keep them across the batch without any
/// shared mutable state.
///
/// A batch whose `f` panics yields `Err(panic message)` for that VP
/// only; every other VP's batch is unaffected.
pub(crate) fn run_vp_batches<'n, T, R, F>(
    sessions: &mut [Session<'n>],
    tasks: Vec<Vec<T>>,
    jobs: usize,
    f: &F,
) -> Vec<Result<Vec<R>, String>>
where
    T: Send,
    R: Send,
    F: Fn(&mut Session<'n>, Vec<T>) -> Vec<R> + Sync,
{
    assert_eq!(
        sessions.len(),
        tasks.len(),
        "one task batch per vantage point"
    );
    let run_one = |s: &mut Session<'n>, ts: Vec<T>| -> Result<Vec<R>, String> {
        catch_unwind(AssertUnwindSafe(|| f(s, ts))).map_err(panic_message)
    };
    let n = sessions.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        let mut out: Vec<Result<Vec<R>, String>> = Vec::with_capacity(n);
        out.extend(sessions.iter_mut().zip(tasks).map(|(s, ts)| run_one(s, ts)));
        return out;
    }
    // Contiguous VP ranges, one per worker. The partition only decides
    // concurrency; per-VP results are reassembled in VP order below.
    let chunk = n.div_ceil(jobs);
    let mut task_chunks: Vec<Vec<Vec<T>>> = Vec::new();
    let mut it = tasks.into_iter();
    loop {
        let c: Vec<Vec<T>> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        task_chunks.push(c);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .chunks_mut(chunk)
            .zip(task_chunks)
            .map(|(s_chunk, t_chunk)| {
                scope.spawn(move || {
                    s_chunk
                        .iter_mut()
                        .zip(t_chunk)
                        .map(|(s, ts)| run_one(s, ts))
                        .collect::<Vec<Result<Vec<R>, String>>>()
                })
            })
            .collect();
        let mut out: Vec<Result<Vec<R>, String>> = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// One entry in the stealing injector queue: the owning vantage point,
/// the per-trace seed key (folded into the RNG stream derivation), and
/// the task payload itself.
pub(crate) struct StealTask<T> {
    /// Index of the vantage point this task belongs to.
    pub vp: usize,
    /// Seed key; the session factory folds it with `(campaign_seed,
    /// vp)` into the task's private RNG stream.
    pub key: u64,
    /// The task payload.
    pub task: T,
}

/// One stolen task's outcome: `(result, probes sent, engine counters)`
/// or the panic message.
type TaskResult<R> = Result<(R, u64, EngineStats), String>;

/// Reusable merge buffers for the stealing regroup: the per-VP task
/// counts the shard vectors are pre-sized from. A campaign allocates
/// one of these and threads it through all of its probing phases, so
/// the regroup never re-allocates the counting pass per phase.
pub(crate) struct MergeScratch {
    counts: Vec<usize>,
}

impl MergeScratch {
    /// A scratch sized for `n_vps` vantage points.
    pub(crate) fn new(n_vps: usize) -> MergeScratch {
        MergeScratch {
            counts: vec![0; n_vps],
        }
    }
}

/// What the stealing executor hands back: per-VP regrouped results,
/// per-VP probe counts, and the engine counter total.
pub(crate) type StealOutput<R> = (Vec<Result<Vec<R>, String>>, Vec<u64>, EngineStats);

/// Runs `queue` under chunked work stealing with up to `jobs` worker
/// threads and regroups the results per vantage point, in queue order.
///
/// Unlike [`run_vp_batches`], workers have no VP affinity: each claims
/// the next unstarted *chunk* of up to `chunk` tasks from the shared
/// queue (one atomic fetch-add on a cursor over the flat task list),
/// then for each claimed task builds a hermetic [`Session`] via
/// `make_session(vp, key)` and runs `f` on that session. Because every
/// task owns its RNG stream and TTL bookkeeping, the result of a task
/// does not depend on the claim order or the chunking, and the per-VP
/// regrouping below restores a canonical order — the output is
/// identical for every `jobs` and every `chunk` value.
///
/// Panic normalization matches the batch executor's contract: a VP with
/// at least one panicked task yields `Err` (the message of its
/// lowest-index panicked task) and its other results are discarded, so
/// callers reuse the same degraded-shard handling for both executors.
///
/// The second return value is the probe count per VP, summed over that
/// VP's *completed* tasks (every task runs exactly once regardless of
/// scheduling, so the sums are deterministic too — including for VPs
/// that end up degraded). The third is the engine counter total over
/// the same completed tasks — deterministic for the same reason.
pub(crate) fn run_stealing<'n, T, R, F, S>(
    n_vps: usize,
    queue: Vec<StealTask<T>>,
    jobs: usize,
    chunk: usize,
    scratch: &mut MergeScratch,
    make_session: &S,
    f: &F,
) -> StealOutput<R>
where
    T: Copy + Sync,
    R: Send,
    F: Fn(&mut Session<'n>, T) -> R + Sync,
    S: Fn(usize, u64) -> Session<'n> + Sync,
{
    let run_task = |t: &StealTask<T>| -> TaskResult<R> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut sess = make_session(t.vp, t.key);
            let r = f(&mut sess, t.task);
            let stats = sess.engine_stats().clone();
            (r, sess.stats.probes, stats)
        }))
        .map_err(panic_message)
    };
    let jobs = jobs.clamp(1, queue.len().max(1));
    let chunk = chunk.max(1);
    let mut slots: Vec<Option<TaskResult<R>>> = if jobs <= 1 {
        queue.iter().map(|t| Some(run_task(t))).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let produced: Vec<Vec<(usize, TaskResult<R>)>> = std::thread::scope(|scope| {
            let queue = &queue;
            let cursor = &cursor;
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
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
                                out.push((base + i, run_task(t)));
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
        let mut slots: Vec<Option<TaskResult<R>>> =
            std::iter::repeat_with(|| None).take(queue.len()).collect();
        for (i, r) in produced.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
    };
    // Regroup per VP in queue order: steal order is gone, the canonical
    // order is back. Shard vectors are pre-sized from the queue's
    // per-VP task counts so the pushes below never reallocate; the
    // counts buffer itself lives in the caller's scratch, reused
    // across every phase of a campaign.
    let counts = &mut scratch.counts;
    counts.clear();
    counts.resize(n_vps, 0);
    for t in &queue {
        counts[t.vp] += 1;
    }
    let mut out: Vec<Result<Vec<R>, String>> =
        counts.iter().map(|&c| Ok(Vec::with_capacity(c))).collect();
    let mut probes = vec![0u64; n_vps];
    let mut engine_totals = EngineStats::default();
    for (t, slot) in queue.iter().zip(slots.iter_mut()) {
        match slot.take().expect("every queued task was claimed") {
            Ok((r, p, stats)) => {
                probes[t.vp] += p;
                engine_totals.merge(&stats);
                if let Ok(v) = &mut out[t.vp] {
                    v.push(r);
                }
            }
            Err(message) => {
                if out[t.vp].is_ok() {
                    out[t.vp] = Err(message);
                }
            }
        }
    }
    (out, probes, engine_totals)
}

/// Scatters per-VP `(global_index, value)` results back into one flat,
/// globally-ordered vector. Every index in `0..len` must be produced
/// exactly once across the shards.
#[cfg(test)]
pub(crate) fn merge_indexed<R>(shards: Vec<Vec<(usize, R)>>, len: usize) -> Vec<R> {
    merge_indexed_or(shards, len, |g| panic!("no shard produced result {g}"))
}

/// Like [`merge_indexed`], but holes left by degraded (panicked) shards
/// are filled with `missing(global_index)` instead of panicking.
pub(crate) fn merge_indexed_or<R>(
    shards: Vec<Vec<(usize, R)>>,
    len: usize,
    missing: impl Fn(usize) -> R,
) -> Vec<R> {
    let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
    slots.extend(std::iter::repeat_with(|| None).take(len));
    for shard in shards {
        for (g, r) in shard {
            debug_assert!(slots[g].is_none(), "duplicate result for index {g}");
            slots[g] = Some(r);
        }
    }
    let mut out: Vec<R> = Vec::with_capacity(len);
    out.extend(
        slots
            .into_iter()
            .enumerate()
            .map(|(g, s)| s.unwrap_or_else(|| missing(g))),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::{FaultPlan, ProbeState, SubstrateRef};
    use wormhole_topo::{generate, InternetConfig};

    #[test]
    fn batches_merge_in_vp_order_at_any_job_count() {
        let internet = generate(&InternetConfig::small(3));
        let sub = SubstrateRef::new(&internet.net, &internet.cp);
        let run = |jobs: usize| -> Vec<Vec<u64>> {
            let mut sessions: Vec<Session> = internet
                .vps
                .iter()
                .enumerate()
                .map(|(i, &vp)| {
                    Session::over(
                        sub,
                        vp,
                        ProbeState::for_worker(FaultPlan::none(), 9, i as u64),
                    )
                })
                .collect();
            let targets: Vec<_> = internet.net.routers().iter().map(|r| r.loopback).collect();
            let tasks: Vec<Vec<_>> = (0..sessions.len())
                .map(|v| {
                    targets
                        .iter()
                        .skip(v)
                        .step_by(sessions.len())
                        .copied()
                        .collect()
                })
                .collect();
            run_vp_batches(&mut sessions, tasks, jobs, &|s, ts| {
                ts.into_iter()
                    .map(|t| {
                        s.traceroute(t);
                        s.stats.probes
                    })
                    .collect()
            })
            .into_iter()
            .map(|r| r.expect("no batch panics here"))
            .collect()
        };
        let serial = run(1);
        for jobs in [2, 3, 8] {
            assert_eq!(serial, run(jobs), "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn a_panicking_batch_degrades_only_its_own_vp() {
        let internet = generate(&InternetConfig::small(3));
        let sub = SubstrateRef::new(&internet.net, &internet.cp);
        let run = |jobs: usize| -> Vec<Result<Vec<u64>, String>> {
            let mut sessions: Vec<Session> = internet
                .vps
                .iter()
                .enumerate()
                .map(|(i, &vp)| {
                    Session::over(
                        sub,
                        vp,
                        ProbeState::for_worker(FaultPlan::none(), 9, i as u64),
                    )
                })
                .collect();
            let poison = sessions[1].vp();
            let targets: Vec<_> = internet.net.routers().iter().map(|r| r.loopback).collect();
            let tasks: Vec<Vec<_>> = (0..sessions.len())
                .map(|v| targets.iter().skip(v).step_by(3).copied().collect())
                .collect();
            run_vp_batches(&mut sessions, tasks, jobs, &|s, ts| {
                assert!(s.vp() != poison, "chaos: injected worker panic");
                ts.into_iter()
                    .map(|t| {
                        s.traceroute(t);
                        s.stats.probes
                    })
                    .collect()
            })
        };
        for jobs in [1, 2, 3] {
            let out = run(jobs);
            assert_eq!(out.len(), 3);
            assert!(out[0].is_ok(), "jobs={jobs}");
            assert!(out[2].is_ok(), "jobs={jobs}");
            let err = out[1].as_ref().unwrap_err();
            assert!(err.contains("chaos"), "jobs={jobs}: {err}");
            // Survivors are byte-identical to the serial run.
            assert_eq!(out[0], run(1)[0], "jobs={jobs}");
            assert_eq!(out[2], run(1)[2], "jobs={jobs}");
        }
    }

    /// Builds the stealing queue + session factory shared by the
    /// stealing tests: every router loopback round-robined over the
    /// VPs, keyed by target address, with lossy faults so the RNG
    /// stream actually matters.
    fn steal_fixture<'n>(
        internet: &'n wormhole_topo::Internet,
    ) -> (
        Vec<StealTask<wormhole_net::Addr>>,
        impl Fn(usize, u64) -> Session<'n> + Sync,
    ) {
        let sub = SubstrateRef::new(&internet.net, &internet.cp);
        let n_vps = internet.vps.len();
        let queue: Vec<StealTask<wormhole_net::Addr>> = internet
            .net
            .routers()
            .iter()
            .enumerate()
            .map(|(i, r)| StealTask {
                vp: i % n_vps,
                key: u64::from(r.loopback.0),
                task: r.loopback,
            })
            .collect();
        let vps = internet.vps.clone();
        let make = move |vp: usize, key: u64| {
            let faults = FaultPlan {
                loss: 0.2,
                icmp_loss: 0.1,
                ..FaultPlan::default()
            };
            Session::over(
                sub,
                vps[vp],
                ProbeState::new(faults, wormhole_net::trace_seed(7, vp as u64, key)),
            )
        };
        (queue, make)
    }

    #[test]
    fn stealing_results_are_identical_at_any_job_and_chunk_count() {
        let internet = generate(&InternetConfig::small(3));
        let run = |jobs: usize, chunk: usize| -> (Vec<Result<Vec<u64>, String>>, Vec<u64>) {
            let (queue, make) = steal_fixture(&internet);
            let mut scratch = MergeScratch::new(internet.vps.len());
            let (out, probes, _) = run_stealing(
                internet.vps.len(),
                queue,
                jobs,
                chunk,
                &mut scratch,
                &make,
                &|s, t| {
                    s.traceroute(t);
                    s.stats.probes
                },
            );
            (out, probes)
        };
        let (serial, serial_probes) = run(1, 1);
        assert!(serial.iter().all(|r| r.is_ok()));
        assert!(serial_probes.iter().sum::<u64>() > 0);
        for jobs in [2, 4, 9] {
            for chunk in [1, 3, STEAL_CHUNK] {
                let (out, probes) = run(jobs, chunk);
                assert_eq!(
                    serial, out,
                    "jobs={jobs} chunk={chunk} diverged from serial"
                );
                assert_eq!(
                    serial_probes, probes,
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
            let (mut queue, make) = steal_fixture(&internet);
            if reverse {
                queue.reverse();
            }
            let keys: Vec<(usize, u64)> = queue.iter().map(|t| (t.vp, t.key)).collect();
            let mut scratch = MergeScratch::new(internet.vps.len());
            let (out, _, _) = run_stealing(
                internet.vps.len(),
                queue,
                1,
                1,
                &mut scratch,
                &make,
                &|s, t| {
                    s.traceroute(t);
                    s.stats.probes
                },
            );
            let mut flat: Vec<((usize, u64), u64)> = Vec::new();
            let mut taken = vec![0usize; out.len()];
            for &(vp, key) in &keys {
                let shard = out[vp].as_ref().expect("no panics here");
                flat.push(((vp, key), shard[taken[vp]]));
                taken[vp] += 1;
            }
            flat.sort_by_key(|&(id, _)| id);
            flat
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stealing_normalizes_a_panicked_task_to_a_degraded_vp() {
        let internet = generate(&InternetConfig::small(3));
        for jobs in [1, 3] {
            let (queue, make) = steal_fixture(&internet);
            let poison = queue
                .iter()
                .filter(|t| t.vp == 1)
                .nth(1)
                .map(|t| t.key)
                .expect("vp 1 has tasks");
            let mut scratch = MergeScratch::new(internet.vps.len());
            let (out, probes, _) = run_stealing(
                internet.vps.len(),
                queue,
                jobs,
                4,
                &mut scratch,
                &make,
                &|s, t| {
                    assert!(u64::from(t.0) != poison, "chaos: injected task panic");
                    s.traceroute(t);
                    s.stats.probes
                },
            );
            assert!(out[0].is_ok(), "jobs={jobs}");
            assert!(out[2].is_ok(), "jobs={jobs}");
            let err = out[1].as_ref().unwrap_err();
            assert!(err.contains("chaos"), "jobs={jobs}: {err}");
            // Completed tasks of the degraded VP still count probes —
            // they did run — and the sums stay deterministic.
            assert!(probes[1] > 0, "jobs={jobs}");
        }
    }

    #[test]
    fn merge_indexed_restores_global_order() {
        let shards = vec![vec![(2usize, 'c'), (0, 'a')], vec![(1, 'b')]];
        assert_eq!(merge_indexed(shards, 3), vec!['a', 'b', 'c']);
    }

    #[test]
    #[should_panic(expected = "no shard produced result")]
    fn merge_indexed_rejects_holes() {
        let _ = merge_indexed(vec![vec![(0usize, 'a')]], 2);
    }

    #[test]
    fn merge_indexed_or_fills_holes_with_defaults() {
        let shards = vec![vec![(0usize, 10)], vec![(2usize, 30)]];
        assert_eq!(merge_indexed_or(shards, 3, |g| -(g as i32)), [10, -1, 30]);
    }
}
