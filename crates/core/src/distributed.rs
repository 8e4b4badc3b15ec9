//! Multi-process campaign execution: shard specs, shard files, and the
//! deterministic file-level merge.
//!
//! The master ([`crate::Campaign::run_distributed`]) runs the same
//! serial analysis as an in-process campaign, but routes every probing
//! phase through a `DistDispatcher`: the phase's task queue is
//! partitioned over `N` worker *processes* by owning vantage point
//! (`vp % workers`), each worker receives one **shard-spec file**
//! (`WHSP`), executes its subset with the in-process executor, and
//! writes one canonical
//! **shard file** (`WHSH`) back. The master validates and merges the
//! shard files in worker order — a pure file-level merge with no
//! shared memory at all.
//!
//! # Why the merge is byte-identical to an in-process run
//!
//! * A worker's queue is the master's queue filtered by `vp % workers`,
//!   preserving order — so every vantage point sees exactly the task
//!   sequence it would have seen in process.
//! * Each task runs in a hermetic session whose RNG stream is a pure
//!   function of `(campaign_seed, vp, task key)`
//!   ([`wormhole_net::trace_seed`]). The spec's phase tag selects the
//!   same phase definition the master ran, whose key derivation and
//!   task body the worker runs through the in-process executor, so a
//!   task's probe sequence is independent of which *process* ran it.
//!   Global task indices never leave the master: each result lane
//!   answers its VP's tasks in the order they were sent.
//! * Every payload crosses the process boundary through the
//!   [`wormhole_net::wire`] codec, which carries floats as raw IEEE
//!   bits — a decoded result is *equal* to the encoded one.
//!
//! # Failure model
//!
//! A worker that dies, writes a corrupt file, never writes one at all,
//! or writes one whose lanes do not answer exactly the tasks it was
//! sent degrades **only its own vantage points**: the master records
//! the worker in [`PhaseShardAccount::missing`] and synthesizes `Err`
//! entries for its tasked VPs, which flow into the campaign's existing
//! degraded-shard handling ([`crate::DegradedShard`]). The merged
//! result for every surviving VP is byte-identical to a run where the
//! worker never died. The `A311`/`A312` audit rules cross-check the
//! accounting kept in [`DistSummary`].

use crate::phase::{Bootstrap, Fingerprint, Phase, Probe, Reveal};
use crate::reveal::{
    AbandonReason, Confidence, MissingPart, RevealOpts, RevealStep, RevealedHop, RevealedTunnel,
    RevelationOutcome, Veracity,
};
use crate::shard::{self, Hermetic, PhaseOutput};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use wormhole_net::wire::{checksum, Reader, Wire, WireError};
use wormhole_net::{ControlPlane, EngineStats, FaultPlan, Network, RouterId, SubstrateRef};
use wormhole_probe::TracerouteOpts;

/// Shard-spec file magic (`WHSP`): what the master hands each worker.
const SPEC_MAGIC: [u8; 4] = *b"WHSP";
/// Shard file magic (`WHSH`): what each worker hands back.
const SHARD_MAGIC: [u8; 4] = *b"WHSH";
/// On-disk format version shared by both file kinds.
const VERSION: u32 = 3;

/// The valid shard-spec layout, quoted by every worker-side decode
/// error so a malformed spec names what a well-formed one contains.
const SPEC_FIELDS: &str = "a shard spec is: magic \"WHSP\", version, phase tag \
     (1=bootstrap 2=probe 3=fingerprint 4=revelation), worker, n_vps, seed, \
     substrate token, cache (path, config checksum), fault plan, traceroute opts, \
     chaos-abort flag, output path, phase context (revelation: reveal options, \
     discovered addresses), tasks (vantage point index < n_vps, task), checksum";

// ---------------------------------------------------------------------------
// Wire codecs for the revelation payload (the other phases ship probe-
// layer records whose codecs live in `wormhole_probe::wire`).
// ---------------------------------------------------------------------------

impl Wire for RevealOpts {
    fn put(&self, out: &mut Vec<u8>) {
        self.max_steps.put(out);
        self.paris_check.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<RevealOpts, WireError> {
        Ok(RevealOpts {
            max_steps: Wire::take(r)?,
            paris_check: Wire::take(r)?,
        })
    }
}

impl Wire for RevealedHop {
    fn put(&self, out: &mut Vec<u8>) {
        self.addr.put(out);
        self.labeled.put(out);
        self.rtt_ms.put(out);
        self.truth.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<RevealedHop, WireError> {
        Ok(RevealedHop {
            addr: Wire::take(r)?,
            labeled: Wire::take(r)?,
            rtt_ms: Wire::take(r)?,
            truth: Wire::take(r)?,
        })
    }
}

impl Wire for RevealStep {
    fn put(&self, out: &mut Vec<u8>) {
        self.target.put(out);
        self.new_hops.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<RevealStep, WireError> {
        Ok(RevealStep {
            target: Wire::take(r)?,
            new_hops: Wire::take(r)?,
        })
    }
}

impl Wire for RevealedTunnel {
    fn put(&self, out: &mut Vec<u8>) {
        self.ingress.put(out);
        self.egress.put(out);
        self.target.put(out);
        self.steps.put(out);
        self.extra_probes.put(out);
        self.revisits.put(out);
        self.stars.put(out);
        self.retrace_mismatch.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<RevealedTunnel, WireError> {
        Ok(RevealedTunnel {
            ingress: Wire::take(r)?,
            egress: Wire::take(r)?,
            target: Wire::take(r)?,
            steps: Wire::take(r)?,
            extra_probes: Wire::take(r)?,
            revisits: Wire::take(r)?,
            stars: Wire::take(r)?,
            retrace_mismatch: Wire::take(r)?,
        })
    }
}

impl Wire for AbandonReason {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            AbandonReason::IngressNotObserved => 0,
            AbandonReason::ProbeBudget => 1,
            AbandonReason::WorkerPanicked => 2,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<AbandonReason, WireError> {
        Ok(match u8::take(r)? {
            0 => AbandonReason::IngressNotObserved,
            1 => AbandonReason::ProbeBudget,
            2 => AbandonReason::WorkerPanicked,
            _ => return Err(WireError::Corrupt("abandon reason tag")),
        })
    }
}

impl Wire for MissingPart {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            MissingPart::IngressLostMidway => 0,
            MissingPart::StepLimit => 1,
            MissingPart::ProbeBudget => 2,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<MissingPart, WireError> {
        Ok(match u8::take(r)? {
            0 => MissingPart::IngressLostMidway,
            1 => MissingPart::StepLimit,
            2 => MissingPart::ProbeBudget,
            _ => return Err(WireError::Corrupt("missing part tag")),
        })
    }
}

impl Wire for Confidence {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Confidence::Low => 0,
            Confidence::Medium => 1,
            Confidence::High => 2,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Confidence, WireError> {
        Ok(match u8::take(r)? {
            0 => Confidence::Low,
            1 => Confidence::Medium,
            2 => Confidence::High,
            _ => return Err(WireError::Corrupt("confidence tag")),
        })
    }
}

impl Wire for Veracity {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Veracity::Corroborated => 0,
            Veracity::Unverified => 1,
            Veracity::Contradicted => 2,
        };
        tag.put(out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Veracity, WireError> {
        Ok(match u8::take(r)? {
            0 => Veracity::Corroborated,
            1 => Veracity::Unverified,
            2 => Veracity::Contradicted,
            _ => return Err(WireError::Corrupt("veracity tag")),
        })
    }
}

impl Wire for RevelationOutcome {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RevelationOutcome::Complete {
                tunnel,
                confidence,
                veracity,
            } => {
                0u8.put(out);
                tunnel.put(out);
                confidence.put(out);
                veracity.put(out);
            }
            RevelationOutcome::Partial {
                tunnel,
                missing,
                confidence,
                veracity,
            } => {
                1u8.put(out);
                tunnel.put(out);
                missing.put(out);
                confidence.put(out);
                veracity.put(out);
            }
            RevelationOutcome::Abandoned { reason } => {
                2u8.put(out);
                reason.put(out);
            }
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<RevelationOutcome, WireError> {
        Ok(match u8::take(r)? {
            0 => RevelationOutcome::Complete {
                tunnel: Wire::take(r)?,
                confidence: Wire::take(r)?,
                veracity: Wire::take(r)?,
            },
            1 => RevelationOutcome::Partial {
                tunnel: Wire::take(r)?,
                missing: Wire::take(r)?,
                confidence: Wire::take(r)?,
                veracity: Wire::take(r)?,
            },
            2 => RevelationOutcome::Abandoned {
                reason: Wire::take(r)?,
            },
            _ => return Err(WireError::Corrupt("revelation outcome tag")),
        })
    }
}

// ---------------------------------------------------------------------------
// Master-side types.
// ---------------------------------------------------------------------------

/// How [`crate::Campaign::run_distributed`] spawns and merges worker
/// processes.
#[derive(Clone, Debug)]
pub struct DistributedOpts {
    /// Worker processes to partition each phase's queue across.
    pub workers: usize,
    /// The worker command line (program plus leading arguments); the
    /// dispatcher appends `campaign-worker --shard-spec <file>`.
    pub worker_cmd: Vec<String>,
    /// Opaque substrate handle the worker binary resolves back to a
    /// `(network, control plane, vantage points)` triple — e.g.
    /// `"tenfold:8"` for the CLI's scale/seed resolver. The master
    /// never ships the substrate itself; both sides regenerate it
    /// deterministically (or load it from the shared cache below).
    pub substrate_token: String,
    /// Directory for spec and shard files.
    pub work_dir: PathBuf,
    /// Substrate cache file and its config checksum, when the master
    /// loaded (or wrote) one: workers load the same file and report
    /// the checksum back for the `A312` agreement audit.
    pub cache: Option<(PathBuf, u64)>,
    /// Keep spec/shard files after the merge (for CI artifacts and
    /// debugging); default behavior removes them.
    pub keep_files: bool,
    /// Chaos hook: tell this worker index to abort (`SIGABRT`-style,
    /// no shard file) during the probe phase, exercising the
    /// missing-shard degradation path. Test/CI use only.
    pub chaos_abort_worker: Option<usize>,
}

/// Why a distributed run could not start or make progress. Worker
/// degradation is **not** an error — a lost worker degrades its own
/// shards and the campaign completes.
#[derive(Debug)]
pub enum DistError {
    /// `workers` was zero or `worker_cmd` was empty.
    NoWorkers,
    /// The work directory could not be created or written.
    Io(std::io::Error),
    /// A worker could not decode its shard-spec file; the reason quotes
    /// the valid field layout.
    Spec {
        /// The spec file the worker was given.
        path: PathBuf,
        /// What failed, plus the valid shard-spec fields.
        reason: String,
    },
    /// A worker could not resolve its substrate token or cache file.
    Substrate(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NoWorkers => write!(f, "need at least one worker and a worker command"),
            DistError::Io(e) => write!(f, "distributed work dir: {e}"),
            DistError::Spec { path, reason } => {
                write!(f, "shard spec {}: {reason}", path.display())
            }
            DistError::Substrate(e) => write!(f, "worker substrate: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> DistError {
        DistError::Io(e)
    }
}

/// Shard accounting for one dispatched phase: every spawned worker is
/// either received or missing, and the probes its shard file reported
/// are summed for the `A311` conservation check.
#[derive(Clone, Debug)]
pub struct PhaseShardAccount {
    /// The phase label (`bootstrap`, `probe`, `fingerprint`,
    /// `revelation`) — matching [`crate::DegradedShard::phase`].
    pub phase: &'static str,
    /// Workers actually spawned (workers whose queue slice was empty
    /// are skipped, not spawned).
    pub dispatched: usize,
    /// Shard files received, validated, and merged.
    pub received: usize,
    /// Workers whose shard never arrived (died, corrupt file, bad
    /// checksum, wrong identity); their tasked VPs were degraded.
    pub missing: Vec<usize>,
    /// Worker indices that appeared more than once among the received
    /// shards — impossible in a healthy run, audited by `A311`.
    pub duplicates: Vec<usize>,
    /// Sum of the per-VP probe counters over the received shard files.
    pub shard_probes: u64,
}

/// Cross-process accounting of a whole distributed run, attached to
/// [`crate::CampaignResult::dist`] (and excluded from the report —
/// the report must stay byte-identical to an in-process run).
#[derive(Clone, Debug, Default)]
pub struct DistSummary {
    /// Worker processes the run partitioned work across.
    pub workers: usize,
    /// One entry per dispatched phase, in phase order.
    pub phases: Vec<PhaseShardAccount>,
    /// The config checksum of the substrate cache the master used, if
    /// any.
    pub master_cache_checksum: Option<u64>,
    /// Distinct `(worker, checksum)` cache observations reported back
    /// in shard files; `A312` checks they all agree with the master's.
    pub worker_cache_checksums: Vec<(usize, u64)>,
}

/// One decoded shard file.
#[derive(Debug)]
struct ShardFile<R> {
    worker: usize,
    cache_checksum: Option<u64>,
    results: Vec<Result<Vec<R>, String>>,
    stats: Vec<EngineStats>,
}

/// Routes the campaign's probing phases to worker processes. Owned by
/// [`crate::Campaign::run_distributed`] for the duration of one run.
pub(crate) struct DistDispatcher<'o> {
    opts: &'o DistributedOpts,
    n_vps: usize,
    seed: u64,
    faults: FaultPlan,
    trace_opts: TracerouteOpts,
    summary: DistSummary,
}

impl<'o> DistDispatcher<'o> {
    /// Validates the options and prepares the work directory.
    pub(crate) fn new(
        opts: &'o DistributedOpts,
        n_vps: usize,
        seed: u64,
        faults: FaultPlan,
        trace_opts: TracerouteOpts,
    ) -> Result<DistDispatcher<'o>, DistError> {
        if opts.workers == 0 || opts.worker_cmd.is_empty() {
            return Err(DistError::NoWorkers);
        }
        std::fs::create_dir_all(&opts.work_dir)?;
        Ok(DistDispatcher {
            opts,
            n_vps,
            seed,
            faults,
            trace_opts,
            summary: DistSummary {
                workers: opts.workers,
                phases: Vec::new(),
                master_cache_checksum: opts.cache.as_ref().map(|&(_, c)| c),
                worker_cache_checksums: Vec::new(),
            },
        })
    }

    /// The run's accounting, consumed after the last phase.
    pub(crate) fn into_summary(self) -> DistSummary {
        self.summary
    }

    /// Dispatches one phase: partition `queue` by owning VP, spawn one
    /// worker process per non-empty partition, then merge the shard
    /// files back into the exact shape the in-process executors return.
    /// The phase value itself rides each spec as the phase context.
    pub(crate) fn dispatch<P: Phase>(
        &mut self,
        phase: &P,
        queue: &[(usize, P::Task)],
    ) -> PhaseOutput<P::Out> {
        let workers = self.opts.workers;
        let mut buckets: Vec<Vec<(usize, P::Task)>> = vec![Vec::new(); workers];
        let mut sent = vec![0usize; self.n_vps];
        for &(vp, t) in queue {
            buckets[vp % workers].push((vp, t));
            sent[vp] += 1;
        }
        // Spawn every worker first, then join: the partitions run as
        // concurrent OS processes even on a single-threaded master.
        let mut children: Vec<(usize, PathBuf, PathBuf, Result<Child, String>)> = Vec::new();
        for (w, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let tag = P::TAG;
            let spec_path = self
                .opts
                .work_dir
                .join(format!("phase{tag}-worker{w}.spec"));
            let shard_path = self
                .opts
                .work_dir
                .join(format!("phase{tag}-worker{w}.shard"));
            let chaos = tag == Probe::TAG && self.opts.chaos_abort_worker == Some(w);
            let spec = self.encode_spec(phase, w, bucket, &shard_path, chaos);
            let spawn = std::fs::write(&spec_path, &spec)
                .map_err(|e| format!("write spec: {e}"))
                .and_then(|()| {
                    Command::new(&self.opts.worker_cmd[0])
                        .args(&self.opts.worker_cmd[1..])
                        .arg("campaign-worker")
                        .arg("--shard-spec")
                        .arg(&spec_path)
                        .stdin(Stdio::null())
                        .spawn()
                        .map_err(|e| format!("spawn worker: {e}"))
                });
            children.push((w, spec_path, shard_path, spawn));
        }
        let files = children
            .into_iter()
            .map(|(w, spec_path, shard_path, spawn)| {
                let file = spawn
                    .and_then(|mut child| {
                        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
                        if status.success() {
                            Ok(())
                        } else {
                            Err(format!("worker exited with {status}"))
                        }
                    })
                    .and_then(|()| {
                        std::fs::read(&shard_path).map_err(|e| format!("read shard file: {e}"))
                    });
                if !self.opts.keep_files {
                    let _ = std::fs::remove_file(&spec_path);
                    let _ = std::fs::remove_file(&shard_path);
                }
                (w, file)
            })
            .collect();
        self.merge(P::TAG, P::LABEL, &sent, files)
    }

    /// Merges one phase's shard files (or the reason a worker has none),
    /// given the per-VP task counts `sent`. A file that fails
    /// validation — including one whose lanes do not answer exactly the
    /// tasks its worker was sent — counts as a missing worker and
    /// degrades exactly the VPs that worker had tasks for.
    fn merge<R: Wire>(
        &mut self,
        tag: u8,
        label: &'static str,
        sent: &[usize],
        files: Vec<(usize, Result<Vec<u8>, String>)>,
    ) -> PhaseOutput<R> {
        let workers = self.opts.workers;
        let mut out: Vec<Result<Vec<R>, String>> =
            (0..self.n_vps).map(|_| Ok(Vec::new())).collect();
        let mut stats = vec![EngineStats::default(); self.n_vps];
        let mut account = PhaseShardAccount {
            phase: label,
            dispatched: files.len(),
            received: 0,
            missing: Vec::new(),
            duplicates: Vec::new(),
            shard_probes: 0,
        };
        let mut seen: HashSet<usize> = HashSet::new();
        for (w, file) in files {
            match file.and_then(|bytes| decode_shard::<R>(&bytes, tag, w, workers, sent)) {
                Ok(file) => {
                    if !seen.insert(file.worker) {
                        account.duplicates.push(file.worker);
                    }
                    account.received += 1;
                    account.shard_probes += file.stats.iter().map(|s| s.probes).sum::<u64>();
                    if let Some(c) = file.cache_checksum {
                        if !self.summary.worker_cache_checksums.contains(&(w, c)) {
                            self.summary.worker_cache_checksums.push((w, c));
                        }
                    }
                    let mut results = file.results;
                    for vp in (w..self.n_vps).step_by(workers) {
                        out[vp] = std::mem::replace(&mut results[vp], Ok(Vec::new()));
                        stats[vp] = file.stats[vp].clone();
                    }
                }
                Err(reason) => {
                    account.missing.push(w);
                    // Untasked VPs keep their empty Ok shard, matching
                    // the in-process executors.
                    for vp in (w..self.n_vps).step_by(workers) {
                        if sent[vp] > 0 {
                            out[vp] = Err(format!("worker {w} shard lost: {reason}"));
                        }
                    }
                }
            }
        }
        self.summary.phases.push(account);
        (out, stats)
    }

    /// Encodes one worker's shard-spec file.
    fn encode_spec<P: Phase>(
        &self,
        phase: &P,
        worker: usize,
        tasks: &[(usize, P::Task)],
        output: &Path,
        chaos_abort: bool,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SPEC_MAGIC);
        VERSION.put(&mut out);
        P::TAG.put(&mut out);
        worker.put(&mut out);
        self.n_vps.put(&mut out);
        self.seed.put(&mut out);
        self.opts.substrate_token.put(&mut out);
        self.opts
            .cache
            .as_ref()
            .map(|(p, c)| (p.to_string_lossy().into_owned(), *c))
            .put(&mut out);
        self.faults.put(&mut out);
        self.trace_opts.put(&mut out);
        chaos_abort.put(&mut out);
        output.to_string_lossy().into_owned().put(&mut out);
        phase.put(&mut out);
        tasks.len().put(&mut out);
        for task in tasks {
            task.put(&mut out);
        }
        let c = checksum(&out);
        c.put(&mut out);
        out
    }
}

/// Encodes one shard file: worker `worker`'s output for phase `tag`.
fn encode_shard<R: Wire>(
    tag: u8,
    worker: usize,
    cache_checksum: Option<u64>,
    output: &PhaseOutput<R>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SHARD_MAGIC);
    VERSION.put(&mut out);
    tag.put(&mut out);
    worker.put(&mut out);
    cache_checksum.put(&mut out);
    output.put(&mut out);
    let c = checksum(&out);
    c.put(&mut out);
    out
}

/// Validates and decodes worker `worker`'s shard file for phase `tag`,
/// given how many tasks each VP was sent (`sent`, one entry per VP) and
/// that the worker owns VPs `worker, worker + workers, …`. Every lane
/// must answer exactly the tasks its VP was sent through this worker
/// (or carry the VP's panic message). Any failure is a plain-string
/// reason the dispatcher turns into a missing shard, never a panic.
fn decode_shard<R: Wire>(
    bytes: &[u8],
    tag: u8,
    worker: usize,
    workers: usize,
    sent: &[usize],
) -> Result<ShardFile<R>, String> {
    if bytes.len() < SHARD_MAGIC.len() + 12 {
        return Err("shard file truncated".to_string());
    }
    if bytes[..4] != SHARD_MAGIC {
        return Err("bad shard magic (expected WHSH)".to_string());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if checksum(body) != declared {
        return Err("shard checksum mismatch".to_string());
    }
    let mut r = Reader::new(&body[4..]);
    let decode = |e: WireError| format!("shard decode: {e}");
    let version = u32::take(&mut r).map_err(decode)?;
    if version != VERSION {
        return Err(format!("shard version {version} (expected {VERSION})"));
    }
    let file_tag = u8::take(&mut r).map_err(decode)?;
    let file_worker = usize::take(&mut r).map_err(decode)?;
    let cache_checksum = <Option<u64> as Wire>::take(&mut r).map_err(decode)?;
    let (results, stats) = PhaseOutput::<R>::take(&mut r).map_err(decode)?;
    if !r.is_empty() {
        return Err("trailing bytes after shard payload".to_string());
    }
    if file_tag != tag {
        return Err(format!("shard phase tag {file_tag} (expected {tag})"));
    }
    if file_worker != worker {
        return Err(format!(
            "shard from worker {file_worker} (expected {worker})"
        ));
    }
    let n_vps = sent.len();
    if results.len() != n_vps || stats.len() != n_vps {
        return Err(format!(
            "shard carries {} result / {} counter lanes (expected {n_vps})",
            results.len(),
            stats.len()
        ));
    }
    for (vp, lane) in results.iter().enumerate() {
        let want = if vp % workers == worker { sent[vp] } else { 0 };
        let answered = match lane {
            Ok(v) => v.len() == want,
            Err(_) => want > 0,
        };
        if !answered {
            return Err(format!(
                "shard lane of vp {vp} does not answer the {want} task(s) it was sent"
            ));
        }
    }
    Ok(ShardFile {
        worker: file_worker,
        cache_checksum,
        results,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// The substrate a worker resolves from its spec's token: the same
/// network, control plane, and vantage-point list the master holds.
pub struct WorkerSubstrate {
    /// The network.
    pub net: Network,
    /// Its control plane (built cold or loaded from the shared cache).
    pub cp: ControlPlane,
    /// The vantage points, in the master's order.
    pub vps: Vec<RouterId>,
    /// The config checksum of the cache file the plane was loaded
    /// from, if any — reported back for the `A312` agreement audit.
    pub cache_checksum: Option<u64>,
}

/// Everything a worker needs from its spec header before the phase
/// payload.
struct SpecHeader {
    tag: u8,
    worker: usize,
    n_vps: usize,
    seed: u64,
    token: String,
    cache: Option<(String, u64)>,
    faults: FaultPlan,
    trace_opts: TracerouteOpts,
    chaos_abort: bool,
    output: PathBuf,
}

/// How a worker turns a spec's substrate token (plus the optional
/// cache file and expected config checksum) back into a substrate.
pub type SubstrateResolver = dyn Fn(&str, Option<(&Path, u64)>) -> Result<WorkerSubstrate, String>;

/// A worker-side spec decode error; the reason quotes the valid layout.
fn spec_error(spec: &Path, reason: impl std::fmt::Display) -> DistError {
    DistError::Spec {
        path: spec.to_path_buf(),
        reason: format!("{reason}; {SPEC_FIELDS}"),
    }
}

/// Runs one worker process end to end: decode the spec, resolve the
/// substrate through `resolve` (token, optional cache file + expected
/// checksum), execute the phase's task subset serially with the
/// in-process executor, and write the shard file atomically.
///
/// The caller (the CLI's `campaign-worker` subcommand) supplies
/// `resolve` so this crate stays independent of how substrates are
/// named; any `Err` it returns surfaces as [`DistError::Substrate`].
pub fn worker_main(spec_path: &Path, resolve: &SubstrateResolver) -> Result<(), DistError> {
    let bytes = std::fs::read(spec_path)?;
    if bytes.len() < SPEC_MAGIC.len() + 12 {
        return Err(spec_error(spec_path, "file truncated"));
    }
    if bytes[..4] != SPEC_MAGIC {
        return Err(spec_error(spec_path, "bad magic (expected WHSP)"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if checksum(body) != declared {
        return Err(spec_error(spec_path, "checksum mismatch"));
    }
    let mut r = Reader::new(&body[4..]);
    let version = u32::take(&mut r).map_err(|e| spec_error(spec_path, e))?;
    if version != VERSION {
        return Err(spec_error(
            spec_path,
            format!("version {version} (expected {VERSION})"),
        ));
    }
    let header = (|| -> Result<SpecHeader, WireError> {
        Ok(SpecHeader {
            tag: Wire::take(&mut r)?,
            worker: Wire::take(&mut r)?,
            n_vps: Wire::take(&mut r)?,
            seed: Wire::take(&mut r)?,
            token: Wire::take(&mut r)?,
            cache: Wire::take(&mut r)?,
            faults: Wire::take(&mut r)?,
            trace_opts: Wire::take(&mut r)?,
            chaos_abort: Wire::take(&mut r)?,
            output: PathBuf::from(String::take(&mut r)?),
        })
    })()
    .map_err(|e| spec_error(spec_path, e))?;
    if header.chaos_abort {
        // The chaos hook dies the hard way — no shard file, no exit
        // status, exactly what a crashed worker looks like.
        std::process::abort();
    }
    let shard_bytes = match header.tag {
        Bootstrap::TAG => run_phase::<Bootstrap>(spec_path, &header, &mut r, resolve),
        Probe::TAG => run_phase::<Probe>(spec_path, &header, &mut r, resolve),
        Fingerprint::TAG => run_phase::<Fingerprint>(spec_path, &header, &mut r, resolve),
        Reveal::TAG => run_phase::<Reveal>(spec_path, &header, &mut r, resolve),
        t => Err(spec_error(spec_path, format!("unknown phase tag {t}"))),
    }?;
    // Atomic publish: a worker killed mid-write leaves only a tmp file
    // (or a truncated one whose checksum fails), never a silently
    // partial shard.
    let tmp = header.output.with_extension("shard.tmp");
    std::fs::write(&tmp, &shard_bytes)?;
    std::fs::rename(&tmp, &header.output)?;
    Ok(())
}

/// Decodes the spec's phase context and tasks, resolves the substrate,
/// runs the tasks serially with the in-process executor, and
/// encodes the shard file.
fn run_phase<P: Phase>(
    spec_path: &Path,
    header: &SpecHeader,
    r: &mut Reader<'_>,
    resolve: &SubstrateResolver,
) -> Result<Vec<u8>, DistError> {
    let payload = |e: WireError| spec_error(spec_path, format!("phase payload: {e}"));
    let phase = P::take(r).map_err(payload)?;
    let tasks = Vec::<(usize, P::Task)>::take(r).map_err(payload)?;
    if !r.is_empty() {
        return Err(spec_error(spec_path, "trailing bytes after task payload"));
    }
    if let Some(i) = tasks.iter().position(|&(vp, _)| vp >= header.n_vps) {
        return Err(spec_error(
            spec_path,
            format!(
                "task {i}: vantage point index {} is not below n_vps {}",
                tasks[i].0, header.n_vps
            ),
        ));
    }
    let ws = resolve(
        &header.token,
        header
            .cache
            .as_ref()
            .map(|(p, c)| (Path::new(p.as_str()), *c)),
    )
    .map_err(DistError::Substrate)?;
    if ws.vps.len() != header.n_vps {
        return Err(DistError::Substrate(format!(
            "substrate has {} vantage points, spec expects {}",
            ws.vps.len(),
            header.n_vps
        )));
    }
    let hermetic = Hermetic {
        sub: SubstrateRef::new(&ws.net, &ws.cp),
        vps: &ws.vps,
        faults: &header.faults,
        opts: &header.trace_opts,
        seed: header.seed,
    };
    let output = shard::run_stealing(&hermetic, &phase, &tasks, 1, P::CHUNK);
    Ok(encode_shard(
        P::TAG,
        header.worker,
        ws.cache_checksum,
        &output,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::wire::{from_bytes, to_bytes};
    use wormhole_net::Addr;

    /// The reveal types carry no `PartialEq`, so round-trip tests
    /// compare re-encoded bytes: decode(encode(v)) must re-encode to
    /// the same bytes, which is the property the file merge needs.
    fn byte_stable<T: Wire>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(to_bytes(&back), bytes, "re-encode changed the bytes");
    }

    fn sample_tunnel() -> RevealedTunnel {
        RevealedTunnel {
            ingress: Addr(10),
            egress: Addr(20),
            target: Addr(30),
            steps: vec![
                RevealStep {
                    target: Addr(21),
                    new_hops: vec![
                        RevealedHop {
                            addr: Addr(11),
                            labeled: true,
                            rtt_ms: Some(4.25),
                            truth: Some(RouterId(7)),
                        },
                        RevealedHop {
                            addr: Addr(12),
                            labeled: false,
                            rtt_ms: None,
                            truth: None,
                        },
                    ],
                },
                RevealStep {
                    target: Addr(22),
                    new_hops: Vec::new(),
                },
            ],
            extra_probes: 99,
            revisits: 2,
            stars: 1,
            retrace_mismatch: true,
        }
    }

    #[test]
    fn revelation_outcomes_are_byte_stable() {
        byte_stable(&RevelationOutcome::Complete {
            tunnel: sample_tunnel(),
            confidence: Confidence::High,
            veracity: Veracity::Corroborated,
        });
        byte_stable(&RevelationOutcome::Partial {
            tunnel: sample_tunnel(),
            missing: MissingPart::StepLimit,
            confidence: Confidence::Medium,
            veracity: Veracity::Contradicted,
        });
        byte_stable(&RevelationOutcome::Abandoned {
            reason: AbandonReason::WorkerPanicked,
        });
        byte_stable(&RevealOpts {
            max_steps: 5,
            paris_check: true,
        });
        byte_stable(&Reveal {
            opts: RevealOpts::default(),
            discovered: [Addr(3), Addr(1)].into_iter().collect(),
        });
    }

    #[test]
    fn bad_revelation_tags_are_corrupt() {
        for bytes in [[9u8], [3u8]] {
            assert!(from_bytes::<Confidence>(&bytes).is_err());
            assert!(from_bytes::<Veracity>(&bytes).is_err());
            assert!(from_bytes::<MissingPart>(&bytes).is_err());
            assert!(from_bytes::<AbandonReason>(&bytes).is_err());
            assert!(from_bytes::<RevelationOutcome>(&bytes).is_err());
        }
    }

    /// A two-worker dispatcher over four VPs whose worker command is
    /// never run; the tests below drive its merge and spec encoder.
    fn dispatcher(opts: &DistributedOpts) -> DistDispatcher<'_> {
        DistDispatcher::new(opts, 4, 7, FaultPlan::none(), TracerouteOpts::default())
            .expect("valid options")
    }

    fn opts(name: &str) -> DistributedOpts {
        DistributedOpts {
            workers: 2,
            worker_cmd: vec!["unused".to_string()],
            substrate_token: "quick:1".to_string(),
            work_dir: std::env::temp_dir().join(format!("wormhole-{name}-{}", std::process::id())),
            cache: None,
            keep_files: false,
            chaos_abort_worker: None,
        }
    }

    /// One counter record per VP, carrying only the given probe counts.
    fn counters(probes: &[u64]) -> Vec<EngineStats> {
        let record = |&probes: &u64| EngineStats {
            probes,
            ..EngineStats::default()
        };
        probes.iter().map(record).collect()
    }

    /// Worker 1's lanes over four VPs (it owns VPs 1 and 3): two
    /// results for VP 1, a panic on VP 3.
    fn worker1_output() -> PhaseOutput<u64> {
        let results = vec![
            Ok(Vec::new()),
            Ok(vec![7, 9]),
            Ok(Vec::new()),
            Err("worker panicked".to_string()),
        ];
        (results, counters(&[0, 3, 0, 1]))
    }

    #[test]
    fn shard_files_round_trip_and_reject_corruption() {
        let bytes = encode_shard(2, 1, Some(0xABCD), &worker1_output());
        let sent = [0, 2, 5, 1];
        let file = decode_shard::<u64>(&bytes, 2, 1, 2, &sent).expect("valid shard");
        assert_eq!(file.worker, 1);
        assert_eq!(file.cache_checksum, Some(0xABCD));
        assert_eq!(file.stats, counters(&[0, 3, 0, 1]));
        assert_eq!(file.results[1], Ok(vec![7, 9]));
        assert!(file.results[3].is_err());

        // Wrong identity, wrong phase, wrong lane count: all rejected.
        assert!(decode_shard::<u64>(&bytes, 2, 0, 2, &sent).is_err());
        assert!(decode_shard::<u64>(&bytes, 1, 1, 2, &sent).is_err());
        assert!(decode_shard::<u64>(&bytes, 2, 1, 2, &[0, 2, 5, 1, 0]).is_err());
        // A flipped byte fails the trailing checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let err = decode_shard::<u64>(&corrupt, 2, 1, 2, &sent).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        // Truncation too.
        assert!(decode_shard::<u64>(&bytes[..bytes.len() - 9], 2, 1, 2, &sent).is_err());
    }

    /// A shard whose counter lanes do not number `n_vps` is rejected
    /// with a reason, whether it carries too few or too many.
    #[test]
    fn a_shard_with_the_wrong_counter_lane_count_is_rejected() {
        let sent = [0, 2, 5, 1];
        for probes in [&[0, 3, 0][..], &[0, 3, 0, 1, 0][..]] {
            let (results, _) = worker1_output();
            let bytes = encode_shard(2, 1, None, &(results, counters(probes)));
            let err = decode_shard::<u64>(&bytes, 2, 1, 2, &sent).unwrap_err();
            assert!(err.contains("counter lanes (expected 4)"), "{err}");
        }
    }

    /// A shard that passes its checksum but does not answer exactly the
    /// tasks its worker was sent must degrade that worker's VPs, never
    /// turn dropped tasks into empty results or index past a lane.
    #[test]
    fn a_forged_shard_degrades_only_its_workers_vps() {
        let opts = opts("forged-shard");
        let mut d = dispatcher(&opts);
        let good0 = encode_shard(
            2,
            0,
            None,
            &(
                vec![Ok(vec![1u64]), Ok(Vec::new()), Ok(vec![2]), Ok(Vec::new())],
                counters(&[4, 0, 5, 0]),
            ),
        );
        // VP 1 was sent three tasks but its lane answers two; or a
        // lane of VP 0, which worker 1 does not own, answers a task.
        let short = ([1, 3, 1, 1], worker1_output());
        let mut foreign = ([1, 2, 1, 1], worker1_output());
        foreign.1 .0[0] = Ok(vec![5]);
        for (sent, output) in [short, foreign] {
            let files = vec![
                (0, Ok(good0.clone())),
                (1, Ok(encode_shard(2, 1, None, &output))),
            ];
            let (lanes, stats) = d.merge::<u64>(2, "probe", &sent, files);
            assert_eq!(lanes[0], Ok(vec![1]));
            assert_eq!(lanes[2], Ok(vec![2]));
            for vp in [1, 3] {
                let err = lanes[vp].as_ref().unwrap_err();
                assert!(err.contains("worker 1 shard lost"), "{err}");
            }
            assert_eq!(stats, counters(&[4, 0, 5, 0]));
            let account = d.summary.phases.last().expect("phase recorded");
            assert_eq!((account.dispatched, account.received), (2, 1));
            assert_eq!(account.missing, [1]);
        }
        let _ = std::fs::remove_dir_all(&opts.work_dir);
    }

    #[test]
    fn worker_rejects_a_malformed_spec_listing_the_fields() {
        let opts = opts("bad-spec");
        std::fs::create_dir_all(&opts.work_dir).unwrap();
        let path = opts.work_dir.join("bad.spec");
        // A task naming VP 4 of four.
        let out_of_range = dispatcher(&opts).encode_spec(
            &Bootstrap,
            0,
            &[(0, Addr(1)), (4, Addr(2))],
            &opts.work_dir.join("bad.shard"),
            false,
        );
        // Traceroute options starting at TTL 0, which the engine
        // refuses to send.
        let ttl_zero = DistDispatcher::new(
            &opts,
            4,
            7,
            FaultPlan::none(),
            TracerouteOpts {
                start_ttl: 0,
                ..TracerouteOpts::default()
            },
        )
        .expect("valid options")
        .encode_spec(
            &Bootstrap,
            0,
            &[(0, Addr(1))],
            &opts.work_dir.join("bad.shard"),
            false,
        );
        for (spec, names) in [
            (
                b"not a spec at all, far too short to parse".to_vec(),
                "WHSP",
            ),
            (out_of_range, "vantage point index 4 is not below n_vps 4"),
            (ttl_zero, "traceroute start TTL 0"),
        ] {
            std::fs::write(&path, spec).unwrap();
            let err = worker_main(&path, &|_, _| {
                Err("resolver must not be reached".to_string())
            })
            .unwrap_err();
            assert!(matches!(err, DistError::Spec { .. }), "{err}");
            let msg = err.to_string();
            assert!(msg.contains(names), "{msg}");
            assert!(msg.contains("substrate token"), "{msg}");
            assert!(msg.contains("phase tag"), "{msg}");
        }
        let _ = std::fs::remove_dir_all(&opts.work_dir);
    }
}
