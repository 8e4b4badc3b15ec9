//! The §4 measurement campaign, end to end.
//!
//! 1. **Bootstrap**: traceroute from every vantage point to build an
//!    ITDK-style router-level snapshot (the paper downloads CAIDA's).
//! 2. **HDN extraction**: nodes with degree ≥ threshold are suspected
//!    tunnel endpoints. (The paper uses 128 against the full Internet;
//!    the default here is scaled to the synthetic topology's size.)
//! 3. **Target construction**: the HDNs' neighbors (set A) and their
//!    neighbors (set B); the union, split across vantage-point teams.
//! 4. **Probing**: Paris traceroute to every target (start TTL 2), plus
//!    echo-request pings of every discovered address for TTL
//!    fingerprinting.
//! 5. **Revelation**: for every trace ending `X, Y, D` with `X`,`Y`
//!    HDN-owned addresses in the same AS, run the DPR/BRPR recursion of
//!    [`crate::reveal`] on the unique `(X, Y)` pairs.
//!
//! # Execution model
//!
//! The campaign runs over an immutable, shared substrate
//! ([`SubstrateRef`]: network + control plane). Each probing phase is
//! defined once (`crate::phase`) and every task of it runs
//! hermetically: on a session restarted for the task, drawing its fault
//! RNG from `(seed, vp_index, task key)` via
//! [`wormhole_net::trace_seed`], and carrying no state to the next
//! task. One driver hands the tasks to work stealing across up to
//! [`CampaignConfig::jobs`] threads (`crate::shard`) or to worker
//! processes ([`crate::distributed`]). Every phase assigns work per VP
//! from the merged output of the previous phase and merges its results
//! back in a fixed global order, so a report
//! ([`CampaignResult::report`]) depends on the substrate and the
//! config only: it is **byte-identical** at any thread or worker
//! count, in process or not.

use crate::distributed::{DistDispatcher, DistError, DistSummary, DistributedOpts};
use crate::fingerprint::FingerprintTable;
use crate::phase::{Bootstrap, Fingerprint, Phase, Probe, Reveal};
use crate::reveal::{AbandonReason, RevealOpts, RevelationOutcome};
use crate::shard;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;
use wormhole_net::{
    Addr, Asn, ControlPlane, EngineStats, FaultPlan, Network, ReplyKind, RouterId, SubstrateRef,
};
use wormhole_probe::{NullSink, Trace, TraceSink, TracerouteOpts};
use wormhole_topo::{ItdkBuilder, ItdkSnapshot, NodeInfo};

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// HDN degree threshold (paper: 128 at Internet scale; default 12
    /// for the synthetic topologies, same role: flag routers whose
    /// apparent degree outruns plausible physical fan-out).
    pub hdn_threshold: usize,
    /// Revelation recursion options.
    pub reveal: RevealOpts,
    /// Traceroute options (default: the §4 campaign preset).
    pub trace_opts: TracerouteOpts,
    /// Fault injection for every session.
    pub faults: FaultPlan,
    /// Seed for fault randomness: each task derives its own stream from
    /// `(seed, vp_index, task key)`.
    pub seed: u64,
    /// Worker threads for the probing phases: `1` runs serially, `0`
    /// uses the machine's available parallelism. Results are identical
    /// for every value.
    pub jobs: usize,
    /// Run the lint-before-simulate gate (deny `Error`-level static
    /// analysis findings, including the `D5xx` dense-plane verifier
    /// over the flat tables the walk runs on, so the plane is checked
    /// against its recomputed logical model before any probing)
    /// regardless of build profile. Defaults to on in
    /// debug builds only, preserving release-build throughput unless
    /// explicitly requested.
    pub lint_gate: bool,
    /// Chaos hook: panic inside this vantage point's phase-4 probing
    /// batch, exercising the campaign's worker-panic isolation. The
    /// affected VP's shard is marked degraded and later phases skip it;
    /// everything else completes normally. Test/CI use only.
    pub chaos_panic_vp: Option<usize>,
    /// Run the revelation-veracity screening pass: grade every
    /// revelation Corroborated/Unverified/Contradicted from independent
    /// evidence (quoted-TTL plausibility, duplicate-IP/loop screens,
    /// return-path consistency — see [`crate::veracity`]), and spend a
    /// per-flow stability re-trace per revelation when the fault plan
    /// is deceptive. Honest scenarios can never be contradicted, so
    /// their reports stay byte-identical with this on; the adversarial
    /// sweep turns it off to measure undetected corruption.
    pub screen_revelations: bool,
    /// Keep the bootstrap IP paths on [`CampaignResult`]. Off by
    /// default (the paper's workflow discards bootstrap traces after
    /// aggregation, and at thousandfold scale they dominate memory);
    /// tests and the `A310` batch-rebuild oracle turn it on to
    /// cross-check the incremental aggregation against a from-scratch
    /// [`ItdkSnapshot::build`] over the same paths.
    pub keep_bootstrap_paths: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            hdn_threshold: 12,
            reveal: RevealOpts::default(),
            trace_opts: TracerouteOpts::campaign(),
            faults: FaultPlan::none(),
            seed: 0,
            jobs: 1,
            lint_gate: cfg!(debug_assertions),
            chaos_panic_vp: None,
            screen_revelations: true,
            keep_bootstrap_paths: false,
        }
    }
}

/// A retired scheduler choice, kept only because the benchmark package
/// (`perfbench/`) still names both values. Nothing in the campaign reads
/// it: every campaign runs the one hermetic executor. The unblocking
/// benchmark change in ROADMAP.md deletes it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scheduling {
    /// Runs the hermetic executor.
    VpBatches,
    /// Runs the hermetic executor.
    Stealing,
}

/// Wall-clock phase breakdown of a campaign run. Carried on
/// [`CampaignResult`] for benchmarking but **never** rendered into
/// [`CampaignResult::report`] — wall time is the one thing about a run
/// that is not deterministic.
#[derive(Copy, Clone, Debug, Default)]
pub struct CampaignTimings {
    /// Seconds spent inside the sharded probing phases (bootstrap,
    /// probe, fingerprint pings, revelation), i.e. the part that scales
    /// with `jobs`.
    pub probe_seconds: f64,
    /// Seconds spent in the serial analysis between probing phases
    /// (snapshot aggregation, HDN extraction, candidate scan, merges).
    pub merge_seconds: f64,
    /// The snapshot-aggregation share of `merge_seconds`: incremental
    /// [`ItdkBuilder`] ingestion at every shard-merge point plus the
    /// canonicalizing finish at the bootstrap phase boundary. This is
    /// what perfbench's `core.analysis_ms` times — the incremental
    /// pipeline keeps it O(new traces) instead of O(rebuild).
    pub analysis_seconds: f64,
}

/// Running totals of the incremental snapshot builder at one phase
/// boundary: how many IP paths the phase fed it and the cumulative
/// node/link/address counts afterwards. Carried on
/// [`CampaignResult::snapshot_deltas`] (excluded from
/// [`CampaignResult::report`]); the `A310` lint rule audits the
/// sequence for conservation — counts never shrink, ingest totals add
/// up, and the final state matches a batch-rebuild oracle when one is
/// available.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// The campaign phase that fed the builder.
    pub phase: &'static str,
    /// IP paths ingested during this phase.
    pub ingested: u64,
    /// Cumulative node count after the phase.
    pub nodes: usize,
    /// Cumulative undirected link count after the phase.
    pub links: usize,
    /// Cumulative distinct address count after the phase.
    pub addresses: usize,
}

/// One vantage-point shard lost to a worker panic: the campaign
/// completed without it and reports the loss here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradedShard {
    /// The vantage-point index whose batch panicked.
    pub vp: usize,
    /// The campaign phase the panic occurred in.
    pub phase: &'static str,
    /// The panic message.
    pub message: String,
}

/// A candidate Ingress–Egress pair observed at the end of a trace.
#[derive(Clone, Debug)]
pub struct CandidatePair {
    /// Suspected ingress LER address (`X`).
    pub ingress: Addr,
    /// Suspected egress LER address (`Y`).
    pub egress: Addr,
    /// The trace destination (`D`).
    pub target: Addr,
    /// The AS both endpoints map to.
    pub asn: Asn,
    /// Index of the vantage point that saw the pair.
    pub vp_index: usize,
    /// Index of the trace in [`CampaignResult::traces`].
    pub trace_index: usize,
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// The bootstrap router-level snapshot (invisible view).
    pub snapshot: ItdkSnapshot,
    /// HDN node indices in `snapshot`.
    pub hdns: Vec<usize>,
    /// The measurement targets (set A ∪ B addresses).
    pub targets: Vec<Addr>,
    /// All campaign traces (bootstrap traces are not kept).
    pub traces: Vec<Trace>,
    /// The vantage point that ran each trace (index-aligned with
    /// `traces`).
    pub trace_vps: Vec<usize>,
    /// TTL signatures of every pinged/observed address.
    pub fingerprints: FingerprintTable,
    /// Raw observed time-exceeded reply TTL per address, with the
    /// vantage point that observed it (first observation wins; the
    /// paired ping is issued from the same vantage point so the RTLA
    /// gap compares like with like).
    pub te_obs: HashMap<Addr, (usize, u8)>,
    /// Raw observed echo-reply TTL per address.
    pub er_obs: HashMap<Addr, u8>,
    /// Candidate pairs, one entry per observing trace.
    pub candidates: Vec<CandidatePair>,
    /// Revelation outcome per unique `(ingress, egress)` pair.
    pub revelations: HashMap<(Addr, Addr), RevelationOutcome>,
    /// Total probe packets spent (bootstrap + campaign + revelation +
    /// fingerprinting).
    pub probes: u64,
    /// Probe packets per vantage-point shard (index-aligned with the
    /// campaign's vantage points; sums to `probes`).
    pub probes_by_vp: Vec<u64>,
    /// Aggregated engine counters over every hermetic task session the
    /// campaign ran. Deterministic at any `jobs` value; in
    /// particular `heap_allocs` stays `0` — campaign sessions keep path
    /// recording off, so the whole probing walk is allocation-free.
    /// Excluded from [`Self::report`] (like [`Self::timings`]) to keep
    /// existing report transcripts stable.
    pub engine_stats: EngineStats,
    /// The per-trace probe budget the campaign ran with, if any.
    pub trace_budget: Option<u32>,
    /// Vantage-point shards lost to worker panics; empty on a healthy
    /// run.
    pub degraded_shards: Vec<DegradedShard>,
    /// Whether the revelation-veracity screening pass ran
    /// ([`CampaignConfig::screen_revelations`]); the veracity tiers on
    /// [`Self::revelations`] are meaningful only when it did.
    pub screened: bool,
    /// Whether the fault plan included deceptive behaviors
    /// ([`wormhole_net::FaultPlan::is_deceptive`]) — carried for the
    /// `V606` adversarial-scenario audit.
    pub deceptive_faults: bool,
    /// Wall-clock phase breakdown (excluded from [`Self::report`]).
    pub timings: CampaignTimings,
    /// Per-phase running totals of the incremental snapshot builder
    /// (bootstrap, then the phase-4 probe traces). Deterministic at any
    /// `jobs` value, but excluded from
    /// [`Self::report`] to keep existing transcripts stable.
    pub snapshot_deltas: Vec<SnapshotDelta>,
    /// Order-independent fingerprint of the builder's *final* state
    /// (bootstrap + probe paths). Equal to
    /// `ItdkSnapshot::build(all paths).checksum()` — the `A310` audit
    /// compares it against that batch-rebuild oracle.
    pub snapshot_checksum: u64,
    /// The bootstrap IP paths, kept only when
    /// [`CampaignConfig::keep_bootstrap_paths`] is set; empty otherwise.
    pub bootstrap_paths: Vec<Vec<Option<Addr>>>,
    /// Cross-process shard accounting, present only when the run was
    /// distributed ([`Campaign::run_distributed`]). Excluded from
    /// [`Self::report`] — a distributed run's report must stay
    /// byte-identical to the in-process run it mirrors.
    pub dist: Option<DistSummary>,
}

impl CampaignResult {
    /// The revealed tunnels (unique pairs with at least one hop).
    pub fn tunnels(&self) -> impl Iterator<Item = &crate::reveal::RevealedTunnel> + '_ {
        self.revelations
            .values()
            .filter_map(RevelationOutcome::tunnel)
    }

    /// Unique candidate `(ingress, egress)` pairs.
    pub fn unique_pairs(&self) -> BTreeSet<(Addr, Addr)> {
        self.candidates
            .iter()
            .map(|c| (c.ingress, c.egress))
            .collect()
    }
}

/// Runs every probing phase of one campaign, on worker threads or, for
/// [`Campaign::run_distributed`], in worker processes, and keeps what
/// the phases share: which VPs are dead, the degraded-shard records,
/// the engine counters per VP and the probing wall time.
struct Driver<'s> {
    /// The worker processes, when the run is distributed.
    dist: Option<DistDispatcher<'s>>,
    hermetic: shard::Hermetic<'s>,
    jobs: usize,
    dead: Vec<bool>,
    degraded: Vec<DegradedShard>,
    /// Engine counters per VP, summed over every phase: the one probe
    /// tally the result's `probes`, `probes_by_vp` and `engine_stats`
    /// are derived from.
    stats: Vec<EngineStats>,
    probe_seconds: f64,
}

impl<'s> Driver<'s> {
    fn new(campaign: &'s Campaign<'_>, dist: Option<DistDispatcher<'s>>) -> Driver<'s> {
        let cfg = &campaign.cfg;
        let n_vps = campaign.vps.len();
        Driver {
            dist,
            hermetic: shard::Hermetic {
                sub: campaign.sub,
                vps: &campaign.vps,
                faults: &cfg.faults,
                opts: &cfg.trace_opts,
                seed: cfg.seed,
            },
            jobs: campaign.resolved_jobs(),
            dead: vec![false; n_vps],
            degraded: Vec::new(),
            stats: vec![EngineStats::default(); n_vps],
            probe_seconds: 0.0,
        }
    }

    /// Runs `phase` over `(vp, task)` entries in global order and
    /// returns one result per entry. Entries of a VP that is dead, or
    /// whose shard this phase loses (recorded as a [`DegradedShard`]),
    /// come back `None`.
    fn run<P: Phase>(&mut self, phase: &P, entries: &[(usize, P::Task)]) -> Vec<Option<P::Out>> {
        let started = Instant::now();
        let queue: Vec<(usize, P::Task)> = entries
            .iter()
            .filter(|&&(vp, _)| !self.dead[vp])
            .copied()
            .collect();
        let (lanes, stats) = match &mut self.dist {
            Some(d) => d.dispatch(phase, &queue),
            None => shard::run_stealing(&self.hermetic, phase, &queue, self.jobs, P::CHUNK),
        };
        self.probe_seconds += started.elapsed().as_secs_f64();
        for (acc, s) in self.stats.iter_mut().zip(&stats) {
            acc.merge(s);
        }
        let mut lanes: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(vp, lane)| {
                let lane = lane.unwrap_or_else(|message| {
                    self.dead[vp] = true;
                    let phase = P::LABEL;
                    self.degraded.push(DegradedShard { vp, phase, message });
                    Vec::new()
                });
                lane.into_iter()
            })
            .collect();
        // Each entry takes the next result of its VP's lane: lanes keep
        // queue order, and a VP that was dead or lost its shard this
        // phase has an empty lane.
        entries.iter().map(|&(vp, _)| lanes[vp].next()).collect()
    }
}

/// A campaign bound to a substrate and its vantage points.
pub struct Campaign<'a> {
    sub: SubstrateRef<'a>,
    vps: Vec<RouterId>,
    cfg: CampaignConfig,
}

impl<'a> Campaign<'a> {
    /// Creates a campaign.
    ///
    /// # Panics
    /// Panics without vantage points and, when
    /// [`CampaignConfig::lint_gate`] is set (the default in debug
    /// builds), when the network fails static analysis with
    /// `Error`-level diagnostics (lint before simulate).
    pub fn new(
        net: &'a Network,
        cp: &'a ControlPlane,
        vps: Vec<RouterId>,
        cfg: CampaignConfig,
    ) -> Campaign<'a> {
        Campaign::over(SubstrateRef::new(net, cp), vps, cfg)
    }

    /// Creates a campaign over a substrate handle.
    ///
    /// # Panics
    /// Same contract as [`Campaign::new`].
    pub fn over(sub: SubstrateRef<'a>, vps: Vec<RouterId>, cfg: CampaignConfig) -> Campaign<'a> {
        assert!(!vps.is_empty(), "need at least one vantage point");
        if cfg.lint_gate {
            wormhole_lint::deny_errors("Campaign", &wormhole_lint::check_plane(sub.net, sub.cp));
        }
        Campaign { sub, vps, cfg }
    }

    fn net(&self) -> &'a Network {
        self.sub.net
    }

    /// Worker threads to use for this run.
    fn resolved_jobs(&self) -> usize {
        match self.cfg.jobs {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// The bootstrap target list: every non-host router loopback plus
    /// the interface addresses of inter-AS borders (transit traffic in
    /// the paper's dataset enters and leaves through exactly those).
    fn bootstrap_targets(&self) -> Vec<Addr> {
        let mut out = Vec::new();
        for r in self.net().routers() {
            if r.config.is_host {
                continue;
            }
            out.push(r.loopback);
            for iface in &r.ifaces {
                if self.net().link(iface.link).inter_as {
                    out.push(iface.addr);
                }
            }
        }
        out
    }

    /// Runs the full campaign, sharded across vantage-point workers.
    ///
    /// Every phase derives its per-VP work assignment purely from the
    /// merged output of the previous phase and merges its shards back
    /// in global order, so the result is identical for every `jobs`
    /// value — see the module docs for the full argument.
    pub fn run(&self) -> CampaignResult {
        self.run_streaming(&mut NullSink)
    }

    /// [`Campaign::run`] with a streaming consumer attached: the merged
    /// phase-4 traces are forwarded to `sink` in global trace order
    /// (the same order [`CampaignResult::traces`] keeps them, so the
    /// stream is byte-identical at every `jobs` setting),
    /// followed by one aggregate engine-stats delta for the whole run.
    /// Bootstrap traces are aggregated into the snapshot but, as in the
    /// paper's workflow, not retained or streamed. This is the single
    /// emission path behind `wormhole-cli campaign --emit jsonl` and
    /// `wormhole-serve`.
    pub fn run_streaming(&self, sink: &mut dyn TraceSink) -> CampaignResult {
        self.run_inner(sink, None)
    }

    /// [`Campaign::run_streaming`] with every probing phase executed by
    /// worker *processes* instead of threads: the phase
    /// queue is partitioned by owning vantage point, each worker gets a
    /// shard-spec file and writes a canonical shard file back, and the
    /// master merges the files deterministically — see
    /// [`crate::distributed`] for the formats and the byte-identity
    /// argument. The returned result carries the cross-process
    /// accounting in [`CampaignResult::dist`]; its report is
    /// byte-identical to the in-process run's.
    pub fn run_distributed(
        &self,
        sink: &mut dyn TraceSink,
        opts: &DistributedOpts,
    ) -> Result<CampaignResult, DistError> {
        let dispatcher = DistDispatcher::new(
            opts,
            self.vps.len(),
            self.cfg.seed,
            self.cfg.faults.clone(),
            self.cfg.trace_opts.clone(),
        )?;
        Ok(self.run_inner(sink, Some(dispatcher)))
    }

    fn run_inner(
        &self,
        sink: &mut dyn TraceSink,
        dist: Option<DistDispatcher<'_>>,
    ) -> CampaignResult {
        let n_vps = self.vps.len();
        let run_started = Instant::now();
        let probe = Probe {
            chaos: self.cfg.chaos_panic_vp.map(|i| {
                assert!(i < n_vps, "chaos_panic_vp {i} out of range (0..{n_vps})");
                (i, self.vps[i])
            }),
        };
        let mut driver = Driver::new(self, dist);

        // Phase 1: bootstrap snapshot. Every VP traces a share of the
        // loopbacks — and every VP traces the borders-heavy transit
        // space by design of the topology. Several teams per target
        // give the ingress diversity HDN detection needs.
        let boot_targets = self.bootstrap_targets();
        let teams = 3usize.min(n_vps);
        let mut boot_assign: Vec<(usize, Addr)> = Vec::with_capacity(boot_targets.len() * teams);
        for (i, &t) in boot_targets.iter().enumerate() {
            for k in 0..teams {
                let vp = (i + k * (n_vps / teams).max(1)) % n_vps;
                boot_assign.push((vp, t));
            }
        }
        let boot_paths = driver.run(&Bootstrap, &boot_assign);
        // Feed the merged paths straight into the incremental builder —
        // no batch rebuild. The canonical finish makes the snapshot
        // independent of ingest order anyway.
        let analysis_started = Instant::now();
        let mut builder = ItdkBuilder::new();
        let mut bootstrap_paths: Vec<Vec<Option<Addr>>> = Vec::new();
        for path in boot_paths.into_iter().flatten() {
            builder.ingest(&path, |a| NodeInfo::resolve(self.net(), a));
            if self.cfg.keep_bootstrap_paths {
                bootstrap_paths.push(path.into_vec());
            }
        }
        let mut snapshot_deltas = vec![SnapshotDelta {
            phase: "bootstrap",
            ingested: builder.ingested(),
            nodes: builder.num_nodes(),
            links: builder.num_links(),
            addresses: builder.num_addresses(),
        }];
        // The canonical bootstrap snapshot drives HDN extraction and
        // the candidate scan; the builder lives on to absorb the
        // phase-4 traces in O(new trace).
        let snapshot = builder.snapshot();
        let mut analysis_seconds = analysis_started.elapsed().as_secs_f64();

        // Phase 2–3: HDNs and targets.
        let hdns = snapshot.hdns(self.cfg.hdn_threshold);
        let (set_a, set_b) = snapshot.hdn_neighborhoods(&hdns);
        let mut target_set: BTreeSet<Addr> = BTreeSet::new();
        for &node in set_a.union(&set_b) {
            target_set.extend(snapshot.addresses(node).iter().copied());
        }
        let targets: Vec<Addr> = target_set.into_iter().collect();
        let hdn_nodes: HashSet<usize> = hdns.iter().copied().collect();

        // Phase 4: probe each target from its team's vantage point. The
        // scan that feeds the fingerprint table replays the merged
        // traces in global order. A degraded VP's lost targets merge as
        // empty unreached traces.
        let probe_assign: Vec<(usize, Addr)> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (i % n_vps, t))
            .collect();
        let traced = driver.run(&probe, &probe_assign);
        let traces: Vec<(usize, Trace)> = probe_assign
            .iter()
            .zip(traced)
            .map(|(&(vp, dst), trace)| {
                let trace = trace.unwrap_or_else(|| Trace {
                    src: Addr::new(0, 0, 0, 0),
                    dst,
                    flow: 0,
                    hops: Vec::new(),
                    reached: false,
                    probes: 0,
                    truncated: false,
                });
                (vp, trace)
            })
            .collect();
        // The probe traces extend the same builder incrementally —
        // the campaign never rebuilds aggregate state it already has.
        let analysis_started = Instant::now();
        for (_vp, trace) in &traces {
            builder.ingest_hops(trace.hops.iter().map(|h| h.addr), |a| {
                NodeInfo::resolve(self.net(), a)
            });
        }
        snapshot_deltas.push(SnapshotDelta {
            phase: "probe",
            ingested: builder.ingested() - snapshot_deltas[0].ingested,
            nodes: builder.num_nodes(),
            links: builder.num_links(),
            addresses: builder.num_addresses(),
        });
        let snapshot_checksum = builder.checksum();
        analysis_seconds += analysis_started.elapsed().as_secs_f64();
        sink.on_phase("probe");
        for (vp, trace) in &traces {
            sink.on_trace(*vp, trace);
        }
        let mut fingerprints = FingerprintTable::new();
        let mut discovered: BTreeSet<Addr> = BTreeSet::new();
        let mut te_obs: HashMap<Addr, (usize, u8)> = HashMap::new();
        let mut er_obs: HashMap<Addr, u8> = HashMap::new();
        for (vp, trace) in &traces {
            for hop in &trace.hops {
                if let (Some(addr), Some(ttl)) = (hop.addr, hop.reply_ip_ttl) {
                    if hop.kind == Some(ReplyKind::TimeExceeded) {
                        fingerprints.observe_te(addr, ttl);
                        te_obs.entry(addr).or_insert((*vp, ttl));
                    }
                    discovered.insert(addr);
                }
            }
        }

        // Fingerprint pings (echo-reply initial TTLs), issued from the
        // vantage point that observed the address where possible so the
        // RTLA gap compares replies over the same return path.
        let ping_assign: Vec<(usize, Addr)> = discovered
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                let vp = te_obs.get(&addr).map(|&(vp, _)| vp).unwrap_or(i % n_vps);
                (vp, addr)
            })
            .collect();
        let pings = driver.run(&Fingerprint, &ping_assign);
        for (&(_, addr), ping) in ping_assign.iter().zip(pings) {
            if let Some(r) = ping.and_then(|p| p.reply) {
                fingerprints.observe_er(addr, r.reply_ip_ttl);
                er_obs.insert(addr, r.reply_ip_ttl);
            }
        }

        // Phase 5a: candidate pairs, scanned serially over the merged
        // traces (pure CPU, no probing). The paper inspects the last
        // three hops `X, Y, D`; we scan every consecutive same-AS HDN
        // pair along the trace — the same rule applied at every
        // position, which also catches the pair when the target *is*
        // the egress (a set-A target) or lies several hops past it.
        // Unique pairs are deduplicated across shards here, before any
        // revelation runs: the first observing trace (in global trace
        // order) claims the pair for its vantage point.
        let mut candidates = Vec::new();
        let mut pair_seen: HashSet<(Addr, Addr)> = HashSet::new();
        let mut reveal_jobs: Vec<(usize, (Addr, Addr, Addr))> = Vec::new();
        let owner_asn = |a| self.net().owner_asn(a);
        let is_hdn = |n: Option<usize>| n.is_some_and(|n| hdn_nodes.contains(&n));
        // One buffer holds each trace's responsive hops in turn.
        let mut resp: Vec<(Addr, Option<usize>)> = Vec::new();
        for (trace_index, (vp, trace)) in traces.iter().enumerate() {
            resp.clear();
            resp.extend(
                trace
                    .hops
                    .iter()
                    .filter_map(|h| h.addr)
                    .map(|a| (a, snapshot.node_of(a))),
            );
            for i in 0..resp.len().saturating_sub(1) {
                let (x, node_x) = resp[i];
                let (y, node_y) = resp[i + 1];
                let d = resp.get(i + 2).map(|&(a, _)| a).unwrap_or(trace.dst);
                if x == y || y == d {
                    continue;
                }
                let (Some(asn_x), Some(asn_y)) = (owner_asn(x), owner_asn(y)) else {
                    continue;
                };
                if asn_x != asn_y {
                    continue;
                }
                // The paper's §4 rule requires *both* endpoints to be
                // HDNs at Internet scale; at simulator scale egress
                // degrees stay diluted, so one HDN endpoint suffices.
                if !is_hdn(node_x) && !is_hdn(node_y) {
                    continue;
                }
                candidates.push(CandidatePair {
                    ingress: x,
                    egress: y,
                    target: d,
                    asn: asn_x,
                    vp_index: *vp,
                    trace_index,
                });
                if pair_seen.insert((x, y)) {
                    reveal_jobs.push((*vp, (x, y, d)));
                }
            }
        }

        // Phase 5b: revelation. A session pings newly revealed addresses
        // unless phase 4 already discovered them or the same session
        // already pinged them. Pairs owned by a dead VP merge as
        // Abandoned(WorkerPanicked).
        let reveal = Reveal {
            // Deceptive fault plans earn the per-flow stability
            // re-trace; honest plans keep their exact probe counts (and
            // report bytes).
            opts: RevealOpts {
                paris_check: self.cfg.screen_revelations && self.cfg.faults.is_deceptive(),
                ..self.cfg.reveal.clone()
            },
            discovered,
        };
        let revealed = driver.run(&reveal, &reveal_jobs);
        let mut revelations: HashMap<(Addr, Addr), RevelationOutcome> = HashMap::new();
        for (&(_, (x, y, _)), r) in reveal_jobs.iter().zip(revealed) {
            let (out, ers) = r.unwrap_or_else(|| {
                let reason = AbandonReason::WorkerPanicked;
                (RevelationOutcome::Abandoned { reason }, Vec::new())
            });
            for (addr, ttl) in ers {
                if let Some(ttl) = ttl {
                    fingerprints.observe_er(addr, ttl);
                }
            }
            revelations.insert((x, y), out);
        }

        // Veracity screening: grade every revelation against the merged
        // evidence (fingerprints include the hops pinged above). Runs on
        // the merged result, so it is trivially independent of jobs and
        // workers.
        if self.cfg.screen_revelations {
            for ((_, y), out) in revelations.iter_mut() {
                let rtl = match (te_obs.get(y), er_obs.get(y)) {
                    (Some(&(_, te)), Some(&er)) => {
                        crate::rtla::return_tunnel_length(fingerprints.signature(*y), te, er)
                    }
                    _ => None,
                };
                let v = crate::veracity::screen_revelation(
                    out,
                    |a| {
                        let s = fingerprints.signature(a);
                        (s.te, s.er)
                    },
                    rtl,
                );
                out.set_veracity(v);
            }
        }

        let probes_by_vp: Vec<u64> = driver.stats.iter().map(|s| s.probes).collect();
        let mut engine_stats = EngineStats::default();
        for s in &driver.stats {
            engine_stats.merge(s);
        }
        sink.on_stats(&engine_stats);
        let (trace_vps, traces) = traces.into_iter().unzip();
        let timings = CampaignTimings {
            probe_seconds: driver.probe_seconds,
            merge_seconds: (run_started.elapsed().as_secs_f64() - driver.probe_seconds).max(0.0),
            analysis_seconds,
        };
        CampaignResult {
            snapshot,
            hdns,
            targets,
            traces,
            trace_vps,
            fingerprints,
            te_obs,
            er_obs,
            candidates,
            revelations,
            probes: engine_stats.probes,
            probes_by_vp,
            engine_stats,
            trace_budget: self.cfg.trace_opts.probe_budget,
            degraded_shards: driver.degraded,
            screened: self.cfg.screen_revelations,
            deceptive_faults: self.cfg.faults.is_deceptive(),
            timings,
            snapshot_deltas,
            snapshot_checksum,
            bootstrap_paths,
            dist: driver.dist.map(DistDispatcher::into_summary),
        }
    }
}

/// Reduces a campaign result to the neutral snapshot consumed by the
/// `wormhole-lint` result auditor (`A3xx` rules).
pub fn audit_input(result: &CampaignResult) -> wormhole_lint::CampaignAudit {
    let signatures = result
        .fingerprints
        .iter()
        .map(|(addr, sig)| (addr, sig.te, sig.er))
        .collect();
    let tunnels = result
        .tunnels()
        .map(|t| {
            // The RTLA gap at the egress, when both raw reply TTLs were
            // observed and its signature is the `<255, 64>` pair.
            let rtl = match (result.te_obs.get(&t.egress), result.er_obs.get(&t.egress)) {
                (Some(&(_, te)), Some(&er)) => crate::rtla::return_tunnel_length(
                    result.fingerprints.signature(t.egress),
                    te,
                    er,
                ),
                _ => None,
            };
            // Steps in the same forward (ingress-first) order as the
            // hop list, so the auditor can re-derive the method claim.
            let steps: Vec<usize> = t.steps.iter().rev().map(|s| s.new_hops.len()).collect();
            let method = Some(match t.method() {
                crate::reveal::RevealMethod::Dpr => wormhole_lint::MethodClaim::Dpr,
                crate::reveal::RevealMethod::Brpr => wormhole_lint::MethodClaim::Brpr,
                crate::reveal::RevealMethod::Either => wormhole_lint::MethodClaim::Either,
                crate::reveal::RevealMethod::Hybrid => wormhole_lint::MethodClaim::Hybrid,
            });
            wormhole_lint::TunnelAudit {
                ingress: t.ingress,
                egress: t.egress,
                hops: t.hops(),
                rtl,
                steps,
                method,
            }
        })
        .collect();
    let candidates = result
        .candidates
        .iter()
        .map(|c| (c.ingress, c.egress, c.trace_index))
        .collect();
    let mut revelations: Vec<_> = result
        .revelations
        .iter()
        .map(|(&(x, y), out)| {
            let (kind, hops) = match out {
                RevelationOutcome::Complete { tunnel, .. } => {
                    (wormhole_lint::RevelationKind::Complete, tunnel.len())
                }
                RevelationOutcome::Partial { tunnel, .. } => {
                    (wormhole_lint::RevelationKind::Partial, tunnel.len())
                }
                RevelationOutcome::Abandoned { .. } => {
                    (wormhole_lint::RevelationKind::Abandoned, 0)
                }
            };
            (x, y, kind, hops)
        })
        .collect();
    revelations.sort_by_key(|&(x, y, _, _)| (x, y));
    // Veracity tiers are meaningful only when the screening pass ran;
    // an unscreened campaign hands the auditor an empty list (which is
    // what the V606 adversarial-scenario rule keys on).
    let mut veracity: Vec<_> = if result.screened {
        result
            .revelations
            .iter()
            .map(|(&(x, y), out)| {
                let tier = match out.veracity() {
                    crate::reveal::Veracity::Corroborated => {
                        wormhole_lint::VeracityTier::Corroborated
                    }
                    crate::reveal::Veracity::Unverified => wormhole_lint::VeracityTier::Unverified,
                    crate::reveal::Veracity::Contradicted => {
                        wormhole_lint::VeracityTier::Contradicted
                    }
                };
                (x, y, tier)
            })
            .collect()
    } else {
        Vec::new()
    };
    veracity.sort_by_key(|&(x, y, _)| (x, y));
    let mut revelation_artifacts: Vec<_> = result
        .revelations
        .iter()
        .map(|(&(x, y), out)| {
            let (revisits, stars, mismatch) = match out {
                RevelationOutcome::Complete { tunnel, .. }
                | RevelationOutcome::Partial { tunnel, .. } => {
                    (tunnel.revisits, tunnel.stars, tunnel.retrace_mismatch)
                }
                RevelationOutcome::Abandoned { .. } => (0, 0, false),
            };
            (x, y, revisits, stars, mismatch)
        })
        .collect();
    revelation_artifacts.sort_by_key(|&(x, y, ..)| (x, y));
    wormhole_lint::CampaignAudit {
        signatures,
        tunnels,
        candidates,
        num_traces: result.traces.len(),
        probes: result.probes,
        probes_by_shard: result.probes_by_vp.clone(),
        trace_budget: result.trace_budget,
        trace_probes: result
            .traces
            .iter()
            .map(|t| (t.probes, t.truncated))
            .collect(),
        revelations,
        veracity,
        revelation_artifacts,
        deceptive_plan: result.deceptive_faults,
        degraded_shards: result
            .degraded_shards
            .iter()
            .map(|d| (d.vp, d.phase.to_string()))
            .collect(),
        snapshot_deltas: result
            .snapshot_deltas
            .iter()
            .map(|d| {
                (
                    d.phase.to_string(),
                    d.ingested,
                    d.nodes,
                    d.links,
                    d.addresses,
                )
            })
            .collect(),
        snapshot_checksum: Some(result.snapshot_checksum),
        snapshot_oracle: None,
        dist: result.dist.as_ref().map(|d| wormhole_lint::DistAudit {
            workers: d.workers,
            phases: d
                .phases
                .iter()
                .map(|p| wormhole_lint::DistPhaseAudit {
                    phase: p.phase.to_string(),
                    dispatched: p.dispatched,
                    received: p.received,
                    missing: p.missing.clone(),
                    duplicates: p.duplicates.clone(),
                    shard_probes: p.shard_probes,
                })
                .collect(),
            master_cache: d.master_cache_checksum,
            worker_cache: d.worker_cache_checksums.clone(),
        }),
    }
}

/// Batch-rebuilds the campaign's snapshot from scratch over the same IP
/// paths (bootstrap + phase-4 traces) and returns the oracle tuple the
/// `A310` audit compares the incremental builder against. `None` unless
/// the campaign ran with [`CampaignConfig::keep_bootstrap_paths`] — the
/// bootstrap paths are the part the result does not otherwise retain.
pub fn snapshot_oracle(
    net: &Network,
    result: &CampaignResult,
) -> Option<(u64, usize, usize, usize, u64)> {
    if result.bootstrap_paths.is_empty() {
        return None;
    }
    let resolve = |addr| NodeInfo::resolve(net, addr);
    let mut builder = ItdkBuilder::new();
    for path in &result.bootstrap_paths {
        builder.ingest(path, resolve);
    }
    for trace in &result.traces {
        builder.ingest(&trace.addr_path(), resolve);
    }
    Some((
        builder.ingested(),
        builder.num_nodes(),
        builder.num_links(),
        builder.num_addresses(),
        builder.checksum(),
    ))
}

/// Audits a campaign result against the network it ran on, returning
/// the `A3xx` diagnostics. When the campaign retained its bootstrap
/// paths ([`CampaignConfig::keep_bootstrap_paths`]), the `A310` audit
/// additionally cross-checks the incremental snapshot against a
/// batch-rebuild oracle over the same IP paths.
pub fn audit_campaign(net: &Network, result: &CampaignResult) -> Vec<wormhole_lint::Diagnostic> {
    let mut input = audit_input(result);
    input.snapshot_oracle = snapshot_oracle(net, result);
    wormhole_lint::audit(net, &input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topo::{generate, InternetConfig};

    #[test]
    fn campaign_reveals_tunnels_in_small_internet() {
        let internet = generate(&InternetConfig::small(11));
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg);
        let result = campaign.run();
        assert!(result.snapshot.num_nodes() > 30);
        assert!(!result.hdns.is_empty(), "expected HDNs in invisible view");
        assert!(!result.targets.is_empty());
        assert!(!result.candidates.is_empty(), "expected candidate pairs");
        let tunnels: Vec<_> = result.tunnels().collect();
        assert!(!tunnels.is_empty(), "expected revealed tunnels");
        // Revealed hops are real routers of the same AS as the pair.
        for t in &tunnels {
            let asn = internet.net.owner_asn(t.ingress).unwrap();
            for hop in t.hops() {
                assert_eq!(internet.net.owner_asn(hop), Some(asn));
            }
        }
        assert!(result.probes > 0);
        assert_eq!(result.probes_by_vp.iter().sum::<u64>(), result.probes);
        assert_eq!(result.trace_vps.len(), result.traces.len());
    }

    #[test]
    fn fingerprints_cover_discovered_space() {
        let internet = generate(&InternetConfig::small(13));
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg);
        let result = campaign.run();
        assert!(!result.fingerprints.is_empty());
        // At least one complete pair signature should exist.
        let complete = result
            .fingerprints
            .iter()
            .filter(|(_, s)| s.pair().is_some())
            .count();
        assert!(complete > 0);
    }

    #[test]
    fn parallel_jobs_match_serial_byte_for_byte() {
        let internet = generate(&InternetConfig::small(11));
        let run = |jobs: usize| {
            let cfg = CampaignConfig {
                hdn_threshold: 6,
                faults: FaultPlan {
                    loss: 0.02,
                    icmp_loss: 0.01,
                    jitter_ms: 0.5,
                    ..FaultPlan::default()
                },
                seed: 42,
                jobs,
                ..CampaignConfig::default()
            };
            Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
                .run()
                .report()
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "jobs=2 diverged from serial");
        assert_eq!(serial, run(4), "jobs=4 diverged from serial");
    }

    /// `probes`, `probes_by_vp` and `engine_stats` all derive from the
    /// driver's one per-VP counter record: they must agree with each
    /// other, cover every phase-4 trace, and not move with the job
    /// count.
    #[test]
    fn per_vp_counters_sum_to_the_engine_stats_at_any_job_count() {
        let internet = generate(&InternetConfig::small(11));
        let run = |jobs: usize| {
            let cfg = CampaignConfig {
                hdn_threshold: 6,
                faults: wormhole_net::FaultScenario::Hostile.plan(),
                seed: 42,
                jobs,
                ..CampaignConfig::default()
            };
            Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
        };
        let serial = run(1);
        let by_vp = &serial.probes_by_vp;
        assert_eq!(by_vp.len(), internet.vps.len());
        assert_eq!(by_vp.iter().sum::<u64>(), serial.engine_stats.probes);
        assert_eq!(serial.probes, serial.engine_stats.probes);
        assert!(serial.engine_stats.lost > 0, "hostile run lost nothing");
        let mut traced = vec![0u64; by_vp.len()];
        for (&vp, t) in serial.trace_vps.iter().zip(&serial.traces) {
            traced[vp] += u64::from(t.probes);
        }
        for (vp, (&all, &phase4)) in by_vp.iter().zip(&traced).enumerate() {
            assert!(all > phase4, "vp {vp}: {all} <= {phase4}");
        }
        for jobs in [2, 4] {
            let out = run(jobs);
            assert_eq!(out.probes_by_vp, serial.probes_by_vp, "jobs={jobs}");
            assert_eq!(out.engine_stats, serial.engine_stats, "jobs={jobs}");
        }
    }

    #[test]
    fn campaign_reveals_and_audits_clean() {
        let internet = generate(&InternetConfig::small(11));
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg);
        let result = campaign.run();
        assert!(
            result.tunnels().count() > 0,
            "the campaign lost the tunnels"
        );
        assert_eq!(result.probes_by_vp.iter().sum::<u64>(), result.probes);
        assert!(result.probes_by_vp.iter().all(|&p| p > 0));
        let diags = audit_campaign(&internet.net, &result);
        assert!(
            !wormhole_lint::has_errors(&diags),
            "{}",
            wormhole_lint::render(&diags)
        );
        assert!(
            !diags.iter().any(|d| d.code == "A307"),
            "no idle shard expected: {}",
            wormhole_lint::render(&diags)
        );
    }

    #[test]
    fn chaos_panic_degrades_one_shard_without_killing_the_campaign() {
        let internet = generate(&InternetConfig::small(11));
        let run = |jobs: usize| {
            let cfg = CampaignConfig {
                hdn_threshold: 6,
                seed: 42,
                jobs,
                chaos_panic_vp: Some(1),
                ..CampaignConfig::default()
            };
            Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
        };
        let result = run(1);
        // The campaign completed, with exactly the poisoned shard lost.
        assert_eq!(result.degraded_shards.len(), 1);
        let d = &result.degraded_shards[0];
        assert_eq!(d.vp, 1);
        assert_eq!(d.phase, "probe");
        assert!(d.message.contains("chaos"), "{}", d.message);
        // Survivors still produced analysis-grade output.
        assert!(!result.candidates.is_empty());
        assert!(result.tunnels().count() > 0);
        // The dead VP's revelation pairs were synthesized, not dropped.
        let abandoned_by_panic = result
            .revelations
            .values()
            .filter(|o| {
                matches!(
                    o,
                    RevelationOutcome::Abandoned {
                        reason: AbandonReason::WorkerPanicked
                    }
                )
            })
            .count();
        assert_eq!(
            result.revelations.len(),
            result.unique_pairs().len(),
            "every unique pair keeps an outcome"
        );
        let _ = abandoned_by_panic; // may be 0 if vp 1 observed no pairs
                                    // The report reflects the degradation and stays byte-identical
                                    // across thread counts.
        let report = result.report();
        assert!(report.text().contains("degraded_shards=1"));
        assert!(report.text().contains("degraded vp=1 phase=probe"));
        assert_eq!(report, run(2).report(), "jobs=2 diverged under chaos");
        assert_eq!(report, run(4).report(), "jobs=4 diverged under chaos");
        // And the A403 audit flags it without erroring the whole run.
        let diags = audit_campaign(&internet.net, &result);
        assert!(
            diags.iter().any(|d| d.code == "A403"),
            "{}",
            wormhole_lint::render(&diags)
        );
        assert!(
            !wormhole_lint::has_errors(&diags),
            "{}",
            wormhole_lint::render(&diags)
        );
    }

    #[test]
    fn incremental_aggregation_matches_the_batch_rebuild_oracle() {
        let internet = generate(&InternetConfig::small(11));
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            keep_bootstrap_paths: true,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg);
        let result = campaign.run();

        // Delta accounting: two phases, monotone counts, totals add up.
        assert_eq!(result.snapshot_deltas.len(), 2);
        let (boot, probe) = (&result.snapshot_deltas[0], &result.snapshot_deltas[1]);
        assert_eq!(boot.phase, "bootstrap");
        assert_eq!(probe.phase, "probe");
        assert_eq!(probe.ingested, result.traces.len() as u64);
        assert!(probe.nodes >= boot.nodes);
        assert!(probe.links >= boot.links);
        assert!(probe.addresses >= boot.addresses);

        // The bootstrap snapshot matches its delta row.
        assert_eq!(result.snapshot.num_nodes(), boot.nodes);
        assert_eq!(result.snapshot.num_links(), boot.links);
        assert_eq!(result.snapshot.num_addresses(), boot.addresses);

        // Batch-rebuild oracle over bootstrap + probe paths, in a
        // shuffled order: the canonical rebuild must reproduce the
        // incremental checksum exactly.
        let net = &internet.net;
        let resolve = |addr| NodeInfo::resolve(net, addr);
        let mut all_paths = result.bootstrap_paths.clone();
        assert_eq!(all_paths.len() as u64, boot.ingested);
        all_paths.extend(result.traces.iter().map(Trace::addr_path));
        all_paths.reverse();
        let oracle = ItdkSnapshot::build(&all_paths, resolve);
        assert_eq!(oracle.checksum(), result.snapshot_checksum);
        assert_eq!(oracle.num_nodes(), probe.nodes);
        assert_eq!(oracle.num_links(), probe.links);
        assert_eq!(oracle.num_addresses(), probe.addresses);

        // And by default the bootstrap paths are not retained.
        let lean = Campaign::new(
            &internet.net,
            &internet.cp,
            internet.vps.clone(),
            CampaignConfig {
                hdn_threshold: 6,
                ..CampaignConfig::default()
            },
        )
        .run();
        assert!(lean.bootstrap_paths.is_empty());
        assert_eq!(lean.snapshot_checksum, result.snapshot_checksum);
        assert_eq!(
            lean.report(),
            result.report(),
            "oracle flag must not change the report"
        );
    }

    #[test]
    fn campaign_streams_merged_traces_in_global_order() {
        use wormhole_probe::TraceSink;
        #[derive(Default)]
        struct Capture {
            traces: Vec<(usize, Addr)>,
            phases: Vec<String>,
            stats: Vec<u64>,
        }
        impl TraceSink for Capture {
            fn on_trace(&mut self, vp: usize, trace: &Trace) {
                self.traces.push((vp, trace.dst));
            }
            fn on_stats(&mut self, delta: &EngineStats) {
                self.stats.push(delta.probes);
            }
            fn on_phase(&mut self, phase: &str) {
                self.phases.push(phase.to_string());
            }
        }
        let internet = generate(&InternetConfig::small(11));
        let run = |jobs: usize| {
            let cfg = CampaignConfig {
                hdn_threshold: 6,
                seed: 3,
                jobs,
                ..CampaignConfig::default()
            };
            let mut sink = Capture::default();
            let result = Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
                .run_streaming(&mut sink);
            (result, sink)
        };
        let (result, sink) = run(1);
        assert_eq!(sink.phases, vec!["probe".to_string()]);
        let expected: Vec<(usize, Addr)> = result
            .trace_vps
            .iter()
            .zip(&result.traces)
            .map(|(&vp, t)| (vp, t.dst))
            .collect();
        assert_eq!(sink.traces, expected, "stream follows global trace order");
        assert_eq!(sink.stats, vec![result.engine_stats.probes]);
        // The stream is deterministic in the worker count.
        let (_, parallel) = run(4);
        assert_eq!(sink.traces, parallel.traces);
        assert_eq!(sink.stats, parallel.stats);
    }

    #[test]
    fn honest_reports_are_identical_with_screening_toggled() {
        // Honest faults can only *lose* evidence, never fabricate it,
        // so the screen never grades Contradicted and the report —
        // whose only veracity marker is the Contradicted suffix — must
        // stay byte-identical whether screening ran or not.
        let internet = generate(&InternetConfig::small(11));
        for scenario in [
            wormhole_net::FaultScenario::Clean,
            wormhole_net::FaultScenario::LossyCore,
        ] {
            let run = |screen: bool| {
                let cfg = CampaignConfig {
                    hdn_threshold: 6,
                    faults: scenario.plan(),
                    seed: 42,
                    screen_revelations: screen,
                    ..CampaignConfig::default()
                };
                Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
                    .run()
                    .report()
            };
            let screened = run(true);
            assert!(
                !screened.text().contains("veracity=contradicted"),
                "honest {scenario:?} campaign produced a Contradicted revelation"
            );
            assert_eq!(
                screened,
                run(false),
                "screening changed an honest {scenario:?} report"
            );
        }
    }

    #[test]
    fn adversarial_campaign_screens_consistently_and_flags_unscreened_runs() {
        let internet = generate(&InternetConfig::small(11));
        let run = |screen: bool| {
            let cfg = CampaignConfig {
                hdn_threshold: 6,
                faults: wormhole_net::FaultScenario::Paranoid.plan(),
                seed: 42,
                screen_revelations: screen,
                ..CampaignConfig::default()
            };
            Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
        };
        let result = run(true);
        assert!(result.screened && result.deceptive_faults);
        let a = audit_input(&result);
        assert_eq!(
            a.veracity.len(),
            result.revelations.len(),
            "every outcome carries a tier"
        );
        // The screen and the V6xx rules implement the same contract, so
        // a real screened campaign — even a deceived one — never trips
        // the veracity-consistency errors.
        let diags = audit_campaign(&internet.net, &result);
        for code in ["V601", "V602", "V603", "V604", "V605", "V606"] {
            assert!(
                !diags.iter().any(|d| d.code == code),
                "{code} fired on a screened campaign: {}",
                wormhole_lint::render(&diags)
            );
        }
        // Switching the screen off under a deceptive plan is exactly
        // what V606 exists to surface.
        let unscreened = run(false);
        assert!(!unscreened.screened);
        if !unscreened.revelations.is_empty() {
            let diags = audit_campaign(&internet.net, &unscreened);
            assert!(
                diags.iter().any(|d| d.code == "V606"),
                "expected V606 on an unscreened adversarial run: {}",
                wormhole_lint::render(&diags)
            );
        }
    }

    #[test]
    fn release_lint_gate_honors_config_flag() {
        let internet = generate(&InternetConfig::small(5));
        // Explicitly on: must run (and pass on a clean Internet) in
        // every build profile, including release.
        let cfg = CampaignConfig {
            lint_gate: true,
            ..CampaignConfig::default()
        };
        let _ = Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg);
    }

    #[test]
    #[should_panic]
    fn needs_vantage_points() {
        let internet = generate(&InternetConfig::small(5));
        let _ = Campaign::new(
            &internet.net,
            &internet.cp,
            Vec::new(),
            CampaignConfig::default(),
        );
    }
}
