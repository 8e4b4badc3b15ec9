//! The measurements behind the repo-root benchmark artefacts
//! (`BENCH_campaign.json`, `BENCH_engine.json`): the timed runs, their
//! JSON rendering and parsing, and the pairing of a fresh run with the
//! committed rows that `bench-regression` gates on. The JSON is emitted
//! (and re-parsed) by hand — one run object per line — to keep the
//! bench crate free of serialisation dependencies.

use std::path::PathBuf;
use std::time::Instant;
use wormhole_core::{Campaign, CampaignConfig, DistributedOpts, Scheduling};
use wormhole_net::{Addr, ControlPlane, FaultPlan, FaultScenario, ProbeState, SubstrateRef};
use wormhole_probe::{NullSink, Session};
use wormhole_topo::{generate, generate_cached, CacheStatus, Internet, InternetConfig};

/// One timed §4 campaign at a fixed worker count, fault scenario and
/// executor, with the per-phase breakdown the campaign itself reports.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Worker count passed to the campaign.
    pub jobs: usize,
    /// Fault scenario name.
    pub faults: &'static str,
    /// Executor name (`batches` or `stealing`).
    pub scheduling: &'static str,
    /// Probe packets the campaign injected.
    pub probes: u64,
    /// End-to-end wall seconds for the campaign run.
    pub seconds: f64,
    /// Wall seconds inside the four probing phases.
    pub probe_seconds: f64,
    /// Wall seconds merging and aggregating between phases.
    pub merge_seconds: f64,
    /// Wall seconds in post-merge analysis (snapshot finish, HDN
    /// extraction, revelation) — the incremental-aggregation pipeline
    /// keeps this flat as the trace corpus grows.
    pub analysis_seconds: f64,
    /// Headline throughput (`probes / seconds`).
    pub probes_per_sec: f64,
}

/// Campaign measurements over one generated Internet.
pub struct ScaleBench {
    /// Scale name (`tenfold`, `thousandfold`).
    pub scale: &'static str,
    /// Transit-AS count at this scale.
    pub transit_ases: usize,
    /// Router count of the generated Internet.
    pub routers: usize,
    /// Wall seconds to generate the Internet, control plane included.
    pub build_seconds: f64,
    /// The timed runs, in matrix order.
    pub runs: Vec<CampaignRun>,
}

/// The tenfold run matrix: the serial baseline, the worker sweep, and
/// both executors under the hostile scenario.
pub const TENFOLD_MATRIX: &[(usize, FaultScenario, Scheduling)] = &[
    (1, FaultScenario::Clean, Scheduling::VpBatches),
    (2, FaultScenario::Clean, Scheduling::VpBatches),
    (4, FaultScenario::Clean, Scheduling::VpBatches),
    (4, FaultScenario::Hostile, Scheduling::VpBatches),
    (1, FaultScenario::Clean, Scheduling::Stealing),
    (4, FaultScenario::Clean, Scheduling::Stealing),
    (4, FaultScenario::Hostile, Scheduling::Stealing),
];

/// The thousandfold run matrix: enough to prove the scale completes
/// under both executors without doubling the bench wall time.
pub const THOUSANDFOLD_MATRIX: &[(usize, FaultScenario, Scheduling)] = &[
    (1, FaultScenario::Clean, Scheduling::VpBatches),
    (4, FaultScenario::Clean, Scheduling::Stealing),
];

/// Stable on-disk name of a scheduling mode.
pub fn scheduling_name(s: Scheduling) -> &'static str {
    match s {
        Scheduling::VpBatches => "batches",
        Scheduling::Stealing => "stealing",
    }
}

/// The runner's core count (1 when unknown) — recorded in every
/// artefact so a single-core runner's flat parallel numbers are not
/// mistaken for an executor regression.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Generates the Internet for `cfg`, returning it with the build wall
/// seconds (topology plus control plane).
pub fn generate_timed(cfg: &InternetConfig) -> (Internet, f64) {
    let t0 = Instant::now();
    let internet = generate(cfg);
    (internet, t0.elapsed().as_secs_f64())
}

/// Times one §4 campaign over an already-generated Internet. The
/// campaign is deterministic, so only the timing varies between runs;
/// it runs three times and the fastest wall time is kept, which keeps
/// the regression gate stable on noisy shared runners.
pub fn time_campaign(
    internet: &Internet,
    jobs: usize,
    scenario: FaultScenario,
    scheduling: Scheduling,
) -> CampaignRun {
    let mut best: Option<CampaignRun> = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let result = Campaign::new(
            &internet.net,
            &internet.cp,
            internet.vps.clone(),
            CampaignConfig {
                hdn_threshold: 9,
                jobs,
                faults: scenario.plan(),
                scheduling,
                ..CampaignConfig::default()
            },
        )
        .run();
        let seconds = t0.elapsed().as_secs_f64();
        let run = CampaignRun {
            jobs,
            faults: scenario.name(),
            scheduling: scheduling_name(scheduling),
            probes: result.probes,
            seconds,
            probe_seconds: result.timings.probe_seconds,
            merge_seconds: result.timings.merge_seconds,
            analysis_seconds: result.timings.analysis_seconds,
            probes_per_sec: result.probes as f64 / seconds,
        };
        if best.as_ref().is_none_or(|b| run.seconds < b.seconds) {
            best = Some(run);
        }
    }
    best.expect("three runs produce a fastest run")
}

/// Runs the `(jobs, scenario, scheduling)` matrix over one Internet.
pub fn measure_scale(
    scale: &'static str,
    internet: &Internet,
    build_seconds: f64,
    matrix: &[(usize, FaultScenario, Scheduling)],
) -> ScaleBench {
    ScaleBench {
        scale,
        transit_ases: internet.personas.len(),
        routers: internet.net.num_routers(),
        build_seconds,
        runs: matrix
            .iter()
            .map(|&(jobs, scenario, sched)| time_campaign(internet, jobs, scenario, sched))
            .collect(),
    }
}

/// One timed multi-process campaign: `workers` worker processes, one
/// shard file each, merged file-level by the master.
#[derive(Clone, Debug)]
pub struct DistRun {
    /// Scale name the run belongs to.
    pub scale: &'static str,
    /// Worker *process* count.
    pub workers: usize,
    /// Probe packets across all workers (merged master-side count).
    pub probes: u64,
    /// End-to-end wall seconds, process spawns and merges included.
    pub seconds: f64,
    /// Headline throughput (`probes / seconds`).
    pub probes_per_sec: f64,
}

/// Cold-build versus warm-restore wall seconds for the on-disk
/// substrate cache at one scale. The acceptance bar is a *ratio* —
/// `warm_seconds <= 0.5 * cold_seconds` — so the gate holds on any
/// runner speed.
#[derive(Clone, Debug)]
pub struct CacheBench {
    /// Scale name the timings belong to.
    pub scale: &'static str,
    /// Wall seconds for the cold pass: generate, build, save.
    pub cold_seconds: f64,
    /// Wall seconds for the warm pass: generate topology, restore the
    /// control plane from disk (fastest of three restores).
    pub warm_seconds: f64,
}

/// Times one distributed campaign over an already-generated Internet.
/// `worker_cmd` is the argv prefix re-invoked per worker (the caller
/// supplies its own binary's worker mode); `cache` points every worker
/// at a prewarmed substrate-cache file so the run measures the steady
/// state, not N redundant control-plane builds. One timed run — each
/// phase already spawns `workers` processes, so the run is its own
/// repetition — and the work dir is cleaned up afterwards.
pub fn time_distributed(
    scale: &'static str,
    internet: &Internet,
    workers: usize,
    worker_cmd: Vec<String>,
    substrate_token: &str,
    cache: Option<(PathBuf, u64)>,
) -> DistRun {
    let work_dir = std::env::temp_dir().join(format!(
        "wormhole-bench-dist-{scale}-{}",
        std::process::id()
    ));
    let opts = DistributedOpts {
        workers,
        worker_cmd,
        substrate_token: substrate_token.to_string(),
        work_dir: work_dir.clone(),
        cache,
        keep_files: false,
        chaos_abort_worker: None,
    };
    let campaign = Campaign::new(
        &internet.net,
        &internet.cp,
        internet.vps.clone(),
        CampaignConfig {
            hdn_threshold: 9,
            jobs: 1,
            faults: FaultScenario::Clean.plan(),
            scheduling: Scheduling::Stealing,
            ..CampaignConfig::default()
        },
    );
    let t0 = Instant::now();
    let result = campaign
        .run_distributed(&mut NullSink, &opts)
        .expect("distributed bench campaign");
    let seconds = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir(&work_dir);
    DistRun {
        scale,
        workers,
        probes: result.probes,
        seconds,
        probes_per_sec: result.probes as f64 / seconds,
    }
}

/// Times the substrate cache at one scale in a scratch directory: one
/// cold pass (build + save), then the fastest of three warm restores.
/// Panics if the cache does not actually go cold-then-warm — a silently
/// cold second pass would fake a regression.
pub fn time_cache(scale: &'static str, cfg: &InternetConfig) -> CacheBench {
    let dir = std::env::temp_dir().join(format!(
        "wormhole-bench-cache-{scale}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache scratch dir");
    let t0 = Instant::now();
    let (_internet, status) = generate_cached(cfg, &dir).expect("cold cache pass");
    let cold_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(status, CacheStatus::Cold, "first pass must build the cache");
    let mut warm_seconds = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let (_internet, status) = generate_cached(cfg, &dir).expect("warm cache pass");
        warm_seconds = warm_seconds.min(t.elapsed().as_secs_f64());
        assert_eq!(status, CacheStatus::Warm, "later passes must restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
    CacheBench {
        scale,
        cold_seconds,
        warm_seconds,
    }
}

/// One human-readable line per run, for bench and CI logs.
pub fn summary_lines(scales: &[ScaleBench]) -> Vec<String> {
    scales
        .iter()
        .flat_map(|s| {
            s.runs.iter().map(move |r| {
                format!(
                    "campaign {} jobs={} faults={} sched={}: {:.0} probes/sec \
                     ({:.3}s wall; probe {:.3}s, merge {:.3}s, analysis {:.3}s; build {:.3}s)",
                    s.scale,
                    r.jobs,
                    r.faults,
                    r.scheduling,
                    r.probes_per_sec,
                    r.seconds,
                    r.probe_seconds,
                    r.merge_seconds,
                    r.analysis_seconds,
                    s.build_seconds
                )
            })
        })
        .collect()
}

/// Renders campaign measurements as the `BENCH_campaign.json` document.
/// Each distributed and substrate-cache row carries its scale inline so
/// the one-line parsers stay line-local.
pub fn campaign_json(scales: &[ScaleBench], dist: &[DistRun], cache: &[CacheBench]) -> String {
    let dist: Vec<String> = dist
        .iter()
        .map(|d| {
            format!(
                "    {{\"scale\": \"{}\", \"workers\": {}, \"probes\": {}, \
                 \"seconds\": {:.6}, \"probes_per_sec\": {:.1}}}",
                d.scale, d.workers, d.probes, d.seconds, d.probes_per_sec
            )
        })
        .collect();
    let cache: Vec<String> = cache
        .iter()
        .map(|c| {
            format!(
                "    {{\"scale\": \"{}\", \"cold_seconds\": {:.6}, \"warm_seconds\": {:.6}}}",
                c.scale, c.cold_seconds, c.warm_seconds
            )
        })
        .collect();
    let sections: Vec<String> = scales
        .iter()
        .map(|s| {
            let runs: Vec<String> = s
                .runs
                .iter()
                .map(|r| {
                    format!(
                        "        {{\"jobs\": {}, \"faults\": \"{}\", \"scheduling\": \"{}\", \
                         \"probes\": {}, \"seconds\": {:.6}, \"probe_seconds\": {:.6}, \
                         \"merge_seconds\": {:.6}, \"analysis_seconds\": {:.6}, \
                         \"probes_per_sec\": {:.1}}}",
                        r.jobs,
                        r.faults,
                        r.scheduling,
                        r.probes,
                        r.seconds,
                        r.probe_seconds,
                        r.merge_seconds,
                        r.analysis_seconds,
                        r.probes_per_sec
                    )
                })
                .collect();
            format!(
                "    {{\n      \"scale\": \"{}\",\n      \"transit_ases\": {},\n      \
                 \"routers\": {},\n      \"build_seconds\": {:.6},\n      \"runs\": [\n{}\n      \
                 ]\n    }}",
                s.scale,
                s.transit_ases,
                s.routers,
                s.build_seconds,
                runs.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"campaign\",\n  \"cores\": {},\n  \"scales\": [\n{}\n  ],\n  \
         \"distributed\": [\n{}\n  ],\n  \"substrate_cache\": [\n{}\n  ]\n}}\n",
        cores(),
        sections.join(",\n"),
        dist.join(",\n"),
        cache.join(",\n")
    )
}

/// One timed loopback sweep — a walk of every router loopback from the
/// first vantage point with path recording off.
pub struct WalkRun {
    /// Stable row name in `BENCH_engine.json` (`walk_scalar`,
    /// `walk_thousandfold`).
    pub name: &'static str,
    /// Router count of the Internet walked.
    pub routers: usize,
    /// Traceroutes run (one per router loopback).
    pub traces: u64,
    /// Probe packets injected by the walk.
    pub probes: u64,
    /// Wall seconds for the walk.
    pub seconds: f64,
    /// Walk throughput.
    pub probes_per_sec: f64,
    /// Heap allocations the engine charged to packets — must stay 0
    /// with path recording off.
    pub heap_allocs: u64,
}

/// Engine-level microbench results: the allocation-free packet walk at
/// tenfold and thousandfold, and the tenfold control-plane build.
pub struct EngineBench {
    /// Router count of the tenfold Internet (the headline scale).
    pub routers: usize,
    /// The timed walks, one `BENCH_engine.json` row each.
    pub walks: Vec<WalkRun>,
    /// Control-plane build wall seconds.
    pub plane_seconds: f64,
}

/// Times one loopback sweep: one `Session::traceroute` per router
/// loopback. Best-of-three sweeps: the walk is deterministic, only
/// timing varies, and counters are read after the first sweep so they
/// count one sweep's probes.
pub fn time_walk(name: &'static str, internet: &Internet) -> WalkRun {
    let sub = SubstrateRef::new(&internet.net, &internet.cp);
    let mut sess = Session::over(sub, internet.vps[0], ProbeState::new(FaultPlan::none(), 0));
    let dsts: Vec<Addr> = internet.net.routers().iter().map(|r| r.loopback).collect();
    let mut seconds = f64::INFINITY;
    let mut probes = 0;
    let mut traces = 0;
    for sweep in 0..3 {
        let t0 = Instant::now();
        for &d in &dsts {
            sess.traceroute(d);
        }
        seconds = seconds.min(t0.elapsed().as_secs_f64());
        if sweep == 0 {
            probes = sess.stats.probes;
            traces = sess.stats.traceroutes;
        }
    }
    WalkRun {
        name,
        routers: internet.net.num_routers(),
        traces,
        probes,
        seconds,
        probes_per_sec: probes as f64 / seconds,
        heap_allocs: sess.engine_stats().heap_allocs,
    }
}

/// Measures the two walk rows — tenfold, then thousandfold — and times
/// the tenfold control-plane build.
pub fn measure_engine(tenfold: &Internet, thousandfold: &Internet) -> EngineBench {
    let walks = vec![
        time_walk("walk_scalar", tenfold),
        time_walk("walk_thousandfold", thousandfold),
    ];

    // Untimed warmup build: the first build pays the allocator's page
    // faults, which would otherwise be billed to the timing.
    ControlPlane::build(&tenfold.net).expect("warmup plane build");
    let t1 = Instant::now();
    ControlPlane::build(&tenfold.net).expect("plane build");
    let plane_seconds = t1.elapsed().as_secs_f64();

    EngineBench {
        routers: tenfold.net.num_routers(),
        walks,
        plane_seconds,
    }
}

/// Renders engine measurements as the `BENCH_engine.json` document —
/// one object per line so [`parse_engine_baseline`] can key each walk
/// row by name.
pub fn engine_json(e: &EngineBench) -> String {
    let walks: Vec<String> = e
        .walks
        .iter()
        .map(|w| {
            format!(
                "  \"{}\": {{\"routers\": {}, \"traces\": {}, \"probes\": {}, \
                 \"seconds\": {:.6}, \"probes_per_sec\": {:.1}, \"heap_allocs\": {}}},",
                w.name, w.routers, w.traces, w.probes, w.seconds, w.probes_per_sec, w.heap_allocs
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"engine\",\n  \"cores\": {},\n  \"scale\": \"tenfold\",\n  \
         \"routers\": {},\n{}\n  \"plane_build\": {{\"serial_seconds\": {:.6}}}\n}}\n",
        cores(),
        e.routers,
        walks.join("\n"),
        e.plane_seconds
    )
}

/// Writes a benchmark artefact at the repo root, next to the sources.
pub fn write_baseline(file: &str, json: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

/// Reads a committed benchmark artefact from the repo root.
pub fn read_baseline(file: &str) -> Option<String> {
    std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))).ok()
}

/// A `(scale, jobs, faults, scheduling)` throughput entry extracted
/// from a committed `BENCH_campaign.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRun {
    /// Scale name the run belongs to.
    pub scale: String,
    /// Worker count of the run.
    pub jobs: usize,
    /// Fault scenario name.
    pub faults: String,
    /// Executor name.
    pub scheduling: String,
    /// Committed throughput.
    pub probes_per_sec: f64,
    /// Committed post-merge analysis wall seconds, when the baseline
    /// predates the incremental pipeline this is `None` and the time
    /// gate is skipped for the row.
    pub analysis_seconds: Option<f64>,
}

/// Extracts the per-run throughput entries from a `BENCH_campaign.json`
/// document. Leans on the emitter's one-object-per-line layout, and
/// tolerates the pre-stealing single-scale format by defaulting the
/// scale to `tenfold`, the scenario to `clean` and the executor to
/// `batches`.
pub fn parse_campaign_baseline(json: &str) -> Vec<BaselineRun> {
    let mut scale = "tenfold".to_string();
    let mut out = Vec::new();
    for line in json.lines() {
        if let Some(s) = str_field(line, "scale") {
            scale = s;
        }
        if let (Some(jobs), Some(pps)) =
            (num_field(line, "jobs"), num_field(line, "probes_per_sec"))
        {
            out.push(BaselineRun {
                scale: scale.clone(),
                jobs: jobs as usize,
                faults: str_field(line, "faults").unwrap_or_else(|| "clean".into()),
                scheduling: str_field(line, "scheduling").unwrap_or_else(|| "batches".into()),
                probes_per_sec: pps,
                analysis_seconds: num_field(line, "analysis_seconds"),
            });
        }
    }
    out
}

/// A `(scale, workers)` distributed-campaign throughput entry from a
/// committed `BENCH_campaign.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct DistBaseline {
    /// Scale name the run belongs to.
    pub scale: String,
    /// Worker process count.
    pub workers: usize,
    /// Committed throughput.
    pub probes_per_sec: f64,
}

/// Extracts the distributed-campaign rows from a `BENCH_campaign.json`
/// document. Keys each line on `"workers":` + `"probes_per_sec":` —
/// the in-process runs carry `"jobs":` instead, so the two row kinds
/// never collide (and [`parse_campaign_baseline`] skips these lines
/// for the same reason).
pub fn parse_distributed_baseline(json: &str) -> Vec<DistBaseline> {
    json.lines()
        .filter_map(|line| {
            Some(DistBaseline {
                scale: str_field(line, "scale")?,
                workers: num_field(line, "workers")? as usize,
                probes_per_sec: num_field(line, "probes_per_sec")?,
            })
        })
        .collect()
}

/// A substrate-cache cold/warm timing entry from a committed
/// `BENCH_campaign.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheBaseline {
    /// Scale name the timings belong to.
    pub scale: String,
    /// Committed cold-pass wall seconds.
    pub cold_seconds: f64,
    /// Committed warm-pass wall seconds.
    pub warm_seconds: f64,
}

/// Extracts the substrate-cache rows from a `BENCH_campaign.json`
/// document, keyed on `"cold_seconds":` + `"warm_seconds":`.
pub fn parse_cache_baseline(json: &str) -> Vec<CacheBaseline> {
    json.lines()
        .filter_map(|line| {
            Some(CacheBaseline {
                scale: str_field(line, "scale")?,
                cold_seconds: num_field(line, "cold_seconds")?,
                warm_seconds: num_field(line, "warm_seconds")?,
            })
        })
        .collect()
}

/// A named walk-throughput row extracted from a committed
/// `BENCH_engine.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineRow {
    /// Row name (`walk_scalar`, `walk_thousandfold`).
    pub name: String,
    /// Committed throughput.
    pub probes_per_sec: f64,
}

/// Extracts every `walk*` throughput row from a `BENCH_engine.json`
/// document. Leans on the emitter's one-object-per-line layout; the
/// committed format is the two-row matrix (`walk_scalar`,
/// `walk_thousandfold`).
pub fn parse_engine_baseline(json: &str) -> Vec<EngineRow> {
    json.lines()
        .filter_map(|line| {
            let name = line.trim_start().strip_prefix('"')?;
            let (name, _) = name.split_once('"')?;
            if !name.starts_with("walk") {
                return None;
            }
            Some(EngineRow {
                name: name.to_string(),
                probes_per_sec: num_field(line, "probes_per_sec")?,
            })
        })
        .collect()
}

/// What a paired row is gated on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Probes/sec, which may not fall.
    Throughput,
    /// Wall seconds of the named quantity, which may not grow.
    Seconds(&'static str),
}

/// One fresh measurement next to the committed value it is gated on.
#[derive(Clone, Debug, PartialEq)]
pub struct Paired {
    /// Row name, as printed (`campaign tenfold jobs=1 …`, `engine walk_scalar`).
    pub name: String,
    /// The quantity compared.
    pub gate: Gate,
    /// Committed value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
}

/// A fresh run matched against the committed baselines, in both
/// directions.
#[derive(Debug, Default)]
pub struct Pairing {
    /// Every row present on both sides, in baseline order.
    pub paired: Vec<Paired>,
    /// One message per row present on one side only, and per missing
    /// baseline file. Each one fails the gate: a committed row with no
    /// fresh run means the matrix shrank, a fresh run with no committed
    /// row means the baseline is incomplete and that run is ungated.
    pub unpaired: Vec<String>,
}

impl Pairing {
    /// Pairs `fresh` and `base` rows by name; `gates` lists one pair's
    /// gated `(gate, baseline, fresh)` values.
    fn rows<F, B>(
        &mut self,
        matrix: &str,
        fresh: &[(String, F)],
        base: &[(String, B)],
        gates: impl Fn(&F, &B) -> Vec<(Gate, f64, f64)>,
    ) {
        for (name, b) in base {
            match fresh.iter().find(|(n, _)| n == name) {
                Some((_, f)) => {
                    for (gate, baseline, fresh) in gates(f, b) {
                        let name = name.clone();
                        self.paired.push(Paired {
                            name,
                            gate,
                            baseline,
                            fresh,
                        });
                    }
                }
                None => self.unpaired.push(format!(
                    "{name}: committed baseline has no fresh measurement — the {matrix} matrix \
                     shrank; refresh the baseline with --write if that was intended"
                )),
            }
        }
        for (name, _) in fresh {
            if !base.iter().any(|(n, _)| n == name) {
                self.unpaired.push(format!(
                    "{name}: fresh measurement has no committed row — the baseline is \
                     incomplete; refresh it with --write"
                ));
            }
        }
    }
}

fn campaign_row_name(scale: &str, jobs: usize, faults: &str, scheduling: &str) -> String {
    format!("campaign {scale} jobs={jobs} faults={faults} sched={scheduling}")
}

/// Pairs one run's measurements with the committed `BENCH_campaign.json`
/// and `BENCH_engine.json` documents (`None` when a file is missing).
pub fn pair_with_baselines(
    scales: &[ScaleBench],
    dist: &[DistRun],
    cache: &[CacheBench],
    walks: &[WalkRun],
    campaign: Option<&str>,
    engine: Option<&str>,
) -> Pairing {
    let mut out = Pairing::default();
    match campaign {
        Some(json) => {
            let fresh: Vec<_> = scales
                .iter()
                .flat_map(|s| s.runs.iter().map(move |r| (s.scale, r)))
                .map(|(scale, r)| (campaign_row_name(scale, r.jobs, r.faults, r.scheduling), r))
                .collect();
            let base: Vec<_> = parse_campaign_baseline(json)
                .into_iter()
                .map(|b| {
                    (
                        campaign_row_name(&b.scale, b.jobs, &b.faults, &b.scheduling),
                        b,
                    )
                })
                .collect();
            out.rows("run", &fresh, &base, |r, b| {
                let mut gates = vec![(Gate::Throughput, b.probes_per_sec, r.probes_per_sec)];
                if let Some(analysis) = b.analysis_seconds {
                    gates.push((Gate::Seconds("analysis"), analysis, r.analysis_seconds));
                }
                gates
            });

            let name =
                |scale: &str, workers| format!("campaign {scale} distributed workers={workers}");
            let fresh: Vec<_> = dist.iter().map(|d| (name(d.scale, d.workers), d)).collect();
            let base: Vec<_> = parse_distributed_baseline(json)
                .into_iter()
                .map(|b| (name(&b.scale, b.workers), b))
                .collect();
            out.rows("distributed", &fresh, &base, |d, b| {
                vec![(Gate::Throughput, b.probes_per_sec, d.probes_per_sec)]
            });

            let name = |scale: &str| format!("substrate cache {scale}");
            let fresh: Vec<_> = cache.iter().map(|c| (name(c.scale), c)).collect();
            let base: Vec<_> = parse_cache_baseline(json)
                .into_iter()
                .map(|b| (name(&b.scale), b))
                .collect();
            out.rows("cache", &fresh, &base, |c, b| {
                vec![(
                    Gate::Seconds("warm restore"),
                    b.warm_seconds,
                    c.warm_seconds,
                )]
            });
        }
        None => out
            .unpaired
            .push("BENCH_campaign.json missing — commit a baseline via --write".to_string()),
    }
    match engine {
        Some(json) => {
            let name = |walk: &str| format!("engine {walk}");
            let fresh: Vec<_> = walks.iter().map(|w| (name(w.name), w)).collect();
            let base: Vec<_> = parse_engine_baseline(json)
                .into_iter()
                .map(|b| (name(&b.name), b))
                .collect();
            out.rows("walk", &fresh, &base, |w, b| {
                vec![(Gate::Throughput, b.probes_per_sec, w.probes_per_sec)]
            });
        }
        None => out
            .unpaired
            .push("BENCH_engine.json missing — commit a baseline via --write".to_string()),
    }
    out
}

/// The number following `"key":` on `line`, if present.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = line[line.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The quoted string following `"key":` on `line`, if present.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scales() -> Vec<ScaleBench> {
        vec![ScaleBench {
            scale: "tenfold",
            transit_ases: 100,
            routers: 3694,
            build_seconds: 1.5,
            runs: vec![
                CampaignRun {
                    jobs: 1,
                    faults: "clean",
                    scheduling: "batches",
                    probes: 27146,
                    seconds: 0.033,
                    probe_seconds: 0.02,
                    merge_seconds: 0.009,
                    analysis_seconds: 0.004,
                    probes_per_sec: 822606.1,
                },
                CampaignRun {
                    jobs: 4,
                    faults: "hostile",
                    scheduling: "stealing",
                    probes: 30000,
                    seconds: 0.05,
                    probe_seconds: 0.04,
                    merge_seconds: 0.007,
                    analysis_seconds: 0.003,
                    probes_per_sec: 600000.0,
                },
            ],
        }]
    }

    fn sample_dist() -> Vec<DistRun> {
        vec![DistRun {
            scale: "tenfold",
            workers: 2,
            probes: 27146,
            seconds: 4.2,
            probes_per_sec: 6463.3,
        }]
    }

    fn sample_cache() -> Vec<CacheBench> {
        vec![CacheBench {
            scale: "thousandfold",
            cold_seconds: 2.4,
            warm_seconds: 0.6,
        }]
    }

    #[test]
    fn campaign_json_round_trips_through_the_baseline_parser() {
        let json = campaign_json(&sample_scales(), &[], &[]);
        let runs = parse_campaign_baseline(&json);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].scale, "tenfold");
        assert_eq!(runs[0].jobs, 1);
        assert_eq!(runs[0].faults, "clean");
        assert_eq!(runs[0].scheduling, "batches");
        assert!((runs[0].probes_per_sec - 822606.1).abs() < 0.2);
        assert!((runs[0].analysis_seconds.expect("analysis row") - 0.004).abs() < 1e-9);
        assert_eq!(runs[1].jobs, 4);
        assert_eq!(runs[1].faults, "hostile");
        assert_eq!(runs[1].scheduling, "stealing");
        assert!((runs[1].analysis_seconds.expect("analysis row") - 0.003).abs() < 1e-9);
    }

    #[test]
    fn distributed_and_cache_rows_round_trip_without_confusing_the_run_parser() {
        let json = campaign_json(&sample_scales(), &sample_dist(), &sample_cache());

        let dist = parse_distributed_baseline(&json);
        assert_eq!(dist.len(), 1);
        assert_eq!(dist[0].scale, "tenfold");
        assert_eq!(dist[0].workers, 2);
        assert!((dist[0].probes_per_sec - 6463.3).abs() < 0.2);

        let cache = parse_cache_baseline(&json);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache[0].scale, "thousandfold");
        assert!((cache[0].cold_seconds - 2.4).abs() < 1e-9);
        assert!((cache[0].warm_seconds - 0.6).abs() < 1e-9);

        // The legacy in-process parser must not pick the new rows up
        // as campaign runs — they carry no "jobs" field by design.
        assert_eq!(parse_campaign_baseline(&json).len(), 2);
        // And a baseline without the new sections parses to empty.
        let bare = campaign_json(&sample_scales(), &[], &[]);
        assert!(parse_distributed_baseline(&bare).is_empty());
        assert!(parse_cache_baseline(&bare).is_empty());
    }

    #[test]
    fn parser_accepts_the_pre_stealing_baseline_format() {
        let old = "{\n  \"bench\": \"campaign_tenfold\",\n  \"transit_ases\": 100,\n  \
                   \"routers\": 3694,\n  \"cores\": 1,\n  \"runs\": [\n    {\"jobs\": 1, \
                   \"probes\": 27146, \"seconds\": 0.033908, \"probes_per_sec\": 800585.9}\n  \
                   ]\n}\n";
        let runs = parse_campaign_baseline(old);
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0],
            BaselineRun {
                scale: "tenfold".into(),
                jobs: 1,
                faults: "clean".into(),
                scheduling: "batches".into(),
                probes_per_sec: 800585.9,
                analysis_seconds: None,
            }
        );
    }

    #[test]
    fn engine_json_round_trips_every_walk_row() {
        let walk = |name, routers, pps| WalkRun {
            name,
            routers,
            traces: routers as u64,
            probes: 55000,
            seconds: 0.03,
            probes_per_sec: pps,
            heap_allocs: 0,
        };
        let e = EngineBench {
            routers: 3694,
            walks: vec![
                walk("walk_scalar", 3694, 1_833_333.3),
                walk("walk_thousandfold", 14201, 11_000_000.5),
            ],
            plane_seconds: 1.2,
        };
        let json = engine_json(&e);
        let rows = parse_engine_baseline(&json);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "walk_scalar");
        assert_eq!(rows[1].name, "walk_thousandfold");
        assert!((rows[1].probes_per_sec - 11_000_000.5).abs() < 0.2);
        assert!(json.contains("\"heap_allocs\": 0"));
    }

    fn sample_walks() -> Vec<WalkRun> {
        vec![WalkRun {
            name: "walk_scalar",
            routers: 3694,
            traces: 3694,
            probes: 6011,
            seconds: 0.003,
            probes_per_sec: 2_003_666.7,
            heap_allocs: 0,
        }]
    }

    fn sample_engine_json() -> String {
        engine_json(&EngineBench {
            routers: 3694,
            walks: sample_walks(),
            plane_seconds: 0.03,
        })
    }

    #[test]
    fn a_complete_baseline_pairs_every_row() {
        let campaign = campaign_json(&sample_scales(), &sample_dist(), &sample_cache());
        let p = pair_with_baselines(
            &sample_scales(),
            &sample_dist(),
            &sample_cache(),
            &sample_walks(),
            Some(&campaign),
            Some(&sample_engine_json()),
        );
        assert!(p.unpaired.is_empty(), "{:?}", p.unpaired);
        let names: Vec<(&str, Gate)> = p.paired.iter().map(|x| (x.name.as_str(), x.gate)).collect();
        assert_eq!(
            names,
            [
                (
                    "campaign tenfold jobs=1 faults=clean sched=batches",
                    Gate::Throughput
                ),
                (
                    "campaign tenfold jobs=1 faults=clean sched=batches",
                    Gate::Seconds("analysis")
                ),
                (
                    "campaign tenfold jobs=4 faults=hostile sched=stealing",
                    Gate::Throughput
                ),
                (
                    "campaign tenfold jobs=4 faults=hostile sched=stealing",
                    Gate::Seconds("analysis")
                ),
                ("campaign tenfold distributed workers=2", Gate::Throughput),
                (
                    "substrate cache thousandfold",
                    Gate::Seconds("warm restore")
                ),
                ("engine walk_scalar", Gate::Throughput),
            ]
        );
    }

    #[test]
    fn a_baseline_without_the_distributed_and_cache_sections_is_reported() {
        let bare = campaign_json(&sample_scales(), &[], &[]);
        let p = pair_with_baselines(
            &sample_scales(),
            &sample_dist(),
            &sample_cache(),
            &sample_walks(),
            Some(&bare),
            Some(&sample_engine_json()),
        );
        assert_eq!(p.unpaired.len(), 2, "{:?}", p.unpaired);
        assert!(p.unpaired[0].starts_with("campaign tenfold distributed workers=2: fresh"));
        assert!(p.unpaired[1].starts_with("substrate cache thousandfold: fresh"));
        assert!(p
            .unpaired
            .iter()
            .all(|m| m.contains("baseline is incomplete")));
        // The rows both sides have are still gated.
        assert_eq!(p.paired.len(), 5);
    }

    #[test]
    fn shrunk_runs_and_missing_files_are_reported() {
        let campaign = campaign_json(&sample_scales(), &sample_dist(), &sample_cache());
        let mut scales = sample_scales();
        scales[0].runs.truncate(1);
        let p = pair_with_baselines(
            &scales,
            &sample_dist(),
            &sample_cache(),
            &sample_walks(),
            Some(&campaign),
            None,
        );
        assert_eq!(p.unpaired.len(), 2, "{:?}", p.unpaired);
        assert!(p.unpaired[0]
            .starts_with("campaign tenfold jobs=4 faults=hostile sched=stealing: committed"));
        assert!(p.unpaired[1].starts_with("BENCH_engine.json missing"));
    }
}
