//! `wormhole-cli` — drive the simulator from the command line.
//!
//! ```text
//! wormhole-cli trace <config> [target]   traceroute on the Fig. 2 testbed
//! wormhole-cli smart <config>            tunnel-aware traceroute (§8)
//! wormhole-cli reveal <config>           run the DPR/BRPR recursion
//! wormhole-cli lint <config>             static analysis of a testbed config
//! wormhole-cli campaign [quick|paper|tenfold|thousandfold]
//!                       [--jobs N] [--faults <scenario>]
//!                       [--distributed N] [--cache-dir DIR]
//!                       [--emit summary|jsonl|report]
//!                                        full §4 campaign; scenarios:
//!                                        clean, lossy_core, rate_limited_edge, hostile,
//!                                        deceptive_ttl, artifact_lb, paranoid
//!                                        (`--faults list` prints them).
//!                                        --emit jsonl streams one line per merged
//!                                        trace (the same path wormhole-serve uses);
//!                                        --emit report prints the canonical
//!                                        byte-stable report.
//!                                        --distributed N partitions each probing
//!                                        phase across N worker processes; the report
//!                                        stays byte-identical to the in-process run.
//!                                        --cache-dir DIR caches the built control
//!                                        plane on disk, shared with the workers
//! wormhole-cli campaign-worker --shard-spec <file>
//!                                        internal: execute one distributed shard
//!                                        spec and write the shard file back
//! wormhole-cli list-configs              available testbed configurations
//! ```

use std::fmt;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use wormhole::core::{
    reveal_between, smart_traceroute, CampaignResult, RevealOpts, SmartOpts, Trigger,
};
use wormhole::net::PoppingMode;
use wormhole::probe::{JsonlSink, Session, TracerouteOpts};
use wormhole::topo::{gns3_fig2, gns3_fig2_te, Fig2Config, Scenario};

const CONFIGS: &[(&str, &str)] = &[
    (
        "default",
        "PHP, ttl-propagate, LDP all prefixes (explicit LSP)",
    ),
    (
        "backward",
        "no-ttl-propagate, LDP all prefixes (BRPR reveals)",
    ),
    (
        "explicit",
        "no-ttl-propagate, LDP host routes (DPR reveals)",
    ),
    ("invisible", "no-ttl-propagate + UHP (totally invisible)"),
    ("te-php", "RSVP-TE only, PHP, no-ttl-propagate"),
    (
        "te-uhp",
        "RSVP-TE only, UHP, no-ttl-propagate (truly invisible)",
    ),
];

fn scenario(name: &str) -> Option<Scenario> {
    Some(match name {
        "default" => gns3_fig2(Fig2Config::Default),
        "backward" => gns3_fig2(Fig2Config::BackwardRecursive),
        "explicit" => gns3_fig2(Fig2Config::ExplicitRoute),
        "invisible" => gns3_fig2(Fig2Config::TotallyInvisible),
        "te-php" => gns3_fig2_te(PoppingMode::Php, false),
        "te-uhp" => gns3_fig2_te(PoppingMode::Uhp, false),
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: wormhole-cli <trace|smart|reveal|lint> <config> \
         | campaign [quick|paper|tenfold|thousandfold] [--jobs N] [--faults <scenario>] \
         [--distributed N] [--cache-dir DIR] [--emit summary|jsonl|report] \
         | campaign-worker --shard-spec <file> | list-configs\n\
         configs: {}\n\
         fault scenarios: clean, lossy_core, rate_limited_edge, hostile, deceptive_ttl, \
         artifact_lb, paranoid (--faults list prints them)",
        CONFIGS
            .iter()
            .map(|&(n, _)| n)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

fn name_of(s: &Scenario, addr: wormhole::net::Addr) -> String {
    s.net
        .owner(addr)
        .map(|r| s.net.router(r).name.clone())
        .unwrap_or_else(|| "?".into())
}

fn cmd_trace(out: &mut dyn Write, s: &Scenario, target: Option<&str>) -> io::Result<ExitCode> {
    let dst = match target {
        Some(t) => match t.parse() {
            Ok(a) => a,
            Err(_) => match s.net.router_by_name(t) {
                Some(r) => r.loopback,
                None => {
                    eprintln!("unknown target {t} (use an address or a router name)");
                    return Ok(ExitCode::FAILURE);
                }
            },
        },
        None => s.target,
    };
    let mut sess = Session::new(&s.net, &s.cp, s.vp);
    sess.set_opts(TracerouteOpts::default());
    let trace = sess.traceroute(dst);
    for line in trace.to_string().lines() {
        writeln!(out, "{line}")?;
    }
    writeln!(out, "({} probes)", sess.stats.probes)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_smart(out: &mut dyn Write, s: &Scenario) -> io::Result<ExitCode> {
    let mut sess = Session::new(&s.net, &s.cp, s.vp);
    sess.set_opts(TracerouteOpts::default());
    let net = &s.net;
    let t = smart_traceroute(
        &mut sess,
        s.target,
        |a| net.owner_asn(a),
        &SmartOpts::default(),
    );
    writeln!(
        out,
        "smart traceroute to {} ({} extra probes):",
        t.dst, t.extra_probes
    )?;
    for (i, hop) in t.hops.iter().enumerate() {
        let tag = match hop.revealed_by {
            Some(Trigger::FrplaShift(n)) => format!("  [revealed: FRPLA shift {n}]"),
            Some(Trigger::RtlaGap(n)) => format!("  [revealed: RTLA gap {n}]"),
            None => String::new(),
        };
        writeln!(
            out,
            "{:>2}  {:<14} {}{tag}",
            i + 1,
            hop.addr.to_string(),
            name_of(s, hop.addr)
        )?;
    }
    for (addr, trig) in &t.unrevealed_triggers {
        writeln!(
            out,
            "  ! {addr} triggered ({trig:?}) but revealed nothing — UHP suspect"
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_reveal(out: &mut dyn Write, s: &Scenario) -> io::Result<ExitCode> {
    let mut sess = Session::new(&s.net, &s.cp, s.vp);
    sess.set_opts(TracerouteOpts::default());
    let trace = sess.traceroute(s.target);
    let resp: Vec<_> = trace.hops.iter().filter_map(|h| h.addr).collect();
    if resp.len() < 3 {
        eprintln!("trace too short to pick a candidate pair");
        return Ok(ExitCode::FAILURE);
    }
    let (x, y) = (resp[resp.len() - 3], resp[resp.len() - 2]);
    writeln!(
        out,
        "candidate pair: {x} ({}) → {y} ({})",
        name_of(s, x),
        name_of(s, y)
    )?;
    match reveal_between(&mut sess, x, y, s.target, &RevealOpts::default()).tunnel() {
        Some(t) => {
            writeln!(out, "revealed {} hops via {:?}:", t.len(), t.method())?;
            for hop in t.hops() {
                writeln!(out, "  {hop}  {}", name_of(s, hop))?;
            }
        }
        None => writeln!(
            out,
            "nothing revealed (no invisible LDP tunnel between the pair)"
        )?,
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_lint(out: &mut dyn Write, name: &str, s: &Scenario) -> io::Result<ExitCode> {
    let diags = wormhole::lint::check_scenario(s);
    if diags.is_empty() {
        writeln!(out, "{name}: clean (no findings)")?;
        return Ok(ExitCode::SUCCESS);
    }
    write!(out, "{}", wormhole::lint::render(&diags))?;
    Ok(if wormhole::lint::has_errors(&diags) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// What `campaign` writes to stdout.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Emit {
    /// Human summary plus the Table 4 rendering (the default).
    Summary,
    /// Streaming JSONL: one line per merged trace as the campaign
    /// produces them, then engine stats — the same emission path
    /// `wormhole-serve` streams over its socket.
    Jsonl,
    /// The canonical [`CampaignReport`](wormhole::core::CampaignReport)
    /// text, byte-stable across `--jobs`/`--distributed` and identical to a
    /// serve session's final frame.
    Report,
}

/// The substrate seed the CLI pins for every campaign run; workers
/// re-derive the identical Internet from `<scale>:<seed>` tokens.
const SUBSTRATE_SEED: u64 = 8;

fn cmd_campaign(args: &[String]) -> ExitCode {
    use wormhole::experiments::Scale;
    use wormhole::net::FaultScenario;
    let mut scale = Scale::Paper;
    let mut jobs = wormhole::experiments::jobs_from_env();
    let mut faults = wormhole::experiments::faults_from_env();
    let mut emit = Emit::Summary;
    let mut distributed: Option<usize> = None;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut chaos_abort_worker: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs needs a worker count (0 = all cores)");
                    return ExitCode::FAILURE;
                }
            },
            "--distributed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => distributed = Some(n),
                _ => {
                    eprintln!("--distributed needs a worker-process count (>= 1)");
                    return ExitCode::FAILURE;
                }
            },
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = Some(std::path::PathBuf::from(d)),
                None => {
                    eprintln!("--cache-dir needs a directory for the substrate cache");
                    return ExitCode::FAILURE;
                }
            },
            // Test/CI hook: tell the given distributed worker index to
            // abort during the probe phase (exercises the missing-shard
            // degradation path).
            "--chaos-abort-worker" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => chaos_abort_worker = Some(n),
                None => {
                    eprintln!("--chaos-abort-worker needs a worker index");
                    return ExitCode::FAILURE;
                }
            },
            "--faults" => match it.next().map(String::as_str) {
                // Escape hatch: `--faults list` prints the scenario
                // names (one per line, script-friendly) and exits.
                Some("list") => {
                    return printing(|out| {
                        for sc in FaultScenario::ALL {
                            writeln!(out, "{}", sc.name())?;
                        }
                        Ok(ExitCode::SUCCESS)
                    });
                }
                Some(v) if FaultScenario::parse(v).is_some() => {
                    faults = FaultScenario::parse(v).expect("just checked");
                }
                _ => {
                    eprintln!(
                        "--faults needs a scenario (or 'list'): {}",
                        FaultScenario::ALL.map(FaultScenario::name).join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--emit" => match it.next().map(String::as_str) {
                Some("summary") => emit = Emit::Summary,
                Some("jsonl") => emit = Emit::Jsonl,
                Some("report") => emit = Emit::Report,
                _ => {
                    eprintln!("--emit needs a mode: summary, jsonl, report");
                    return ExitCode::FAILURE;
                }
            },
            other => match Scale::parse(other) {
                Some(s) => scale = s,
                None => {
                    eprintln!("unknown campaign argument {other}");
                    return usage();
                }
            },
        }
    }
    if let Some(workers) = distributed {
        return cmd_campaign_distributed(
            scale,
            jobs,
            faults,
            emit,
            workers,
            cache_dir,
            chaos_abort_worker,
        );
    }
    if chaos_abort_worker.is_some() {
        eprintln!("--chaos-abort-worker only applies to --distributed runs");
        return ExitCode::FAILURE;
    }
    if cache_dir.is_some() && emit == Emit::Summary {
        eprintln!("--cache-dir needs --distributed or --emit jsonl|report");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "running the §4 campaign at {scale:?} scale with jobs={jobs} under the '{}' scenario…",
        faults.name()
    );
    match emit {
        Emit::Summary => {
            let t0 = std::time::Instant::now();
            let ctx = wormhole::experiments::PaperContext::generate_full(scale, 8, jobs, faults);
            let elapsed = t0.elapsed().as_secs_f64();
            printing(|out| {
                writeln!(out, "{}", summary_line(&ctx.result))?;
                for d in &ctx.result.degraded_shards {
                    writeln!(
                        out,
                        "degraded shard: vp {} lost in the {} phase",
                        d.vp, d.phase
                    )?;
                }
                writeln!(
                    out,
                    "wall: {elapsed:.2}s  ({:.0} probes/sec simulated; probe {:.2}s, \
                     merge {:.2}s, analysis {:.3}s)",
                    ctx.result.probes as f64 / elapsed,
                    ctx.result.timings.probe_seconds,
                    ctx.result.timings.merge_seconds,
                    ctx.result.timings.analysis_seconds
                )?;
                writeln!(out, "{}", wormhole::experiments::table4::run(&ctx))?;
                Ok(ExitCode::SUCCESS)
            })
        }
        Emit::Jsonl | Emit::Report => {
            // The exact path `wormhole-serve` runs: build the substrate,
            // then stream one campaign over it.
            let (internet, _cache) = match substrate_for(scale, cache_dir.as_deref()) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let cfg = wormhole::experiments::campaign_config(scale, jobs, faults);
            let written = if emit == Emit::Jsonl {
                let mut sink = JsonlSink::new(BufWriter::new(io::stdout().lock()));
                let result = wormhole::experiments::campaign_over(&internet, &cfg, &mut sink);
                finish_jsonl(sink, &result)
            } else {
                let mut sink = wormhole::probe::NullSink;
                print_report(&wormhole::experiments::campaign_over(
                    &internet, &cfg, &mut sink,
                ))
            };
            written.map_or_else(stdout_failed, |()| ExitCode::SUCCESS)
        }
    }
}

/// The summary's first line: what the campaign saw and revealed.
fn summary_line(r: &CampaignResult) -> String {
    format!(
        "snapshot: {} nodes, {} HDNs; {} targets; {} candidate pairs; {} tunnels revealed; \
         {} probes",
        r.snapshot.num_nodes(),
        r.hdns.len(),
        r.targets.len(),
        r.unique_pairs().len(),
        r.tunnels().count(),
        r.probes
    )
}

/// Closes a `--emit jsonl` transcript: the `done` line after the
/// streamed ones, then a flush. The first error writing any of them is
/// returned.
fn finish_jsonl(mut sink: JsonlSink<impl Write>, result: &CampaignResult) -> io::Result<()> {
    sink.write_line(|s| result.write_done_jsonl(s));
    sink.finish().map(drop)
}

/// `--emit report`: the canonical report, rendered straight into
/// stdout.
fn print_report(result: &CampaignResult) -> io::Result<()> {
    let mut out = BufWriter::new(io::stdout().lock());
    write!(out, "{}", fmt::from_fn(|f| result.write_report(f)))?;
    out.flush()
}

/// A stdout that fails (a closed pipe, a full disk) ends the command
/// with one line on stderr and a failure exit.
fn stdout_failed(e: io::Error) -> ExitCode {
    eprintln!("wormhole-cli: writing to stdout: {e}");
    ExitCode::FAILURE
}

/// Runs `body` over a buffered stdout and flushes it; a failed write
/// ends the command through [`stdout_failed`].
fn printing(body: impl FnOnce(&mut dyn Write) -> io::Result<ExitCode>) -> ExitCode {
    let mut out = BufWriter::new(io::stdout().lock());
    match body(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) => stdout_failed(e),
    }
}

/// Builds the campaign substrate, through the on-disk control-plane
/// cache when a directory was given. Returns the Internet plus the
/// cache file and config checksum distributed workers must agree on.
fn substrate_for(
    scale: wormhole::experiments::Scale,
    cache_dir: Option<&std::path::Path>,
) -> Result<(wormhole::topo::Internet, Option<(std::path::PathBuf, u64)>), String> {
    let Some(dir) = cache_dir else {
        return Ok((
            wormhole::experiments::internet_for(scale, SUBSTRATE_SEED),
            None,
        ));
    };
    let net_cfg = wormhole::experiments::internet_config_for(scale, SUBSTRATE_SEED);
    let (internet, status) = wormhole::topo::generate_cached(&net_cfg, dir)
        .map_err(|e| format!("substrate cache under {}: {e}", dir.display()))?;
    let path = wormhole::topo::cache_file(dir, &net_cfg);
    eprintln!(
        "substrate cache: {} ({})",
        path.display(),
        match status {
            wormhole::topo::CacheStatus::Cold => "cold build, saved",
            wormhole::topo::CacheStatus::Warm => "warm restore",
        }
    );
    // The same lint-before-simulate gate `internet_for` applies.
    let diags = wormhole::lint::check_internet(&internet);
    wormhole::lint::deny_errors("campaign substrate", &diags);
    let checksum = wormhole::topo::config_checksum(&net_cfg);
    Ok((internet, Some((path, checksum))))
}

/// `campaign --distributed N`: partition each probing phase across N
/// worker processes (this same binary, `campaign-worker` subcommand)
/// and merge their shard files. The report stays byte-identical to the
/// in-process run.
#[allow(clippy::too_many_arguments)]
fn cmd_campaign_distributed(
    scale: wormhole::experiments::Scale,
    jobs: usize,
    faults: wormhole::net::FaultScenario,
    emit: Emit,
    workers: usize,
    cache_dir: Option<std::path::PathBuf>,
    chaos_abort_worker: Option<usize>,
) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the worker binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (internet, cache) = match substrate_for(scale, cache_dir.as_deref()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = wormhole::experiments::campaign_config(scale, jobs, faults);
    let work_dir = std::env::temp_dir().join(format!("wormhole-dist-{}", std::process::id()));
    let opts = wormhole::core::DistributedOpts {
        workers,
        worker_cmd: vec![exe.to_string_lossy().into_owned()],
        substrate_token: format!("{}:{SUBSTRATE_SEED}", scale.name()),
        work_dir: work_dir.clone(),
        cache,
        keep_files: false,
        chaos_abort_worker,
    };
    eprintln!(
        "running the §4 campaign at {scale:?} scale across {workers} worker processes \
         under the '{}' scenario…",
        faults.name()
    );
    let campaign =
        wormhole::core::Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg);
    let mut written = Ok(());
    let result = match emit {
        Emit::Jsonl => {
            let mut sink = JsonlSink::new(BufWriter::new(io::stdout().lock()));
            let result = campaign.run_distributed(&mut sink, &opts);
            if let Ok(r) = &result {
                written = finish_jsonl(sink, r);
            }
            result
        }
        Emit::Summary | Emit::Report => {
            let mut sink = wormhole::probe::NullSink;
            campaign.run_distributed(&mut sink, &opts)
        }
    };
    let _ = std::fs::remove_dir(&work_dir);
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("distributed campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The shard-ledger accounting goes to stderr so `--emit report`
    // stdout stays canonical (byte-identical to the in-process run).
    if let Some(dist) = &result.dist {
        for p in &dist.phases {
            eprintln!(
                "phase {:<12} dispatched {} / received {} / missing {:?} ({} shard probes)",
                p.phase, p.dispatched, p.received, p.missing, p.shard_probes
            );
        }
        if let Some(c) = dist.master_cache_checksum {
            eprintln!(
                "substrate cache checksum {c:#018x}; workers reported {:?}",
                dist.worker_cache_checksums
            );
        }
    }
    for d in &result.degraded_shards {
        eprintln!("degraded shard: vp {} lost in the {} phase", d.vp, d.phase);
    }
    match emit {
        Emit::Summary => written = writeln!(io::stdout(), "{}", summary_line(&result)),
        Emit::Report => written = print_report(&result),
        Emit::Jsonl => {}
    }
    written.map_or_else(stdout_failed, |()| ExitCode::SUCCESS)
}

/// `campaign-worker --shard-spec <file>`: the worker half of
/// `campaign --distributed`. Decodes the spec, re-derives the identical
/// substrate from its `<scale>:<seed>` token (or the shared cache
/// file), executes its task subset, and writes the shard file back.
fn cmd_campaign_worker(args: &[String]) -> ExitCode {
    let spec = match args {
        [flag, path] if flag == "--shard-spec" => std::path::Path::new(path),
        _ => {
            eprintln!("usage: wormhole-cli campaign-worker --shard-spec <file>");
            return ExitCode::FAILURE;
        }
    };
    match wormhole::core::worker_main(spec, &wormhole::experiments::resolve_worker_substrate) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list-configs") => printing(|out| {
            for &(name, desc) in CONFIGS {
                writeln!(out, "{name:<10} {desc}")?;
            }
            Ok(ExitCode::SUCCESS)
        }),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("campaign-worker") => cmd_campaign_worker(&args[1..]),
        Some(cmd @ ("trace" | "smart" | "reveal" | "lint")) => {
            let Some(config) = args.get(1) else {
                return usage();
            };
            let Some(s) = scenario(config) else {
                eprintln!("unknown config {config}");
                return usage();
            };
            printing(|out| match cmd {
                "trace" => cmd_trace(out, &s, args.get(2).map(String::as_str)),
                "smart" => cmd_smart(out, &s),
                "reveal" => cmd_reveal(out, &s),
                "lint" => cmd_lint(out, config, &s),
                _ => unreachable!(),
            })
        }
        _ => usage(),
    }
}
