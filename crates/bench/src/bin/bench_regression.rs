//! `bench-regression` — re-measure campaign and engine throughput and
//! fail when any run regresses more than 20% against the committed
//! `BENCH_campaign.json` / `BENCH_engine.json` baselines. It also fails
//! when either side has a row the other lacks: a committed row with no
//! fresh run (the matrix shrank) or a fresh run with no committed row
//! (the baseline is incomplete, so that run would go ungated).
//!
//! ```text
//! bench-regression            compare fresh numbers to the baselines
//! bench-regression --write    refresh the baselines in place
//! bench-regression campaign-worker --shard-spec <file>
//!                             (internal) distributed worker mode
//! ```
//!
//! The gate also fails when the recording-off packet walk, at either
//! scale, performs a heap allocation, regardless of throughput: the allocation-free walk is an invariant, not a
//! number that may drift. Likewise the substrate cache's warm restore
//! must cost at most half its cold build — a machine-independent ratio
//! checked on every fresh measurement, not just against the baseline.
//!
//! The distributed rows re-invoke *this binary* as the worker process
//! (the `campaign-worker` argv mode above), so the gate measures the
//! multi-process executor without depending on `wormhole-cli` being
//! built.

use std::process::ExitCode;
use wormhole_bench::measure::{self, Gate};
use wormhole_topo::{cache_file, config_checksum, generate_cached, InternetConfig};

/// Largest tolerated throughput drop versus a committed baseline.
const MAX_REGRESSION: f64 = 0.20;

/// Absolute slack under which the wall-time gates never fire: at
/// sub-10ms the signal is scheduler noise, not a regression.
const TIME_SLACK_SECONDS: f64 = 0.010;

/// Largest tolerated warm-restore share of the cold build — the
/// substrate cache earns its keep only while restoring is at least
/// twice as fast as rebuilding.
const MAX_WARM_SHARE: f64 = 0.50;

fn check(name: &str, baseline: f64, fresh: f64, failures: &mut Vec<String>) {
    let floor = baseline * (1.0 - MAX_REGRESSION);
    if fresh < floor {
        failures.push(format!(
            "{name}: {fresh:.0} probes/sec is below {floor:.0} (80% of the committed \
             {baseline:.0})"
        ));
    } else {
        println!("ok {name}: {fresh:.0} probes/sec vs committed {baseline:.0}");
    }
}

/// Wall-time gate: `what` seconds may not grow more than 20% over the
/// committed baseline, with an absolute slack floor so
/// microsecond-scale rows on small runs never flap. Guards the
/// incremental-aggregation analysis time and the cache warm restore.
fn check_seconds(name: &str, what: &str, baseline: f64, fresh: f64, failures: &mut Vec<String>) {
    let ceiling = baseline * (1.0 + MAX_REGRESSION) + TIME_SLACK_SECONDS;
    if fresh > ceiling {
        failures.push(format!(
            "{name}: {what} {fresh:.3}s exceeds {ceiling:.3}s (120% of the committed \
             {baseline:.3}s plus {TIME_SLACK_SECONDS:.3}s slack)"
        ));
    } else {
        println!("ok {name}: {what} {fresh:.3}s vs committed {baseline:.3}s");
    }
}

/// `campaign-worker --shard-spec <file>`: the worker half of the
/// distributed bench rows. Delegates to the same
/// [`wormhole_experiments::resolve_worker_substrate`] the CLI worker
/// uses, so a token means the same substrate in both.
fn worker_mode(args: &[String]) -> ExitCode {
    let spec = match args {
        [flag, path] if flag == "--shard-spec" => std::path::Path::new(path),
        _ => {
            eprintln!("usage: bench-regression campaign-worker --shard-spec <file>");
            return ExitCode::FAILURE;
        }
    };
    match wormhole_core::worker_main(spec, &wormhole_experiments::resolve_worker_substrate) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("campaign-worker") {
        return worker_mode(&args[1..]);
    }
    let write = args.iter().any(|a| a == "--write");

    let (tenfold, tenfold_build) = measure::generate_timed(&InternetConfig::tenfold(8));
    let (thousandfold, thousandfold_build) =
        measure::generate_timed(&InternetConfig::thousandfold(8));
    let scales = vec![
        measure::measure_scale("tenfold", &tenfold, tenfold_build, measure::TENFOLD_MATRIX),
        measure::measure_scale(
            "thousandfold",
            &thousandfold,
            thousandfold_build,
            measure::THOUSANDFOLD_MATRIX,
        ),
    ];
    let engine = measure::measure_engine(&tenfold, &thousandfold);

    // Distributed row: two worker processes at tenfold, sharing a
    // prewarmed substrate cache so each phase's workers restore the
    // control plane instead of rebuilding it N times over.
    let tenfold_cfg = InternetConfig::tenfold(8);
    let shared_cache = std::env::temp_dir().join(format!(
        "wormhole-bench-shared-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&shared_cache);
    generate_cached(&tenfold_cfg, &shared_cache).expect("prewarm the shared substrate cache");
    // The dispatcher appends `campaign-worker --shard-spec <file>`
    // itself; the command prefix is just this binary.
    let worker_cmd = vec![std::env::current_exe()
        .expect("current executable path")
        .to_string_lossy()
        .into_owned()];
    let dist = vec![measure::time_distributed(
        "tenfold",
        &tenfold,
        2,
        worker_cmd,
        "tenfold:8",
        Some((
            cache_file(&shared_cache, &tenfold_cfg),
            config_checksum(&tenfold_cfg),
        )),
    )];
    let _ = std::fs::remove_dir_all(&shared_cache);

    // Cache row: cold build vs warm restore at the scale where the
    // cache matters most (the thousandfold plane dominates build time).
    let cache = vec![measure::time_cache(
        "thousandfold",
        &InternetConfig::thousandfold(8),
    )];

    for line in measure::summary_lines(&scales) {
        println!("{line}");
    }
    for d in &dist {
        println!(
            "campaign {} distributed workers={}: {:.0} probes/sec \
             ({} probes, {:.3}s wall incl. worker spawns)",
            d.scale, d.workers, d.probes_per_sec, d.probes, d.seconds
        );
    }
    for c in &cache {
        println!(
            "substrate cache {}: cold {:.3}s, warm {:.3}s ({:.0}% of cold)",
            c.scale,
            c.cold_seconds,
            c.warm_seconds,
            100.0 * c.warm_seconds / c.cold_seconds
        );
    }
    for w in &engine.walks {
        println!(
            "engine {}: {:.0} probes/sec over {} probes ({} traces, {} routers), {} heap allocs",
            w.name, w.probes_per_sec, w.probes, w.traces, w.routers, w.heap_allocs
        );
    }
    println!("plane build: {:.3}s", engine.plane_seconds);

    if write {
        measure::write_baseline(
            "BENCH_campaign.json",
            &measure::campaign_json(&scales, &dist, &cache),
        );
        measure::write_baseline("BENCH_engine.json", &measure::engine_json(&engine));
        println!("baselines rewritten");
        return ExitCode::SUCCESS;
    }

    let mut failures = Vec::new();
    for w in &engine.walks {
        if w.heap_allocs != 0 {
            failures.push(format!(
                "recording-off {} touched the heap {} times (expected 0)",
                w.name, w.heap_allocs
            ));
        }
    }
    // Machine-independent cache invariant, checked on the fresh
    // numbers regardless of what the baseline says: a warm restore
    // that costs more than half a cold build means the cache payload
    // (or its decode path) regressed.
    for c in &cache {
        let ceiling = MAX_WARM_SHARE * c.cold_seconds;
        if c.warm_seconds > ceiling {
            failures.push(format!(
                "substrate cache {}: warm restore {:.3}s exceeds {:.3}s \
                 (50% of the {:.3}s cold build)",
                c.scale, c.warm_seconds, ceiling, c.cold_seconds
            ));
        } else {
            println!(
                "ok substrate cache {}: warm {:.3}s within 50% of cold {:.3}s",
                c.scale, c.warm_seconds, c.cold_seconds
            );
        }
    }

    let campaign_base = measure::read_baseline("BENCH_campaign.json");
    let engine_base = measure::read_baseline("BENCH_engine.json");
    let pairing = measure::pair_with_baselines(
        &scales,
        &dist,
        &cache,
        &engine.walks,
        campaign_base.as_deref(),
        engine_base.as_deref(),
    );
    for p in &pairing.paired {
        match p.gate {
            Gate::Throughput => check(&p.name, p.baseline, p.fresh, &mut failures),
            Gate::Seconds(what) => check_seconds(&p.name, what, p.baseline, p.fresh, &mut failures),
        }
    }
    failures.extend(pairing.unpaired);

    if failures.is_empty() {
        println!(
            "bench-regression: all runs within {:.0}% of the baselines",
            MAX_REGRESSION * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("REGRESSION {f}");
        }
        ExitCode::FAILURE
    }
}
