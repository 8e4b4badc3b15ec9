//! `bench-regression` — re-run the deterministic benchmark rows and
//! fail unless they reproduce the committed `BENCH_campaign.json`,
//! `BENCH_engine.json` and `BENCH_outputs.json` byte for byte. Every
//! differing, missing or extra line is printed.
//!
//! ```text
//! bench-regression            compare fresh rows to the committed files
//! bench-regression --write    rewrite the committed files in place
//! bench-regression campaign-worker --shard-spec <file>
//!                             (internal) distributed worker mode
//! ```
//!
//! The gate also fails when the recording-off packet walk, at either
//! scale, performs a heap allocation. The allocation-free walk is an
//! invariant, so `--write` cannot rebase it away: it prints the failure
//! and exits non-zero, as it does when a file cannot be written.
//! Likewise the substrate cache's warm restore must cost at most half
//! its cold build — a machine-independent ratio, timed and printed on
//! every gate run but never written to the files.
//!
//! The distributed row re-invokes *this binary* as the worker process
//! (the `campaign-worker` argv mode above), so the gate covers the
//! multi-process executor without depending on `wormhole-cli` being
//! built.

use std::process::ExitCode;
use wormhole_bench::measure;
use wormhole_topo::{cache_file, config_checksum, generate, generate_cached, InternetConfig};

/// Largest tolerated warm-restore share of the cold build — the
/// substrate cache earns its keep only while restoring is at least
/// twice as fast as rebuilding.
const MAX_WARM_SHARE: f64 = 0.50;

/// `campaign-worker --shard-spec <file>`: the worker half of the
/// distributed bench row. Delegates to the same
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

    let tenfold_cfg = InternetConfig::tenfold(8);
    let tenfold = generate(&tenfold_cfg);
    let thousandfold = generate(&InternetConfig::thousandfold(8));

    let mut campaign = measure::campaign_rows("tenfold", &tenfold, measure::TENFOLD_MATRIX);
    campaign.extend(measure::campaign_rows(
        "thousandfold",
        &thousandfold,
        measure::THOUSANDFOLD_MATRIX,
    ));

    // Distributed row: two worker processes at tenfold, sharing a
    // prewarmed substrate cache so each phase's workers restore the
    // control plane instead of rebuilding it N times over.
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
    campaign.push(measure::distributed_row(
        "tenfold",
        &tenfold,
        2,
        worker_cmd,
        "tenfold:8",
        Some((
            cache_file(&shared_cache, &tenfold_cfg),
            config_checksum(&tenfold_cfg),
        )),
    ));
    let _ = std::fs::remove_dir_all(&shared_cache);

    let mut engine = Vec::new();
    let mut failures = Vec::new();
    for (scale, internet) in [("tenfold", &tenfold), ("thousandfold", &thousandfold)] {
        let (row, heap_allocs) = measure::walk_row(scale, internet);
        if heap_allocs != 0 {
            failures.push(format!(
                "recording-off walk at {scale} touched the heap {heap_allocs} times (expected 0)"
            ));
        }
        engine.push(row);
        engine.extend(measure::plane_rows(scale, internet));
    }

    let texts = [
        measure::render(&campaign),
        measure::render(&engine),
        measure::render(&measure::output_rows(&tenfold)),
    ];
    let files = measure::FILES.iter().zip(&texts);
    let done = if write {
        for (file, text) in files {
            if let Err(e) = measure::write_baseline(file, text) {
                failures.push(format!("could not write {file}: {e}"));
            }
        }
        "baselines rewritten"
    } else {
        for (file, text) in files {
            let committed = measure::read_baseline(file).unwrap_or_default();
            let found = measure::compare(&committed, text);
            if found.is_empty() {
                println!(
                    "ok {file}: {} rows match the committed bytes",
                    text.lines().count()
                );
            }
            failures.extend(found.into_iter().map(|f| format!("{file}: {f}")));
        }

        // Cache row: cold build vs warm restore at the scale where the
        // cache matters most (the thousandfold plane dominates build time).
        let c = measure::time_cache("thousandfold", &InternetConfig::thousandfold(8));
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
        "bench-regression: every row matches the committed files"
    };

    if failures.is_empty() {
        println!("{done}");
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("REGRESSION {f}");
    }
    ExitCode::FAILURE
}
