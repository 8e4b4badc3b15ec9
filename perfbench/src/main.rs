//! Outside-in benchmark of the wormhole workspace.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bins DIR
//! ```
//!
//! Workloads (see README.md for why each was chosen):
//!
//! * `serve-tenfold` — a resident `wormhole-serve` answering streamed
//!   hostile stealing campaigns over one connection, in a closed loop;
//! * `campaign-tenfold` — `internet_for` then `campaign_over` then
//!   `CampaignResult::report()` at tenfold, in-process.
//!
//! The traced run's panel also drives `Campaign::run_distributed`
//! across `wormhole-cli campaign-worker` processes over a substrate
//! cache, on either workload's substrate.
//!
//! `--seed` is the Internet seed (the CLI and serve default is 8); the
//! program receives only the generated substrate. `--bins` names the
//! directory holding the built `wormhole-serve` and `wormhole-cli`.
//! Every output is checked; a failed check fails its operation. The
//! last stdout line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer panel with `--trace 1`. The run exits
//! non-zero when any operation failed.

mod layers;
mod pace;
mod serve;
mod spans;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use util::{Metrics, Ops, RunDir};

/// Settings shared by every part of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bins: PathBuf,
    pub run: RunDir,
    /// Worker processes, threads and connections are capped here.
    pub cap: usize,
}

const WORKLOADS: [&str; 2] = ["serve-tenfold", "campaign-tenfold"];

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "perfbench: {err}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1 --bins DIR",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 8u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bins = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed needs a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 => seconds = v,
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace is 0 or 1"),
            },
            "--bins" => bins = std::fs::canonicalize(value).ok(),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage("--workload names one of the workloads");
    };
    let Some(bins) = bins else {
        return usage("--bins names the existing directory of the built binaries");
    };
    for bin in ["wormhole-serve", "wormhole-cli"] {
        if !bins.join(bin).is_file() {
            return usage(&format!("{} is missing", bins.join(bin).display()));
        }
    }
    let run = match RunDir::fresh() {
        Ok(r) => r,
        Err(e) => return usage(&format!("cannot create the run directory: {e}")),
    };
    let cap = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        bins,
        run,
        cap,
    };
    spans::set_enabled(trace);
    util::steal_share();
    let mut ops = Ops::default();
    let out = match workload.as_str() {
        "serve-tenfold" => workloads::serve_tenfold(&ctx, &mut ops),
        _ => workloads::campaign_tenfold(&ctx, &mut ops),
    };
    if trace {
        let dir = PathBuf::from(".perfbench").join("spans");
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| spans::write_jsonl(&path)) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }
    drop(ctx);
    let metrics = match out {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {workload} aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", result_json(&ops, &metrics));
    if ops.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn result_json(ops: &Ops, m: &Metrics) -> String {
    let body: Vec<String> = m
        .0
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}
