//! `wormhole-serve` — a resident campaign service over warm substrates.
//!
//! ```text
//! wormhole-serve [--socket PATH] [--history N] [--seed N]
//! ```
//!
//! Listens on a local Unix socket and serves campaign / trace / lint
//! requests as length-prefixed JSON frames. The first request at a
//! scale builds that Internet; every later request reuses it warm — no
//! rebuild between requests, which is the entire point of staying
//! resident. Campaign responses stream one frame per merged trace
//! (identical lines to `wormhole-cli campaign --emit jsonl`) and end
//! with the canonical byte-stable report.
//!
//! Request examples (each a single frame):
//!
//! ```text
//! {"cmd":"campaign","scale":"tenfold","jobs":4}
//! {"cmd":"campaign","scale":"quick","faults":"hostile","scheduling":"stealing"}
//! {"cmd":"trace","scale":"quick","dst":"10.1.0.0"}
//! {"cmd":"lint","scale":"paper"}
//! {"cmd":"history"}
//! {"cmd":"ping"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Each command accepts only its own keys besides `cmd` (defaults in
//! parentheses):
//!
//! - `campaign`: `scale` (`quick`), `jobs` (1; 0 = all cores), `faults`
//!   (`clean`), `scheduling` (`batches`), `stream` (`true`);
//! - `trace`: `scale` (`quick`), `dst` (required: a dotted-quad
//!   string), `vp` (0);
//! - `lint`: `scale` (`quick`);
//! - `ping`, `history`, `shutdown`: none.
//!
//! An unknown key, a repeated key, a value of the wrong type or a
//! malformed frame is answered with one error frame, and nothing runs.

use std::process::ExitCode;
use std::sync::Arc;
use wormhole::serve::{ServeConfig, Server};

fn main() -> ExitCode {
    let mut cfg = ServeConfig::at("wormhole-serve.sock");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => cfg.socket = p.into(),
                None => return usage("--socket needs a path"),
            },
            "--history" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.history = n,
                None => return usage("--history needs a count"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => return usage("--seed needs a number"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    eprintln!(
        "wormhole-serve: listening on {} (history {}, seed {})",
        cfg.socket.display(),
        cfg.history,
        cfg.seed
    );
    match Arc::new(Server::new(cfg)).run() {
        Ok(()) => {
            eprintln!("wormhole-serve: shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wormhole-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("{err}\nusage: wormhole-serve [--socket PATH] [--history N] [--seed N]");
    ExitCode::FAILURE
}
