//! The rows behind the repo-root benchmark artefacts
//! (`BENCH_campaign.json`, `BENCH_engine.json`, `BENCH_outputs.json`)
//! and the exact comparison `bench-regression` gates on. Every value in
//! a row is deterministic — probe and engine counters, snapshot and
//! report checksums, table heap bytes, the byte length and checksum of
//! each output a binary prints — so a fresh run reproduces the committed
//! text byte for byte on any runner, and a difference is a behaviour
//! change, never noise.
//! Timing belongs to `perfbench`, which paces its runs and reports their
//! spread. The files hold one JSON object per line, rendered by hand to
//! keep the crate free of serialisation dependencies; each line opens
//! with its `"row"` name, which [`compare`] keys on.

use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Instant;
use wormhole_core::{Campaign, CampaignConfig, CampaignResult, DistributedOpts};
use wormhole_experiments::{adversarial, artefacts, campaign_config, campaign_over, scaling};
use wormhole_experiments::{PaperContext, Scale};
use wormhole_lint::{bundled_json, check_bundled, LintConfig};
use wormhole_net::wire::{self, Wire};
use wormhole_net::{
    Addr, ControlPlane, EngineStats, FaultPlan, FaultScenario, ProbeState, SubstrateRef,
};
use wormhole_probe::{JsonlSink, NullSink, Session};
use wormhole_topo::{generate_cached, CacheStatus, Internet, InternetConfig};

/// Worker count of every in-process campaign row. Results do not depend
/// on it (`tests/parallel_determinism.rs` pins that), so one value
/// suffices; two keeps the threaded merge under the gate.
const JOBS: usize = 2;

/// The tenfold campaign rows: clean and hostile.
pub const TENFOLD_MATRIX: &[FaultScenario] = &[FaultScenario::Clean, FaultScenario::Hostile];

/// The thousandfold campaign rows: clean.
pub const THOUSANDFOLD_MATRIX: &[FaultScenario] = &[FaultScenario::Clean];

/// Every [`EngineStats`] field, as the inner part of a row.
fn engine_fields(s: &EngineStats) -> String {
    format!(
        "\"probes\": {}, \"crossings\": {}, \"replies\": {}, \"lost\": {}, \"heap_allocs\": {}",
        s.probes, s.crossings, s.replies, s.lost, s.heap_allocs
    )
}

/// A campaign's counters and the checksums of its snapshot and report.
/// The report is checksummed as it is rendered, never held whole.
fn result_fields(r: &CampaignResult) -> String {
    let mut report = wire::Checksum::default();
    r.write_report(&mut report)
        .expect("checksumming cannot fail");
    format!(
        "{}, \"snapshot_checksum\": {}, \"report_checksum\": {}",
        engine_fields(&r.engine_stats),
        r.snapshot_checksum,
        report.finish()
    )
}

fn campaign(internet: &Internet, jobs: usize, scenario: FaultScenario) -> Campaign<'_> {
    Campaign::new(
        &internet.net,
        &internet.cp,
        internet.vps.clone(),
        CampaignConfig {
            hdn_threshold: 9,
            jobs,
            faults: scenario.plan(),
            ..CampaignConfig::default()
        },
    )
}

/// One row per fault scenario of `matrix`, each a §4 campaign at
/// `JOBS` workers over `internet`.
pub fn campaign_rows(scale: &str, internet: &Internet, matrix: &[FaultScenario]) -> Vec<String> {
    matrix
        .iter()
        .map(|&scenario| {
            let result = campaign(internet, JOBS, scenario).run();
            format!(
                "{{\"row\": \"campaign {scale} {}\", \"jobs\": {JOBS}, {}}}",
                scenario.name(),
                result_fields(&result)
            )
        })
        .collect()
}

/// The row of one multi-process campaign: `workers` worker processes,
/// plus the shard totals over every
/// dispatched phase. `worker_cmd` is the argv prefix re-invoked per
/// worker (the caller supplies its own binary's worker mode); `cache`
/// points every worker at a prewarmed substrate-cache file so no worker
/// rebuilds the control plane.
pub fn distributed_row(
    scale: &str,
    internet: &Internet,
    workers: usize,
    worker_cmd: Vec<String>,
    substrate_token: &str,
    cache: Option<(PathBuf, u64)>,
) -> String {
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
    let result = campaign(internet, 1, FaultScenario::Clean)
        .run_distributed(&mut NullSink, &opts)
        .expect("distributed bench campaign");
    let _ = std::fs::remove_dir(&work_dir);
    let dist = result
        .dist
        .as_ref()
        .expect("a distributed run carries its shard accounting");
    let (mut dispatched, mut received, mut missing) = (0, 0, 0);
    for p in &dist.phases {
        dispatched += p.dispatched;
        received += p.received;
        missing += p.missing.len();
    }
    format!(
        "{{\"row\": \"distributed {scale} workers={workers}\", {}, \"dispatched\": {dispatched}, \
         \"received\": {received}, \"missing\": {missing}}}",
        result_fields(&result)
    )
}

/// One loopback sweep — a traceroute to every router loopback from the
/// first vantage point, path recording off — as a row, with the heap
/// allocations the walk charged (which must stay 0). The row's
/// `checksum` is [`wire::checksum`] over the wire encoding of every
/// trace in sweep order, so a walk that keeps the counters but moves a
/// hop, a return TTL or an RTT still changes the row.
pub fn walk_row(scale: &str, internet: &Internet) -> (String, u64) {
    let sub = SubstrateRef::new(&internet.net, &internet.cp);
    let mut sess = Session::over(sub, internet.vps[0], ProbeState::new(FaultPlan::none(), 0));
    let dsts: Vec<Addr> = internet.net.routers().iter().map(|r| r.loopback).collect();
    let mut bytes = Vec::new();
    for &d in &dsts {
        sess.traceroute(d).put(&mut bytes);
    }
    let stats = sess.engine_stats();
    let row = format!(
        "{{\"row\": \"walk {scale}\", \"traces\": {}, {}, \"checksum\": {}}}",
        dsts.len(),
        engine_fields(stats),
        wire::checksum(&bytes)
    );
    (row, stats.heap_allocs)
}

/// One row per control-plane table: the heap bytes it reserves. The
/// `fib` row also carries a `checksum` over the FIB tables, so a FIB
/// kernel that keeps the table sizes but changes a hop still changes
/// the row.
pub fn plane_rows(scale: &str, internet: &Internet) -> Vec<String> {
    internet
        .cp
        .table_bytes()
        .into_iter()
        .map(|(table, bytes)| {
            let checksum = match table {
                "fib" => format!(", \"checksum\": {}", fib_checksum(&internet.cp)),
                _ => String::new(),
            };
            format!("{{\"row\": \"plane {scale} {table}\", \"bytes\": {bytes}{checksum}}}")
        })
        .collect()
}

/// [`wire::checksum`] over the wire encodings of the FIB's five tables
/// (`base`, `index`, `group_base`, `groups`, `pool`), in that order.
fn fib_checksum(cp: &ControlPlane) -> u64 {
    let v = cp.dense_view();
    let mut bytes = Vec::new();
    v.fib_base.to_vec().put(&mut bytes);
    v.fib_index.to_vec().put(&mut bytes);
    v.fib_group_base.to_vec().put(&mut bytes);
    v.fib_groups.to_vec().put(&mut bytes);
    v.fib_pool.to_vec().put(&mut bytes);
    wire::checksum(&bytes)
}

/// The byte count and [`wire::Checksum`] of everything written to it.
#[derive(Default)]
struct Tally(usize, wire::Checksum);

impl Write for Tally {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        self.1.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The `output <name>` row of what `print` writes: its byte length and
/// checksum, taken as it streams.
fn output(name: &str, print: impl FnOnce(&mut Tally) -> io::Result<()>) -> String {
    let mut t = Tally::default();
    print(&mut t).expect("tallying cannot fail");
    let (bytes, sum) = (t.0, t.1.finish());
    format!("{{\"row\": \"output {name}\", \"bytes\": {bytes}, \"checksum\": {sum}}}")
}

/// `wormhole-cli campaign <scale> --faults <sc> --emit report`.
fn report_row(scale: Scale, internet: &Internet, sc: FaultScenario) -> String {
    let r = campaign_over(internet, &campaign_config(scale, 1, sc), &mut NullSink);
    let report = std::fmt::from_fn(|f| r.write_report(f));
    let name = format!("campaign {} {} report", scale.name(), sc.name());
    output(&name, |t| write!(t, "{report}"))
}

/// `wormhole-cli campaign <scale> --emit jsonl`: the streamed lines,
/// then the `done` line.
fn jsonl_row(scale: Scale, internet: &Internet) -> String {
    output(&format!("campaign {} clean jsonl", scale.name()), |t| {
        let mut sink = JsonlSink::new(t);
        let cfg = campaign_config(scale, 1, FaultScenario::Clean);
        let r = campaign_over(internet, &cfg, &mut sink);
        sink.write_line(|s| r.write_done_jsonl(s));
        sink.finish().map(drop)
    })
}

/// `wormhole-lint --scale <scale> --format json`.
fn lint_row(scale: Scale, internet: &Internet) -> String {
    let runs = check_bundled(scale.name(), internet, &LintConfig::default());
    let (name, json) = (format!("lint {} json", scale.name()), bundled_json(runs));
    output(&name, |t| writeln!(t, "{json}"))
}

/// One row per printed output, each taken through the library call its
/// binary prints from:
/// - `output <id> quick|paper`: `exp_<id>` under `WORMHOLE_SCALE`, for
///   every artefact of `exp_all` and the adversarial sweep at quick;
/// - `output campaign <scale> <scenario> report|jsonl`: `wormhole-cli
///   campaign <scale> --faults <scenario> --emit report|jsonl`, paper
///   under every scenario and tenfold under those without a campaign
///   row;
/// - `output lint <scale> json`: `wormhole-lint --scale <scale>
///   --format json`.
///
/// `tenfold` is the seed-8 tenfold Internet.
pub fn output_rows(tenfold: &Internet) -> Vec<String> {
    let mut rows = Vec::new();
    for scale in [Scale::Quick, Scale::Paper] {
        let (quick, s) = (scale == Scale::Quick, scale.name());
        let ctx = PaperContext::generate_full(scale, 8, 1, FaultScenario::Clean);
        let mut printed = artefacts(&ctx, quick);
        printed.push(scaling::run(quick));
        printed.extend(quick.then(|| adversarial::run(true)));
        for r in printed {
            rows.push(output(&format!("{} {s}", r.id), |t| writeln!(t, "{r}")));
        }
        rows.push(lint_row(scale, &ctx.internet));
        if !quick {
            rows.extend(FaultScenario::ALL.map(|sc| report_row(scale, &ctx.internet, sc)));
            rows.push(jsonl_row(scale, &ctx.internet));
        }
    }
    for sc in FaultScenario::ALL {
        if !TENFOLD_MATRIX.contains(&sc) {
            rows.push(report_row(Scale::Tenfold, tenfold, sc));
        }
    }
    rows.push(jsonl_row(Scale::Tenfold, tenfold));
    rows.push(lint_row(Scale::Tenfold, tenfold));
    rows
}

/// The committed artefacts the gate renders, at the repo root: the
/// campaign, engine and output rows, in that order.
pub const FILES: [&str; 3] = [
    "BENCH_campaign.json",
    "BENCH_engine.json",
    "BENCH_outputs.json",
];

/// The file text of `rows`: one row per line.
pub fn render(rows: &[String]) -> String {
    rows.iter().map(|r| format!("{r}\n")).collect()
}

/// The row name a line is keyed on: the text before its first comma.
fn key(line: &str) -> &str {
    line.split(',').next().unwrap_or(line)
}

/// Compares a fresh rendering with the committed text. Returns one
/// finding per committed line that differs from its fresh row or has
/// none, and per fresh line with no committed row; empty exactly when
/// the two texts are byte-identical.
pub fn compare(committed: &str, fresh: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (n, c) in committed.lines().enumerate() {
        match fresh.lines().find(|f| key(f) == key(c)) {
            Some(f) if f == c => {}
            Some(f) => out.push(format!(
                "line {} differs\n  committed: {c}\n  fresh:     {f}",
                n + 1
            )),
            None => out.push(format!("line {} has no fresh row: {c}", n + 1)),
        }
    }
    for f in fresh.lines() {
        if !committed.lines().any(|c| key(c) == key(f)) {
            out.push(format!("extra fresh row, not committed: {f}"));
        }
    }
    if out.is_empty() && committed != fresh {
        out.push("same rows, but their order or layout differs from the committed text".into());
    }
    out
}

/// Writes a benchmark artefact at the repo root, next to the sources.
pub fn write_baseline(file: &str, text: &str) -> io::Result<()> {
    std::fs::write(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")), text)
}

/// Reads a committed benchmark artefact from the repo root.
pub fn read_baseline(file: &str) -> Option<String> {
    std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))).ok()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<String> {
        vec![
            "{\"row\": \"campaign tenfold clean\", \"jobs\": 2, \"probes\": 27158}".into(),
            "{\"row\": \"walk tenfold\", \"traces\": 3694, \"probes\": 6011}".into(),
            "{\"row\": \"plane tenfold igp\", \"bytes\": 565640}".into(),
        ]
    }

    #[test]
    fn identical_text_passes() {
        let text = render(&rows());
        assert_eq!(compare(&text, &text), Vec::<String>::new());
    }

    #[test]
    fn a_changed_counter_names_both_lines() {
        let committed = render(&rows());
        let mut fresh = rows();
        fresh[1] = fresh[1].replace("6011", "6012");
        let found = compare(&committed, &render(&fresh));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("line 2 differs"), "{}", found[0]);
        assert!(found[0].contains(&rows()[1]) && found[0].contains(&fresh[1]));
    }

    #[test]
    fn a_dropped_row_names_the_committed_line() {
        let mut fresh = rows();
        fresh.remove(0);
        let found = compare(&render(&rows()), &render(&fresh));
        assert_eq!(found, [format!("line 1 has no fresh row: {}", rows()[0])]);
    }

    #[test]
    fn an_extra_row_names_the_fresh_line() {
        let mut fresh = rows();
        fresh.push("{\"row\": \"plane tenfold fib\", \"bytes\": 842180}".into());
        let found = compare(&render(&rows()), &render(&fresh));
        assert_eq!(
            found,
            [format!("extra fresh row, not committed: {}", fresh[3])]
        );
    }

    #[test]
    fn reordered_rows_fail() {
        let mut fresh = rows();
        fresh.swap(0, 2);
        let found = compare(&render(&rows()), &render(&fresh));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("order"));
    }

    /// [`compare`] keys each line on the text before its first comma,
    /// so a row name with a comma, or two rows of one name, would make
    /// a file `--write` produces but the gate never passes. The gate
    /// passes only while the committed files are exactly what it
    /// renders, so their rows are the ones checked here.
    #[test]
    fn row_names_are_unique_and_comma_free() {
        let text: String = FILES.map(|f| read_baseline(f).expect(f)).concat();
        let mut keys = std::collections::HashSet::new();
        for line in text.lines() {
            let name = key(line)
                .strip_prefix("{\"row\": \"")
                .and_then(|n| n.strip_suffix('"'));
            assert!(
                name.is_some_and(|n| !n.is_empty()),
                "not a whole row name: {line}"
            );
            assert!(keys.insert(key(line)), "two rows of one name: {line}");
        }
    }

    #[test]
    fn an_unwritable_baseline_is_an_error() {
        assert!(write_baseline("no-such-directory/BENCH_rows.json", "").is_err());
    }

    #[test]
    fn a_missing_file_reports_every_row_as_extra() {
        let found = compare("", &render(&rows()));
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|f| f.starts_with("extra fresh row")));
    }
}
