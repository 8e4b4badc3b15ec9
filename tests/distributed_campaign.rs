//! Distributed campaign executor: N worker processes, one shard file
//! each, one deterministic merge. The contract under test is the hard
//! one — the merged report is **byte-identical** to the in-process
//! `--stealing --jobs 1` run, across worker counts, fault scenarios,
//! and the on-disk substrate cache — plus the failure model (a killed
//! worker degrades its shard, a corrupt cache is a typed error).

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_wormhole-cli");

fn run_cli(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn wormhole-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wormhole-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The canonical in-process report the distributed runs must hit.
fn serial_report(scale: &str, faults: &str) -> String {
    let out = run_cli(&[
        "campaign",
        scale,
        "--stealing",
        "--jobs",
        "1",
        "--faults",
        faults,
        "--emit",
        "report",
    ]);
    assert!(out.status.success(), "serial run failed: {}", stderr(&out));
    stdout(&out)
}

fn distributed_report(scale: &str, faults: &str, workers: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "campaign",
        scale,
        "--distributed",
        workers,
        "--faults",
        faults,
        "--emit",
        "report",
    ];
    args.extend_from_slice(extra);
    run_cli(&args)
}

/// Byte-identity across 1/2/4 worker processes on the clean scenario:
/// the partitioned queues, wire round-trips, and file-level merge must
/// reconstruct exactly the report the in-process stealing run prints.
#[test]
fn distributed_quick_clean_matches_serial_at_1_2_4_workers() {
    let want = serial_report("quick", "clean");
    for workers in ["1", "2", "4"] {
        let out = distributed_report("quick", "clean", workers, &[]);
        assert!(
            out.status.success(),
            "{workers}-worker run failed: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&out),
            want,
            "{workers}-worker distributed report diverged from the serial run"
        );
    }
}

/// Fault injection crosses the process boundary intact: the fault plan
/// rides the shard spec, so hostile and paranoid campaigns distribute
/// byte-identically too.
#[test]
fn distributed_quick_hostile_and_paranoid_match_serial() {
    for faults in ["hostile", "paranoid"] {
        let want = serial_report("quick", faults);
        let out = distributed_report("quick", faults, "2", &[]);
        assert!(
            out.status.success(),
            "{faults} distributed run failed: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&out),
            want,
            "2-worker distributed report diverged from serial under '{faults}'"
        );
    }
}

/// The substrate cache changes where the control plane comes from,
/// never what it is: cold (build + save) and warm (restore) runs both
/// match the uncached serial report, and the workers' reported config
/// checksums agree with the master's (the A312 contract).
#[test]
fn distributed_quick_with_cache_matches_serial_cold_and_warm() {
    let dir = scratch("cache-identity");
    let want = serial_report("quick", "clean");
    let dir_s = dir.to_string_lossy().into_owned();
    for pass in ["cold", "warm"] {
        let out = distributed_report("quick", "clean", "2", &["--cache-dir", &dir_s]);
        assert!(
            out.status.success(),
            "{pass} cached run failed: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&out),
            want,
            "{pass}-cache report diverged from serial"
        );
    }
    // Second pass restored from disk rather than rebuilding.
    let out = distributed_report("quick", "clean", "2", &["--cache-dir", &dir_s]);
    assert!(stderr(&out).contains("warm restore"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tenfold-scale byte-identity — the acceptance bar. Expensive, so
/// `#[ignore]`d out of tier 1 (CI runs it in its own job). The
/// paranoid plan is deceptive, so it is the only one under which the
/// revelation phase's context carries `paris_check` across the wire.
#[test]
#[ignore = "tenfold scale: minutes of wall clock; run explicitly or in CI"]
fn distributed_tenfold_matches_serial() {
    for faults in ["clean", "paranoid"] {
        let want = serial_report("tenfold", faults);
        let out = distributed_report("tenfold", faults, "2", &[]);
        assert!(out.status.success(), "{faults}: {}", stderr(&out));
        assert_eq!(
            stdout(&out),
            want,
            "2-worker tenfold distributed report diverged from serial under '{faults}'"
        );
    }
}

/// A worker that dies mid-phase (the chaos hook aborts it before it
/// writes a shard) must not fail the campaign: its vantage points
/// degrade with a typed record, the ledger shows the worker missing,
/// and every later phase redistributes over the survivors.
#[test]
fn killed_worker_degrades_its_shard_and_the_campaign_completes() {
    let out = run_cli(&[
        "campaign",
        "quick",
        "--distributed",
        "2",
        "--chaos-abort-worker",
        "1",
        "--emit",
        "summary",
    ]);
    assert!(
        out.status.success(),
        "chaos run should complete degraded, not fail: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("missing [1]"),
        "ledger should show worker 1 missing:\n{err}"
    );
    assert!(
        err.contains("degraded shard"),
        "lost shard should surface as a degradation record:\n{err}"
    );
    assert!(
        stdout(&out).contains("snapshot:"),
        "campaign should still produce its summary"
    );
}

/// A corrupt cache file is a typed error, never a silent rebuild.
#[test]
fn corrupt_substrate_cache_is_a_typed_error() {
    let dir = scratch("cache-corrupt");
    let dir_s = dir.to_string_lossy().into_owned();
    // Seed the cache with one good run.
    let out = run_cli(&[
        "campaign",
        "quick",
        "--stealing",
        "--emit",
        "report",
        "--cache-dir",
        &dir_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let cache_file = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "whsc"))
        .expect("a .whsc cache file");
    // Flip a byte deep in the payload: framing still parses, the
    // payload checksum does not.
    let mut bytes = std::fs::read(&cache_file).expect("read cache file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&cache_file, &bytes).expect("write corrupt cache");
    let out = run_cli(&[
        "campaign",
        "quick",
        "--stealing",
        "--emit",
        "report",
        "--cache-dir",
        &dir_s,
    ]);
    assert!(!out.status.success(), "corrupt cache must fail the run");
    assert!(
        stderr(&out).contains("corrupt"),
        "expected the typed corrupt-payload error:\n{}",
        stderr(&out)
    );
    // A non-WHSC file under the same name is the bad-magic variant.
    std::fs::write(&cache_file, b"not a cache file at all").expect("write junk");
    let out = run_cli(&[
        "campaign",
        "quick",
        "--stealing",
        "--emit",
        "report",
        "--cache-dir",
        &dir_s,
    ]);
    assert!(!out.status.success(), "junk cache must fail the run");
    assert!(
        stderr(&out).contains("bad magic"),
        "expected the typed bad-magic error:\n{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Worker CLI error paths: a malformed spec names the valid fields so
/// an operator can see what the file should have carried.
#[test]
fn worker_rejects_malformed_specs_listing_the_valid_fields() {
    let dir = scratch("bad-spec");
    let spec = dir.join("junk.spec");
    std::fs::write(&spec, b"WHSPgarbage-that-is-not-a-spec").expect("write junk spec");
    let out = run_cli(&["campaign-worker", "--shard-spec", &spec.to_string_lossy()]);
    assert!(!out.status.success(), "junk spec must fail");
    let err = stderr(&out);
    for field in ["substrate token", "phase tag", "fault plan"] {
        assert!(
            err.contains(field),
            "spec error should list the '{field}' field:\n{err}"
        );
    }
    // Missing file: still a clean CLI error, not a panic.
    let out = run_cli(&["campaign-worker", "--shard-spec", "/nonexistent/x.spec"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("campaign-worker"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}
