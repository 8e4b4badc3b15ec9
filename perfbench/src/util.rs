//! Small shared pieces: order statistics, memory high-water marks, the
//! per-run scratch directory, the correctness ledger and the metric
//! list the result line is built from.

use std::path::{Path, PathBuf};
use std::process::Child;

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics; `NaN` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The p90 of `xs`, or `None` when fewer than ten samples lie beyond it.
pub fn p90(xs: &[f64]) -> Option<f64> {
    (xs.len() >= 100).then(|| quantile(xs, 0.9))
}

/// `VmHWM` of a process, in MB, read from `/proc/<pid>/status`.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh scratch directory for one run (the server socket, the
/// substrate cache and the distributed work dir), removed on drop so
/// no warm cache carries over between runs.
pub struct RunDir {
    pub path: PathBuf,
}

impl RunDir {
    /// Creates `.perfbench/run-<pid>` under the current directory.
    /// The path stays relative, so a Unix socket inside it fits the
    /// 108-byte `sun_path` limit wherever the checkout lives.
    pub fn fresh() -> std::io::Result<RunDir> {
        let path = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// A new empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::create_dir_all(&p);
        p
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Kills and reaps a child process on drop unless it was already
/// waited for — no server outlives a run that bailed out early.
pub struct Reaped(pub Option<Child>);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Attempted and failed operations. One operation fails at most once,
/// however many of its checks fail; every failure is logged.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Records one operation whose checks produced `errors`.
    pub fn record(&mut self, what: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            for e in errors {
                eprintln!("perfbench: FAILED {what}: {e}");
            }
        }
    }
}

/// Pushes `msg` onto `errs` unless `ok`.
pub fn check(errs: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        errs.push(msg());
    }
}

/// Named metric values with units, in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|m| m.0 != name);
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Share of the machine's CPU time stolen by the hypervisor since the
/// first call (`/proc/stat`): printed with each run because it tracks
/// the machine-wide drift that moves every timing together.
pub fn steal_share() -> f64 {
    fn read() -> (f64, f64) {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let v: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        (v.iter().sum(), v.get(7).copied().unwrap_or(0.0))
    }
    static START: std::sync::OnceLock<(f64, f64)> = std::sync::OnceLock::new();
    let (t0, s0) = *START.get_or_init(read);
    let (t1, s1) = read();
    (s1 - s0) / (t1 - t0).max(1.0)
}
