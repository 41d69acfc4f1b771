//! Shared plumbing: workload parameters, run context, results, child
//! processes and provenance.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use plt_serve::json::Json;

/// The workload parameters and metric mapping, kept beside the harness
/// so the numbers a run uses and the record of them are one file.
pub const PLAN: &str = include_str!("../workloads.json");

/// Parsed [`PLAN`].
pub fn plan() -> Json {
    Json::parse(PLAN).expect("workloads.json is valid JSON")
}

/// One workload's parameter block.
#[derive(Debug, Clone)]
pub struct Params(pub Json);

impl Params {
    pub fn of(workload: &str) -> Option<Params> {
        plan()
            .get("workloads")
            .and_then(|w| w.get(workload))
            .cloned()
            .map(Params)
    }

    pub fn num(&self, key: &str) -> f64 {
        self.0
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("workloads.json: missing number {key:?}"))
    }

    pub fn share(&self, block: &str, key: &str) -> f64 {
        self.0
            .get(block)
            .and_then(|b| b.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

/// Per-run settings from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every dataset size (1.0 for the benchmark; the smoke
    /// test shrinks it).
    pub scale: f64,
    /// Scratch directory for this run, removed at the end.
    pub work: PathBuf,
}

impl Ctx {
    pub fn scaled(&self, n: f64) -> usize {
        ((n * self.scale).round() as usize).max(50)
    }
}

/// Absolute support for a fraction of `n` transactions, as the CLI
/// resolves it (rounded up, at least 1).
pub fn abs_support(fraction: f64, n: usize) -> u64 {
    ((fraction * n as f64 - 1e-9).ceil() as u64).max(1)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Every figure the workload measured, by name, for the report line.
    pub report: Vec<(String, Json)>,
    /// Correctness violations; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    pub fn note(&mut self, name: &str, value: impl Into<Json>) {
        self.report.push((name.into(), value.into()));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts thread `tid` (0: the calling thread) to the CPUs in `mask`
/// (bit `i` is CPU `i`). Returns whether the kernel accepted it.
fn set_affinity(tid: i32, mask: u64) -> bool {
    // SAFETY: `mask` is a live 8-byte CPU set for the whole call and the
    // size passed is its size; the kernel only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Pins the calling thread and every thread of process `pid` to one
/// CPU, so a closed loop with one request in flight runs client and
/// server on one core and each wake-up is a local switch, not a
/// cross-CPU interrupt whose cost the host's load decides. Returns
/// whether every thread was pinned.
pub fn pin_with(pid: u32, cpu: usize) -> bool {
    let mask = 1u64 << cpu.min(63);
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    let mut all = set_affinity(0, mask);
    for task in tasks.flatten() {
        let tid = task.file_name().to_string_lossy().parse::<i32>().ok();
        all &= tid.is_some_and(|tid| set_affinity(tid, mask));
    }
    all
}

/// Lets the calling thread run on any CPU again (children it spawns
/// inherit its affinity).
pub fn unpin() {
    set_affinity(0, u64::MAX);
}

/// This executable, re-run as a child in one of its helper modes.
pub fn self_command(args: &[String]) -> Command {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(args);
    cmd
}

/// Waits for a child up to `limit`, killing it past that. Returns
/// whether it exited successfully on its own.
pub fn wait_bounded(child: &mut Child, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

/// Runs a helper child to completion and returns its last stdout line.
pub fn run_child(args: &[String], limit: Duration) -> Result<String, String> {
    let mut child = self_command(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn helper: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = std::io::Read::read_to_string(&mut stdout, &mut s);
        s
    });
    let ok = wait_bounded(&mut child, limit);
    let out = reader.join().unwrap_or_default();
    if !ok {
        return Err(format!("helper {args:?} failed"));
    }
    out.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| "helper printed nothing".into())
}

/// Provenance of a run: the repository's `bench_meta` block (commit,
/// rustc, CPU, SIMD) plus `nproc`.
pub fn bench_meta() -> Json {
    let mut meta = Json::parse(&plt_bench::bench_meta_json()).expect("bench_meta is JSON");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    if let Json::Obj(pairs) = &mut meta {
        pairs.push(("nproc".into(), Json::from(nproc)));
    }
    meta
}

/// Order-independent digest of a mined family: the wrapping sum of one
/// mixed hash per `(itemset, support)`.
pub fn digest<'a>(rows: impl Iterator<Item = (&'a [u32], u64)>) -> (usize, u64) {
    let mut count = 0;
    let mut sum = 0u64;
    for (items, support) in rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ support;
        let mut sorted = items.to_vec();
        sorted.sort_unstable();
        for i in sorted {
            h = (h ^ u64::from(i)).wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        }
        sum = sum.wrapping_add(h.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        count += 1;
    }
    (count, sum)
}

/// Removes a scratch path, ignoring a missing one.
pub fn remove(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    let _ = std::fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order() {
        let a: Vec<(Vec<u32>, u64)> = vec![(vec![1, 2], 5), (vec![3], 9)];
        let b: Vec<(Vec<u32>, u64)> = vec![(vec![3], 9), (vec![2, 1], 5)];
        let da = digest(a.iter().map(|(i, s)| (i.as_slice(), *s)));
        let db = digest(b.iter().map(|(i, s)| (i.as_slice(), *s)));
        assert_eq!(da, db);
        let c: Vec<(Vec<u32>, u64)> = vec![(vec![1, 2], 6), (vec![3], 9)];
        assert_ne!(da, digest(c.iter().map(|(i, s)| (i.as_slice(), *s))));
    }

    #[test]
    fn every_workload_has_parameters() {
        for w in ["mine-sparse", "serve-read", "serve-ingest"] {
            let p = Params::of(w).expect("parameters");
            assert!(p.num("setups") >= 1.0);
        }
        assert_eq!(abs_support(0.001, 100_000), 100);
        assert_eq!(abs_support(0.005, 50_000), 250);
    }
}
