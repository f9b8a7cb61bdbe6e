//! The machine fingerprint every report carries, so later comparisons
//! pair only runs from the same machine and toolchain.

use std::fs;

/// Where and with what a report was produced.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name, when the platform reports one.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the source tree, when the working directory is a git
    /// checkout.
    pub git_commit: Option<String>,
}

impl Machine {
    /// Detects the fingerprint of this process.
    pub fn detect() -> Self {
        Machine {
            nproc: ascdg_core::machine_threads(),
            cpu_model: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_owned())
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("CLOSUREBENCH_RUSTC"),
            git_commit: git_commit(),
        }
    }
}

/// The commit `./.git/HEAD` names. Only the working directory is read:
/// the benchmark runs from the repository root, and a checkout without
/// git metadata reports no commit.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(refname) => fs::read_to_string(format!(".git/{refname}"))
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(refname).map(str::to_owned))
            })?,
        None => head.to_owned(),
    };
    let hash = hash.trim();
    (hash.len() == 40 && hash.bytes().all(|b| b.is_ascii_hexdigit())).then(|| hash.to_owned())
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
