//! Facts about the host and the checkout, recorded with every result.

use std::path::Path;

/// Peak resident set size of this process (`VmHWM`), in MiB; `None` where
/// `/proc/self/status` does not exist.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit checked out at `dir` or its nearest ancestor with a `.git`
/// directory, read from the files git keeps there; `"unknown"` outside a
/// git checkout.
#[must_use]
pub fn git_revision(dir: &Path) -> String {
    dir.ancestors()
        .map(|d| d.join(".git"))
        .find(|git| git.is_dir())
        .and_then(|git| {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return Some(head.to_string());
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return Some(rev.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
