//! Sample statistics and process facts reported with every result.

use std::path::Path;

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The lower quartile, over consecutive windows of at least `min_window`
/// samples (one window for a smaller sample), of each window's
/// `q`-quantile. Interference from other tenants of a shared host only
/// ever adds latency, so the calmer windows estimate the program's own.
pub fn windowed_quantile(samples: &[f64], q: f64, min_window: usize) -> f64 {
    let windows = (samples.len() / min_window.max(1)).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let (lo, hi) = (w * samples.len() / windows, (w + 1) * samples.len() / windows);
            quantile(&samples[lo..hi], q)
        })
        .collect();
    quantile(&per_window, 0.25)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/mounts`), so a result says whether its fsyncs hit a disk.
pub fn filesystem_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".to_owned() };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype)
}

/// The commit being measured: `git rev-parse HEAD` where the tree is a
/// git checkout, `"unknown"` otherwise (the source fingerprint still
/// identifies the code).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |sha| sha.trim().to_owned())
}

/// FNV-1a-64 over the measured sources (every `.rs` and `Cargo.toml`
/// under `crates/`, `vendor/` and `benchmark/`, plus `Cargo.lock`), in
/// sorted path order. Identifies the code where no git SHA is available.
pub fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    for root in ["crates", "vendor", "benchmark/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", psr_core::serving::journal::fnv1a64(&bytes))
}
