//! `BENCH_*.json` snapshot writer.
//!
//! Each bench binary's `main` calls [`write()`] after its criterion groups
//! have run. The vendored criterion records every timed case in a process
//! registry ([`criterion::take_results`]); this module drains it and
//! serialises a small machine-readable summary — git SHA, UTC date, and
//! median/min/max nanoseconds per case — to `BENCH_<name>.json` at the
//! repository root, where it is committed as the perf baseline for the
//! change that produced it. CI validates the schema (see
//! `crates/bench/tests/snapshot_schema.rs`) without re-timing anything.
//!
//! Test-mode runs (`cargo bench -- --test`) record no cases and write no
//! snapshot, so CI smoke jobs never clobber committed baselines.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::Serialize;

/// The committed snapshot: one bench binary's timed cases plus provenance.
#[derive(Debug, Serialize)]
struct BenchSnapshot {
    bench: String,
    git_sha: String,
    date: String,
    cases: Vec<BenchCase>,
    gauges: Vec<Gauge>,
}

/// One timed case in the snapshot.
#[derive(Debug, Serialize)]
struct BenchCase {
    id: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

/// One point-in-time measurement that is not a duration — bytes resident,
/// compression ratios, peak RSS. Recorded by bench code with
/// [`record_gauge`] and embedded next to the timed cases.
#[derive(Debug, Clone, Serialize)]
pub struct Gauge {
    /// Gauge identifier, `group/name`-style like case ids.
    pub id: String,
    /// The measured value.
    pub value: f64,
    /// Unit label (`"bytes"`, `"ratio"`, …).
    pub unit: String,
}

/// Process-global gauge registry, drained by [`write`].
static GAUGES: Mutex<Vec<Gauge>> = Mutex::new(Vec::new());

/// Records a gauge for the next [`write()`] call. Unlike timed cases,
/// gauges are recorded in test mode too, but they are only persisted when
/// a real run produced timed cases.
///
/// Every gauge must carry an explicit, non-empty unit and a finite value:
/// a unitless number in a committed baseline is unreadable a month later,
/// so it is a bug at record time, not a style choice.
///
/// # Panics
///
/// Panics when `unit` is empty or `value` is not finite.
pub fn record_gauge(id: &str, value: f64, unit: &str) {
    assert!(!unit.trim().is_empty(), "gauge {id}: unit must be non-empty");
    assert!(value.is_finite(), "gauge {id}: value {value} must be finite");
    GAUGES.lock().expect("gauge registry poisoned").push(Gauge {
        id: id.to_owned(),
        value,
        unit: unit.to_owned(),
    });
}

/// The repository root: two levels above this crate's manifest.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// The current git commit SHA, or `"unknown"` outside a git checkout.
fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Converts days since the Unix epoch to a proleptic-Gregorian civil date
/// (Howard Hinnant's `civil_from_days` algorithm — no date crate needed).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    let year = yoe + era * 400 + i64::from(month <= 2);
    (year, month, day)
}

/// Today's UTC date as `YYYY-MM-DD`.
fn today_utc() -> String {
    let secs =
        SystemTime::now().duration_since(UNIX_EPOCH).expect("system clock before 1970").as_secs();
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Drains the criterion case registry and writes `BENCH_<bench>.json` at
/// the repository root. Returns the path written, or `None` when nothing
/// was recorded (test mode) so smoke runs leave baselines untouched.
pub fn write(bench: &str) -> Option<PathBuf> {
    let cases = criterion::take_results();
    let gauges = std::mem::take(&mut *GAUGES.lock().expect("gauge registry poisoned"));
    if cases.is_empty() {
        return None;
    }
    let snapshot = BenchSnapshot {
        bench: bench.to_owned(),
        git_sha: git_sha(),
        date: today_utc(),
        gauges,
        cases: cases
            .iter()
            .map(|c| BenchCase {
                id: c.id.clone(),
                median_ns: c.median_ns,
                min_ns: c.min_ns,
                max_ns: c.max_ns,
            })
            .collect(),
    };
    let path = repo_root().join(format!("BENCH_{bench}.json"));
    let mut body = serde_json::to_string_pretty(&snapshot).expect("serialisable");
    body.push('\n');
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\n[bench] snapshot: {} cases -> {}", cases.len(), path.display());
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_match_known_anchors() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(20_543), (2026, 3, 31));
        assert_eq!(civil_from_days(-1), (1969, 12, 31)); // pre-epoch
    }

    #[test]
    fn date_string_is_iso_shaped() {
        let date = today_utc();
        let bytes = date.as_bytes();
        assert_eq!(bytes.len(), 10, "{date}");
        assert_eq!(bytes[4], b'-');
        assert_eq!(bytes[7], b'-');
    }

    #[test]
    fn repo_root_holds_the_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    #[test]
    #[should_panic(expected = "unit must be non-empty")]
    fn unitless_gauges_are_rejected_at_record_time() {
        record_gauge("probe/unitless", 1.0, "  ");
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_gauges_are_rejected_at_record_time() {
        record_gauge("probe/nan", f64::NAN, "bytes");
    }

    #[test]
    fn write_is_a_no_op_without_recorded_cases() {
        // The unit-test process never runs a timed bench, so the registry
        // is empty and nothing may be written.
        assert_eq!(write("unit_test_probe"), None);
        assert!(!repo_root().join("BENCH_unit_test_probe.json").exists());
    }
}
