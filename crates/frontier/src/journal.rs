//! The append-only results journal a sweep checkpoints into.
//!
//! A [`Journal`] (see [`psr_core::serving::journal`] for the line
//! framing, the replay rules and the durability points) tagged
//! `psrfrontier v1`, with one `fsync` per completed cell so a killed sweep
//! can never lose an acknowledged cell. The header fields are the plan
//! *fingerprint* (hex) and the total cell count; each record
//! `C <json>` is one [`CellResult`]. A valid journal written for a
//! different plan is a hard [`io::ErrorKind::InvalidData`] error: silently
//! mixing two plans' cells would fabricate a frontier nobody measured.

use std::io;
use std::path::Path;

use psr_core::serving::journal::Journal;
use psr_obs::Histogram;

use crate::cell::CellResult;

/// Magic + version prefix of the journal header line.
const HEADER_TAG: &str = "psrfrontier v1";

/// An open results journal, positioned for appending.
#[derive(Debug)]
pub struct ResultsJournal(Journal);

impl ResultsJournal {
    /// Opens (or creates) the journal at `path` for the plan identified
    /// by `fingerprint` expanding to `total_cells` cells, returning it with
    /// every cell it replays. A **valid** header whose fingerprint or cell
    /// count differs from the caller's is an [`io::ErrorKind::InvalidData`]
    /// error.
    pub fn open(
        path: impl AsRef<Path>,
        fingerprint: u64,
        total_cells: usize,
    ) -> io::Result<(Self, Vec<CellResult>)> {
        let path = path.as_ref();
        let check = |fields: &str| {
            let (fp, total) = fields
                .split_once(' ')
                .and_then(|(fp, total)| {
                    Some((u64::from_str_radix(fp, 16).ok()?, total.parse::<usize>().ok()?))
                })
                .ok_or_else(|| {
                    format!("frontier journal {} has a malformed header", path.display())
                })?;
            if fp == fingerprint && total == total_cells {
                return Ok(());
            }
            Err(format!(
                "frontier journal {} was written for plan {fp:016x} ({total} cells), not \
                 {fingerprint:016x} ({total_cells} cells); delete it or point the sweep at a \
                 fresh journal",
                path.display()
            ))
        };
        let parse = |payload: &str| {
            let cell: CellResult = serde_json::from_str(payload.strip_prefix("C ")?).ok()?;
            (cell.spec.index < total_cells).then_some(cell)
        };
        let header = format!("{fingerprint:016x} {total_cells}");
        let (journal, cells) = Journal::open(path, HEADER_TAG, &header, check, parse)?;
        Ok((ResultsJournal(journal), cells))
    }

    /// Attaches a latency histogram recording each append's write+fsync
    /// time. Telemetry observes, never participates: the journal's bytes
    /// and durability are identical with or without a live histogram.
    pub fn instrument(&mut self, fsync_latency: Histogram) {
        self.0.instrument(fsync_latency);
    }

    /// Appends one completed cell and `fsync`s: once this returns, the
    /// cell survives any kill.
    pub fn append(&mut self, cell: &CellResult) -> io::Result<()> {
        let json = serde_json::to_string(cell)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.0.stage(format_args!("C {json}"));
        self.0.sync()
    }

    /// The journal's on-disk path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.0.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use psr_datasets::toy::karate_club;

    use crate::plan::ExperimentPlan;
    use crate::run_cell;

    /// A unique scratch path (no tempfile crate in the offline vendor
    /// set): per-process id plus a per-test counter under the OS temp dir.
    fn scratch_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("psr-frontier-{tag}-{}-{n}.journal", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn sample_cells(count: usize) -> (ExperimentPlan, Vec<CellResult>) {
        let plan = ExperimentPlan::toy();
        let graph = Arc::new(karate_club());
        let cells = plan
            .expand()
            .into_iter()
            .take(count)
            .map(|spec| run_cell(&plan, &spec, &graph).unwrap())
            .collect();
        (plan, cells)
    }

    /// Two hand-built cells: an edge-private cell with one adversary and
    /// a non-private node cell whose optional fields are mostly empty.
    fn golden_cells() -> Vec<CellResult> {
        use crate::cell::{AdversaryCell, CellSpec, Interval};
        let interval = Interval { lower: 0.25, upper: 0.75 };
        let spec = |index, adjacency: &str, mechanism: &str, epsilon| CellSpec {
            index,
            dataset: 0,
            utility: "common-neighbors".to_owned(),
            adjacency: adjacency.to_owned(),
            mechanism: mechanism.to_owned(),
            epsilon,
            engine: "peel".to_owned(),
        };
        vec![
            CellResult {
                spec: spec(0, "edge", "exponential", Some(0.5)),
                dataset: "karate".to_owned(),
                transcript_epsilon: Some(1.0),
                node_transcript_epsilon: None,
                accuracy_bound: 0.875,
                advantage_ceiling: 0.1,
                node_epsilon_lower: None,
                node_epsilon_lower_asymptotic: None,
                mean_accuracy: Some(0.5),
                exact_hits: 3,
                scored_entries: 8,
                accuracy_interval: Some(interval),
                adversaries: vec![AdversaryCell {
                    adversary: "likelihood-ratio".to_owned(),
                    advantage: 0.125,
                    auc: 0.5625,
                    tpr: 0.5,
                    tpr_interval: interval,
                    fpr: 0.375,
                    fpr_interval: interval,
                    empirical_epsilon: 0.25,
                    empirical_epsilon_lower: 0.0,
                    epsilon_floor: Some(0.125),
                    consistent: true,
                }],
            },
            CellResult {
                spec: spec(2, "node", "non-private", None),
                dataset: "karate".to_owned(),
                transcript_epsilon: None,
                node_transcript_epsilon: None,
                accuracy_bound: 1.0,
                advantage_ceiling: 1.0,
                node_epsilon_lower: Some(1.5),
                node_epsilon_lower_asymptotic: Some(1.75),
                mean_accuracy: None,
                exact_hits: 0,
                scored_entries: 0,
                accuracy_interval: None,
                adversaries: Vec::new(),
            },
        ]
    }

    /// [`golden_cells`] journalled for plan `0123456789abcdef` (3 cells),
    /// captured byte for byte.
    const GOLDEN_FINGERPRINT: u64 = 0x0123_4567_89ab_cdef;
    const GOLDEN_JOURNAL: &str = concat!(
        "psrfrontier v1 0123456789abcdef 3 931c80118bc33861\n",
        r#"C {"spec":{"index":0,"dataset":0,"utility":"common-neighbors","adjacency":"edge","mechanism":"exponential","epsilon":0.5,"engine":"peel"},"dataset":"karate","transcript_epsilon":1,"node_transcript_epsilon":null,"accuracy_bound":0.875,"advantage_ceiling":0.1,"node_epsilon_lower":null,"node_epsilon_lower_asymptotic":null,"mean_accuracy":0.5,"exact_hits":3,"scored_entries":8,"accuracy_interval":{"lower":0.25,"upper":0.75},"adversaries":[{"adversary":"likelihood-ratio","advantage":0.125,"auc":0.5625,"tpr":0.5,"tpr_interval":{"lower":0.25,"upper":0.75},"fpr":0.375,"fpr_interval":{"lower":0.25,"upper":0.75},"empirical_epsilon":0.25,"empirical_epsilon_lower":0,"epsilon_floor":0.125,"consistent":true}]} 6e0e91605757a5fc"#,
        "\n",
        r#"C {"spec":{"index":2,"dataset":0,"utility":"common-neighbors","adjacency":"node","mechanism":"non-private","epsilon":null,"engine":"peel"},"dataset":"karate","transcript_epsilon":null,"node_transcript_epsilon":null,"accuracy_bound":1,"advantage_ceiling":1,"node_epsilon_lower":1.5,"node_epsilon_lower_asymptotic":1.75,"mean_accuracy":null,"exact_hits":0,"scored_entries":0,"accuracy_interval":null,"adversaries":[]} 2227d0fdb35e3fb2"#,
        "\n",
    );

    #[test]
    fn golden_journal_replays_and_is_reproduced_byte_for_byte() {
        let path = scratch_path("golden");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, GOLDEN_JOURNAL).unwrap();
        let (_, replayed) = ResultsJournal::open(&path, GOLDEN_FINGERPRINT, 3).unwrap();
        assert_eq!(replayed, golden_cells());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            GOLDEN_JOURNAL,
            "replay keeps valid bytes"
        );

        std::fs::remove_file(&path).unwrap();
        let (mut journal, _) = ResultsJournal::open(&path, GOLDEN_FINGERPRINT, 3).unwrap();
        for cell in &golden_cells() {
            journal.append(cell).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN_JOURNAL);
    }

    #[test]
    fn every_truncation_point_recovers_a_valid_prefix() {
        let cells = golden_cells();
        let cut_path = scratch_path("truncate");
        let _cleanup = Cleanup(cut_path.clone());
        let bytes = GOLDEN_JOURNAL.as_bytes();
        for cut in 0..=bytes.len() {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            let (_, replayed) = ResultsJournal::open(&cut_path, GOLDEN_FINGERPRINT, 3).unwrap();
            assert!(cells.starts_with(&replayed), "cut {cut}: replay must be a prefix");
            let kept = std::fs::read(&cut_path).unwrap();
            assert!(bytes.starts_with(&kept), "cut {cut}: repair keeps a byte prefix");
            // The repaired file replays identically on a second open.
            let (_, again) = ResultsJournal::open(&cut_path, GOLDEN_FINGERPRINT, 3).unwrap();
            assert_eq!(again, replayed, "cut {cut}: repair must be idempotent");
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = scratch_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        let (plan, cells) = sample_cells(2);
        let fp = plan.fingerprint();
        let total = plan.expand().len();
        {
            let (mut journal, replayed) = ResultsJournal::open(&path, fp, total).unwrap();
            assert!(replayed.is_empty());
            for cell in &cells {
                journal.append(cell).unwrap();
            }
        } // dropped without any shutdown hook: durability is append-time fsync
        let (_, replayed) = ResultsJournal::open(&path, fp, total).unwrap();
        assert_eq!(replayed, cells);
    }

    #[test]
    fn corrupt_tail_is_dropped_and_truncated() {
        let path = scratch_path("tail");
        let _cleanup = Cleanup(path.clone());
        let (plan, cells) = sample_cells(1);
        let fp = plan.fingerprint();
        let total = plan.expand().len();
        {
            let (mut journal, _) = ResultsJournal::open(&path, fp, total).unwrap();
            journal.append(&cells[0]).unwrap();
        }
        // Simulate a crash mid-append: a torn line without its newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"C {\"spec\":{\"index\":1").unwrap();
        drop(file);
        let before = std::fs::metadata(&path).unwrap().len();
        let (_, replayed) = ResultsJournal::open(&path, fp, total).unwrap();
        assert_eq!(replayed, cells, "torn cell dropped, valid prefix kept");
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "the torn tail must be truncated away");
    }

    #[test]
    fn plan_mismatch_is_a_hard_error() {
        let path = scratch_path("mismatch");
        let _cleanup = Cleanup(path.clone());
        let (plan, _) = sample_cells(0);
        let fp = plan.fingerprint();
        let total = plan.expand().len();
        drop(ResultsJournal::open(&path, fp, total).unwrap());
        let err = ResultsJournal::open(&path, fp ^ 1, total).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("was written for plan"), "{err}");
        let err = ResultsJournal::open(&path, fp, total + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn foreign_file_restarts_fresh() {
        let path = scratch_path("foreign");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, b"not a journal\n\xff\x00tail").unwrap();
        let (journal, replayed) = ResultsJournal::open(&path, 7, 3).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(journal.path(), path.as_path());
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(HEADER_TAG), "rewritten with a fresh header");
    }
}
