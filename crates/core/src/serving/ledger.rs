//! Persistent per-target ε-budget ledgers.
//!
//! Budgets are the one piece of serving state that must never reset: a
//! restart that forgot per-target spend would hand every adversary a
//! fresh ε allowance (the composed-budget checks in `psr-attack` exist
//! to catch exactly that). This module extracts the in-memory
//! [`BudgetAccountant`] behind the [`BudgetLedger`] trait and adds
//! [`JournalLedger`], an append-only on-disk journal with crash-safe
//! replay.
//!
//! # Durability contract
//!
//! Charges are staged in memory by [`BudgetLedger::try_charge`] and made
//! durable by [`BudgetLedger::sync`], which appends the staged lines and
//! `fsync`s **once per admitted batch**. The serving layer calls `sync`
//! after admission and *before any result is released*, so the invariant
//! at every point in time is:
//!
//! > every released recommendation's charge is already on disk.
//!
//! A crash can therefore lose charges that were admitted but whose
//! results were never released (the conservative direction — replay may
//! under-count spend the adversary never observed an answer for), but it
//! can never under-count spend behind an answer that got out.
//!
//! # Journal format
//!
//! A [`Journal`] (see [`super::journal`] for the line framing and the
//! replay rules) tagged `psrledger v1`. The header's one field is the
//! budget's `f64` bit pattern in hex; each record `C <target> <bits>` is
//! one charge, ε again as its exact bit pattern, so replayed spend is
//! bit-identical to what admission recorded. A valid header whose budget
//! differs from the caller's is a hard error: re-reading old spend
//! against a different budget would corrupt the accounting.

use std::io;
use std::path::Path;

use psr_graph::NodeId;
use psr_obs::MetricsRegistry;

use super::budget::{BudgetAccountant, BudgetExceeded};
use super::journal::Journal;

/// Per-target ε spend tracking with explicit durability points. See the
/// `serving/ledger.rs` module docs for the contract; [`BudgetAccountant`] is the
/// volatile reference implementation, [`JournalLedger`] the durable one.
pub trait BudgetLedger: Send {
    /// The configured per-target budget.
    fn budget_per_target(&self) -> f64;

    /// Cumulative ε already spent on `target`.
    fn spent(&self, target: NodeId) -> f64;

    /// Budget still available for `target` (never negative).
    fn remaining(&self, target: NodeId) -> f64 {
        (self.budget_per_target() - self.spent(target)).max(0.0)
    }

    /// Admits and stages a charge of `eps` against `target`, or rejects
    /// it without recording anything. Staged charges are observable
    /// through [`BudgetLedger::spent`] immediately but durable only
    /// after the next [`BudgetLedger::sync`].
    fn try_charge(&mut self, target: NodeId, eps: f64) -> Result<(), BudgetExceeded>;

    /// Makes every staged charge durable. Called once per admitted batch,
    /// before any of the batch's results are released.
    fn sync(&mut self) -> io::Result<()>;

    /// Forgets all spend (explicit privacy epoch rollover), durably.
    fn reset(&mut self) -> io::Result<()>;

    /// Human-readable description of the backing store, for reports.
    fn description(&self) -> String {
        "memory".to_owned()
    }

    /// Attaches telemetry handles minted from `metrics` (e.g. the fsync
    /// latency histogram of a durable ledger). Telemetry observes, never
    /// participates: instrumented and uninstrumented ledgers admit and
    /// persist identically. Default: nothing to instrument.
    fn instrument(&mut self, _metrics: &MetricsRegistry) {}

    /// Writes the ledger's point-in-time budget gauges into `metrics`:
    /// the configured budget, how many targets have spent anything, and
    /// one `budget.eps_spent.t<target>` gauge per charged target.
    /// Default: nothing to export.
    fn export_spend_gauges(&self, _metrics: &MetricsRegistry) {}
}

impl BudgetLedger for BudgetAccountant {
    fn budget_per_target(&self) -> f64 {
        BudgetAccountant::budget_per_target(self)
    }

    fn spent(&self, target: NodeId) -> f64 {
        BudgetAccountant::spent(self, target)
    }

    fn try_charge(&mut self, target: NodeId, eps: f64) -> Result<(), BudgetExceeded> {
        BudgetAccountant::try_charge(self, target, eps)
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(()) // volatile: nothing to persist
    }

    fn reset(&mut self) -> io::Result<()> {
        BudgetAccountant::reset(self);
        Ok(())
    }

    fn export_spend_gauges(&self, metrics: &MetricsRegistry) {
        if !metrics.is_enabled() {
            return;
        }
        metrics.gauge("budget.eps_per_target").set(self.budget_per_target());
        let spend = self.spent_per_target();
        metrics.gauge("budget.targets_charged").set(spend.len() as f64);
        for (target, eps) in spend {
            metrics.gauge(&format!("budget.eps_spent.t{target}")).set(eps);
        }
    }
}

/// Magic + version prefix of the journal header line.
const HEADER_TAG: &str = "psrledger v1";

/// One replayed charge, parsed from a valid journal line.
fn parse_charge(payload: &str) -> Option<(NodeId, f64)> {
    let rest = payload.strip_prefix("C ")?;
    let (target, bits) = rest.split_once(' ')?;
    let target: NodeId = target.parse().ok()?;
    let eps = f64::from_bits(u64::from_str_radix(bits, 16).ok()?);
    (eps > 0.0 && eps.is_finite()).then_some((target, eps))
}

/// An append-only on-disk [`BudgetLedger`]: a [`BudgetAccountant`] whose
/// every charge is also staged into a [`Journal`]. See the
/// `serving/ledger.rs` module docs for the format and the durability
/// contract.
#[derive(Debug)]
pub struct JournalLedger {
    accountant: BudgetAccountant,
    journal: Journal,
}

impl JournalLedger {
    /// Opens (or creates) the journal at `path` with the given per-target
    /// budget, replaying any surviving spend under the [`super::journal`]
    /// replay contract. A **valid** header carrying a different budget is
    /// an [`io::ErrorKind::InvalidData`] error.
    ///
    /// # Panics
    /// Panics unless the budget is positive (`f64::INFINITY` disables
    /// enforcement), matching [`BudgetAccountant::new`].
    pub fn open(path: impl AsRef<Path>, budget_per_target: f64) -> io::Result<Self> {
        let path = path.as_ref();
        let mut accountant = BudgetAccountant::new(budget_per_target);
        let bits = budget_per_target.to_bits();
        let check = |fields: &str| {
            let written = u64::from_str_radix(fields, 16)
                .map_err(|_| format!("budget journal {} has a malformed header", path.display()))?;
            if written == bits {
                return Ok(());
            }
            Err(format!(
                "budget journal {} was written for budget {}, not {budget_per_target}",
                path.display(),
                f64::from_bits(written)
            ))
        };
        let (journal, charges) =
            Journal::open(path, HEADER_TAG, &format!("{bits:016x}"), check, parse_charge)?;
        for (target, eps) in charges {
            accountant.restore(target, eps);
        }
        Ok(JournalLedger { accountant, journal })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

impl BudgetLedger for JournalLedger {
    fn budget_per_target(&self) -> f64 {
        self.accountant.budget_per_target()
    }

    fn spent(&self, target: NodeId) -> f64 {
        self.accountant.spent(target)
    }

    fn try_charge(&mut self, target: NodeId, eps: f64) -> Result<(), BudgetExceeded> {
        self.accountant.try_charge(target, eps)?;
        self.journal.stage(format_args!("C {target} {:016x}", eps.to_bits()));
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()
    }

    fn reset(&mut self) -> io::Result<()> {
        self.accountant.reset();
        self.journal.reset()
    }

    fn description(&self) -> String {
        format!("journal:{}", self.path().display())
    }

    fn instrument(&mut self, metrics: &MetricsRegistry) {
        self.journal.instrument(metrics.histogram("ledger.fsync_ns"));
    }

    fn export_spend_gauges(&self, metrics: &MetricsRegistry) {
        BudgetLedger::export_spend_gauges(&self.accountant, metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch path (no tempfile crate in the offline vendor
    /// set): per-process id plus a per-test counter under the OS temp dir.
    pub(crate) fn scratch_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("psr-ledger-{tag}-{}-{n}.journal", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn fresh_journal_charges_and_replays() {
        let path = scratch_path("fresh");
        let _cleanup = Cleanup(path.clone());
        {
            let mut ledger = JournalLedger::open(&path, 2.0).unwrap();
            assert_eq!(BudgetLedger::remaining(&ledger, 5), 2.0);
            ledger.try_charge(5, 1.0).unwrap();
            ledger.try_charge(9, 0.25).unwrap();
            ledger.sync().unwrap();
        } // dropped without any shutdown hook: durability is sync-only
        let ledger = JournalLedger::open(&path, 2.0).unwrap();
        assert_eq!(BudgetLedger::spent(&ledger, 5), 1.0);
        assert_eq!(BudgetLedger::spent(&ledger, 9), 0.25);
        assert_eq!(BudgetLedger::remaining(&ledger, 5), 1.0);
        assert!(ledger.description().contains("journal:"));
    }

    #[test]
    fn unsynced_charges_are_not_durable() {
        let path = scratch_path("unsynced");
        let _cleanup = Cleanup(path.clone());
        {
            let mut ledger = JournalLedger::open(&path, 2.0).unwrap();
            ledger.try_charge(1, 1.0).unwrap();
            ledger.sync().unwrap();
            ledger.try_charge(1, 0.5).unwrap();
            // staged spend is visible in memory…
            assert_eq!(BudgetLedger::spent(&ledger, 1), 1.5);
            // …but the process dies before sync.
        }
        let ledger = JournalLedger::open(&path, 2.0).unwrap();
        assert_eq!(BudgetLedger::spent(&ledger, 1), 1.0, "only synced spend survives");
    }

    #[test]
    fn corrupt_tail_is_dropped_and_truncated() {
        let path = scratch_path("tail");
        let _cleanup = Cleanup(path.clone());
        {
            let mut ledger = JournalLedger::open(&path, 10.0).unwrap();
            ledger.try_charge(3, 1.0).unwrap();
            ledger.try_charge(4, 1.0).unwrap();
            ledger.sync().unwrap();
        }
        // Simulate a crash mid-append: garbage tail bytes.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"C 7 3ff00000").unwrap(); // torn line, no newline
        drop(file);
        let before = std::fs::metadata(&path).unwrap().len();
        {
            let ledger = JournalLedger::open(&path, 10.0).unwrap();
            assert_eq!(BudgetLedger::spent(&ledger, 3), 1.0);
            assert_eq!(BudgetLedger::spent(&ledger, 4), 1.0);
            assert_eq!(BudgetLedger::spent(&ledger, 7), 0.0, "torn charge dropped");
        }
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "the torn tail must be truncated away");
        // A third open sees a clean journal.
        let ledger = JournalLedger::open(&path, 10.0).unwrap();
        assert_eq!(BudgetLedger::spent(&ledger, 3), 1.0);
    }

    #[test]
    fn budget_mismatch_is_a_hard_error() {
        let path = scratch_path("mismatch");
        let _cleanup = Cleanup(path.clone());
        drop(JournalLedger::open(&path, 2.0).unwrap());
        let err = JournalLedger::open(&path, 3.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn reset_durably_forgets_spend() {
        let path = scratch_path("reset");
        let _cleanup = Cleanup(path.clone());
        {
            let mut ledger = JournalLedger::open(&path, 2.0).unwrap();
            ledger.try_charge(1, 2.0).unwrap();
            ledger.sync().unwrap();
            assert!(ledger.try_charge(1, 1.0).is_err());
            ledger.reset().unwrap();
            assert_eq!(BudgetLedger::remaining(&ledger, 1), 2.0);
            ledger.try_charge(1, 1.0).unwrap();
            ledger.sync().unwrap();
        }
        let ledger = JournalLedger::open(&path, 2.0).unwrap();
        assert_eq!(BudgetLedger::spent(&ledger, 1), 1.0, "post-reset spend only");
    }

    #[test]
    fn non_journal_file_restarts_fresh() {
        let path = scratch_path("foreign");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, b"not a ledger at all\n\x00\xfflines").unwrap();
        let ledger = JournalLedger::open(&path, 1.0).unwrap();
        assert_eq!(BudgetLedger::spent(&ledger, 0), 0.0);
        drop(ledger);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(HEADER_TAG), "rewritten with a fresh header");
    }

    #[test]
    fn in_memory_accountant_implements_the_ledger_trait() {
        let mut ledger: Box<dyn BudgetLedger> = Box::new(BudgetAccountant::new(1.0));
        ledger.try_charge(0, 1.0).unwrap();
        assert!(ledger.try_charge(0, 0.5).is_err());
        ledger.sync().unwrap();
        assert_eq!(ledger.description(), "memory");
        ledger.reset().unwrap();
        assert_eq!(ledger.remaining(0), 1.0);
    }
}
