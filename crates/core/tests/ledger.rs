//! Persistence guarantees of the on-disk budget journal, driven through
//! the public API only.
//!
//! Three families of properties:
//!
//! * **Round-trip** — any admitted charge sequence replays to
//!   bit-identical per-target spend on reopen (ε travels as exact f64
//!   bit patterns).
//! * **Crash tails** — truncating the file at *every* byte boundary, or
//!   flipping an arbitrary byte, recovers a valid charge *prefix*:
//!   recovery may forget unsynced spend (the conservative direction) but
//!   never invents spend, and the repaired journal is stable under
//!   further reopens.
//! * **Kill-mid-batch restart** — a `RecommendationService` killed
//!   without any shutdown hook and restarted on the same journal sees
//!   the identical per-target spend, keeps refusing exhausted targets,
//!   and never lets composed spend exceed the configured budget.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use psr_core::serving::{BatchRequest, ServeError};
use psr_core::{BudgetLedger, JournalLedger, RecommendationService, ServiceConfig};
use psr_datasets::toy::karate_club;
use psr_utility::CommonNeighbors;

/// A unique scratch path (no tempfile crate in the offline vendor set).
fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("psr-ledger-it-{tag}-{}-{n}.journal", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Strategy: a sequence of (target, ε) charge attempts with ε in
/// (0, 0.4], dense enough that finite budgets reject some of them.
fn charge_attempts() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((0u32..8, 1u32..=400), 1..48)
        .prop_map(|v| v.into_iter().map(|(t, milli)| (t, f64::from(milli) / 1000.0)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn journal_round_trips_any_admitted_charge_sequence(attempts in charge_attempts()) {
        let path = scratch_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        let budget = 1.5;
        let mut admitted: Vec<(u32, f64)> = Vec::new();
        {
            let mut ledger = JournalLedger::open(&path, budget).unwrap();
            for &(target, eps) in &attempts {
                if ledger.try_charge(target, eps).is_ok() {
                    admitted.push((target, eps));
                }
            }
            ledger.sync().unwrap();
        } // killed: durability must not depend on a shutdown hook
        let reopened = JournalLedger::open(&path, budget).unwrap();
        // Replay uses the same accumulation order, so spend is exact.
        let mut expected: HashMap<u32, f64> = HashMap::new();
        for &(target, eps) in &admitted {
            *expected.entry(target).or_insert(0.0) += eps;
        }
        for target in 0u32..8 {
            prop_assert_eq!(
                reopened.spent(target),
                expected.get(&target).copied().unwrap_or(0.0),
                "target {} spend must replay bit-identically", target
            );
        }
    }

    #[test]
    fn corrupting_any_byte_never_invents_spend(
        attempts in charge_attempts(),
        position in 0usize..1 << 16,
        flip in 1u8..=255,
    ) {
        let path = scratch_path("corrupt");
        let _cleanup = Cleanup(path.clone());
        let budget = f64::INFINITY;
        {
            let mut ledger = JournalLedger::open(&path, budget).unwrap();
            for &(target, eps) in &attempts {
                ledger.try_charge(target, eps).unwrap();
            }
            ledger.sync().unwrap();
        }
        let full = JournalLedger::open(&path, budget).unwrap();
        let full_spend: Vec<f64> = (0u32..8).map(|t| full.spent(t)).collect();
        drop(full);

        let mut bytes = std::fs::read(&path).unwrap();
        let at = position % bytes.len();
        bytes[at] ^= flip;
        std::fs::write(&path, &bytes).unwrap();

        // A corrupt header restarts fresh; a corrupt body drops the tail.
        // Either way: a prefix, never new spend, and stable thereafter.
        let recovered = JournalLedger::open(&path, budget).unwrap();
        for target in 0u32..8 {
            prop_assert!(
                recovered.spent(target) <= full_spend[target as usize],
                "corruption must not invent spend for target {}", target
            );
        }
        let spend: Vec<f64> = (0u32..8).map(|t| recovered.spent(t)).collect();
        drop(recovered);
        let again = JournalLedger::open(&path, budget).unwrap();
        let spend_again: Vec<f64> = (0u32..8).map(|t| again.spent(t)).collect();
        prop_assert_eq!(spend, spend_again, "recovery must be stable under reopen");
    }
}

#[test]
fn every_truncation_point_recovers_a_valid_prefix() {
    // Ten identical 0.5-ε charges cycling over four targets: from any
    // byte cut, the replayed spend identifies exactly how many leading
    // charges survived, which pins the whole spend vector.
    let path = scratch_path("truncate-src");
    let _cleanup = Cleanup(path.clone());
    const CHARGES: usize = 10;
    {
        let mut ledger = JournalLedger::open(&path, f64::INFINITY).unwrap();
        for i in 0..CHARGES {
            ledger.try_charge(i as u32 % 4, 0.5).unwrap();
            ledger.sync().unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();

    let cut_path = scratch_path("truncate-cut");
    let _cleanup_cut = Cleanup(cut_path.clone());
    for cut in 0..=bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let ledger = JournalLedger::open(&cut_path, f64::INFINITY).unwrap();
        let total: f64 = (0u32..4).map(|t| ledger.spent(t)).sum();
        let replayed = (total / 0.5).round() as usize;
        assert!(replayed <= CHARGES, "cut {cut}: more charges than written");
        assert_eq!(
            total,
            replayed as f64 * 0.5,
            "cut {cut}: spend must be a whole number of charges"
        );
        for target in 0u32..4 {
            let expected = (0..replayed).filter(|i| *i as u32 % 4 == target).count() as f64 * 0.5;
            assert_eq!(
                ledger.spent(target),
                expected,
                "cut {cut}: target {target} must hold a prefix of its charges"
            );
        }
        drop(ledger);
        // The repaired file replays identically on a second open.
        let again = JournalLedger::open(&cut_path, f64::INFINITY).unwrap();
        let total_again: f64 = (0u32..4).map(|t| again.spent(t)).sum();
        assert_eq!(total, total_again, "cut {cut}: repair must be idempotent");
    }
}

/// The serving-layer acceptance check: kill a daemon mid-run (no
/// shutdown hook), restart on the same journal, and the per-target ε
/// spend is identical, exhausted targets stay exhausted, and composed
/// spend never exceeds the budget.
#[test]
fn killed_service_replays_identical_spend_within_composed_budget() {
    let path = scratch_path("kill");
    let _cleanup = Cleanup(path.clone());
    let budget = 2.0;
    let epsilon = 0.75; // two requests fit, a third would compose past 2.0
    let config = ServiceConfig {
        epsilon_per_request: epsilon,
        budget_per_target: budget,
        threads: Some(2),
        ..Default::default()
    };
    let targets: Vec<u32> = (0..6).collect();
    let requests: Vec<BatchRequest> =
        targets.iter().map(|&target| BatchRequest { target, k: 2 }).collect();

    let spend_before: Vec<f64> = {
        let ledger = JournalLedger::open(&path, budget).unwrap();
        let service = RecommendationService::builder(karate_club(), Arc::new(CommonNeighbors))
            .config(config)
            .ledger(Box::new(ledger))
            .build();
        // Two full rounds drain every target to 1.5 of the 2.0 budget.
        for round in 0..2 {
            for outcome in service.serve_batch(&requests, 100 + round) {
                outcome.expect("two rounds fit every budget");
            }
        }
        targets.iter().map(|&t| service.spent_budget(t)).collect()
    }; // the service is dropped mid-lifetime: the "kill"

    let ledger = JournalLedger::open(&path, budget).unwrap();
    for (&target, &before) in targets.iter().zip(&spend_before) {
        assert_eq!(before, 1.5, "target {target} spent two requests before the kill");
        assert_eq!(
            ledger.spent(target),
            before,
            "target {target}: replayed spend must be identical to the pre-kill spend"
        );
    }
    let service = RecommendationService::builder(karate_club(), Arc::new(CommonNeighbors))
        .config(config)
        .ledger(Box::new(ledger))
        .build();
    // A third round must now be refused for every target: 1.5 + 0.75
    // composes past the 2.0 budget, and the restart remembered it.
    for (request, outcome) in requests.iter().zip(service.serve_batch(&requests, 300)) {
        match outcome {
            Err(ServeError::BudgetExhausted { target, .. }) => assert_eq!(target, request.target),
            other => panic!("target {} must stay exhausted, got {other:?}", request.target),
        }
    }
    for &target in &targets {
        let spent = service.spent_budget(target);
        assert!(
            spent <= budget + 1e-9,
            "target {target}: composed spend {spent} exceeds budget {budget}"
        );
        assert_eq!(spent, 1.5, "refused requests must not charge");
    }
}
