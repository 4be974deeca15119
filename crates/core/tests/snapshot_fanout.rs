//! Snapshot publication fanout under certification refusal, plus the
//! versioned retention window.
//!
//! The invariant under test is the epoch barrier's guarantee: no two
//! workers ever serve different certified epochs. A refused publication
//! must leave *all* workers on the same prior epoch (not some on old, some
//! on new), and the first clean publication afterwards must recover the
//! whole fleet at once, re-issuing the flushes deferred at refusal time.
//! The front-end's retention ring must hold the last-N certified
//! snapshots, and every worker must serve the very compilation the
//! front-end published (pointer identity, captured inside each worker
//! thread), not a per-worker recompilation.

use dfi_core::events::SnapshotWitness;
use dfi_core::policy::{EndpointPattern, PolicyRule, PolicySnapshot};
use dfi_core::{
    Dfi, DfiConfig, ObserveFn, Outbox, ParallelShardedDfi, WorkerWorld, WorldBuilder,
    SNAPSHOT_RETENTION,
};
use dfi_simnet::Sim;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const SEED: u64 = 0xFA_2019;
const WORKERS: usize = 4;

fn repro(point: &str) -> String {
    format!("repro: snapshot_fanout seed={SEED:#x} workers={WORKERS} at={point}")
}

fn rule(n: usize) -> PolicyRule {
    PolicyRule::allow(
        EndpointPattern::user(&format!("u{n}")),
        EndpointPattern::any(),
    )
}

/// The snapshot each worker served at its last drain, worker order.
type Served = Arc<Mutex<Vec<Option<Arc<PolicySnapshot>>>>>;

/// A switchless fleet whose workers report, through their observe hooks,
/// the `Arc` their own `Dfi` serves.
fn fleet(seed: u64) -> (ParallelShardedDfi, Served) {
    let served: Served = Arc::new(Mutex::new(vec![None; WORKERS]));
    let builders: Vec<WorldBuilder> = (0..WORKERS)
        .map(|w| {
            let served = Arc::clone(&served);
            Box::new(move |_: &mut Sim, dfi: &Dfi, _: &Outbox| {
                let dfi = dfi.clone();
                let observe: ObserveFn = Box::new(move |_| {
                    served.lock().unwrap()[w] = Some(dfi.snapshot());
                    (Vec::new(), Vec::new())
                });
                WorkerWorld {
                    taps: Vec::new(),
                    boundaries: Vec::new(),
                    observe,
                }
            }) as WorldBuilder
        })
        .collect();
    let fleet = ParallelShardedDfi::new(&DfiConfig::default(), seed, builders, HashMap::new());
    (fleet, served)
}

/// Drains the fleet and asserts every worker serves the front-end's
/// current snapshot — the same `Arc`, not an equal recompilation.
fn assert_serving_front_end_arc(fleet: &mut ParallelShardedDfi, served: &Served, point: &str) {
    fleet.drain();
    let published = fleet.snapshot();
    for (w, got) in served.lock().unwrap().iter().enumerate() {
        let got = got.as_ref().expect("every worker drained");
        assert!(
            Arc::ptr_eq(got, &published),
            "worker {w} serves epoch {} but the front-end published epoch {}; {}",
            got.epoch(),
            published.epoch(),
            repro(point)
        );
    }
}

#[test]
fn refused_snapshot_leaves_all_workers_on_the_same_prior_epoch() {
    let (mut fleet, served) = fleet(SEED);

    // A flag-controlled certifier: refuses while `refusing` is set.
    let refusing = Arc::new(AtomicBool::new(false));
    {
        let refusing = Arc::clone(&refusing);
        fleet.set_snapshot_gate(Box::new(move |_| {
            if refusing.load(Ordering::Relaxed) {
                vec![SnapshotWitness {
                    kind: "test-refusal".into(),
                    rules: vec![],
                    message: "refused by test certifier".into(),
                }]
            } else {
                Vec::new()
            }
        }));
    }

    // Clean insert: every worker moves to the same fresh epoch.
    fleet.insert_policy(rule(1), 10, "fanout-test");
    assert_serving_front_end_arc(&mut fleet, &served, "after-clean-insert");
    assert!(fleet.epochs_agree(), "{}", repro("after-clean-insert"));
    let settled = fleet.served_epochs()[0];

    // Refused insert: publication deferred, NO worker moves. The rule is a
    // higher-priority deny conflicting with rule(1)'s allow, so its flush
    // set is non-empty and lands on the deferred list.
    refusing.store(true, Ordering::Relaxed);
    let id_b = fleet.insert_policy(
        PolicyRule::deny(EndpointPattern::user("u1"), EndpointPattern::any()),
        50,
        "fanout-test",
    );
    assert_serving_front_end_arc(&mut fleet, &served, "after-refused-insert");
    assert_eq!(
        fleet.served_epochs(),
        vec![settled; WORKERS],
        "a refusal must leave every worker on the prior epoch; {}",
        repro("after-refused-insert")
    );
    assert_eq!(
        fleet.fanout_metrics().snapshot_refusals,
        1,
        "{}",
        repro("after-refused-insert")
    );

    // Recovery: the next clean publication moves the whole fleet at once
    // and re-issues the flushes deferred at refusal time.
    refusing.store(false, Ordering::Relaxed);
    let flushes_before = fleet.fanout_metrics().flush_fanouts;
    fleet.insert_policy(rule(3), 10, "fanout-test");
    assert_serving_front_end_arc(&mut fleet, &served, "after-recovery");
    assert!(fleet.epochs_agree(), "{}", repro("after-recovery"));
    let recovered = fleet.served_epochs()[0];
    assert!(
        recovered > settled,
        "recovery must advance the fleet epoch ({recovered} vs {settled}); {}",
        repro("after-recovery")
    );
    assert!(
        fleet.fanout_metrics().flush_fanouts > flushes_before,
        "recovery must re-issue the deferred flushes; {}",
        repro("after-recovery")
    );
    // The deferred rule is live after recovery.
    assert!(
        fleet.snapshot().rules().any(|(id, _)| id == id_b),
        "{}",
        repro("after-recovery")
    );
    fleet.shutdown();
}

#[test]
fn retention_window_holds_the_last_certified_epochs_oldest_first() {
    let (mut fleet, served) = fleet(SEED ^ 1);
    // Enough publications to roll the retention ring over.
    for n in 0..(SNAPSHOT_RETENTION + 3) {
        fleet.insert_policy(rule(n), 10, "fanout-test");
        assert_serving_front_end_arc(&mut fleet, &served, "retention");
    }
    let epochs: Vec<u64> = fleet.snapshot_history().iter().map(|s| s.epoch()).collect();
    let newest = fleet.served_epochs()[0];
    let expect: Vec<u64> = (newest - SNAPSHOT_RETENTION as u64..newest).collect();
    assert_eq!(epochs, expect, "{}", repro("retention"));
    fleet.shutdown();
}
