//! Differential tests for the specialized log-linear monitors beside the
//! verdict matrix (`tests/verdict_matrix.rs`), which holds their verdicts to
//! the general Wing–Gong search on its corpus: here, on random seeded
//! recordings of a shape the matrix grid has not (3 processes × 12
//! operations), unambiguous queue histories must take the specialized route
//! and ambiguous histories the documented fallback.

use linrv_check::{FallbackReason, LinSpec, Route, StrategyChecker};
use linrv_history::{History, HistoryBuilder, OpValue, ProcessId};
use linrv_runtime::{record_scheduled, RecorderOptions, Workload, WorkloadKind};
use linrv_spec::ops::{queue, stack};
use linrv_spec::{with_spec, ObjectKind, QueueSpec, StackSpec};
use proptest::prelude::*;
use tests_integration::implementation;

/// Records one seeded execution on 3 processes × 12 operations each: the
/// kind's correct implementation, or its fault injector corrupting every
/// `faulty_every`-th apply.
fn record(kind: ObjectKind, seed: u64, faulty_every: Option<u64>) -> History {
    let workload = Workload::new(WorkloadKind::for_object(kind), seed);
    let options = RecorderOptions {
        processes: 3,
        ops_per_process: 12,
    };
    let object = implementation(kind, faulty_every);
    record_scheduled(&*object, workload, options, seed ^ 0x5EED_D1FF).history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Verdict equality with the general search over random seeds, correct
    /// and faulty, for every kind. Workload values are globally unique per
    /// process, so correct collection histories exercise the unambiguous fast
    /// path rather than falling back.
    #[test]
    fn specialized_and_general_verdicts_agree_on_recorded_histories(
        seed in 0..10_000u64,
        kind_index in 0..ObjectKind::ALL.len(),
        inject_faults in any::<bool>(),
    ) {
        let kind = ObjectKind::ALL[kind_index];
        let history = record(kind, seed, inject_faults.then_some(5));
        with_spec!(kind, |spec| {
            let general = LinSpec::new(spec).check(&history);
            let (routed, route) = StrategyChecker::new(spec).check_routed(&history);
            prop_assert_eq!(
                routed.is_violation(),
                general.is_violation(),
                "{} seed {}: strategy dispatch ({:?}) disagrees with the general search",
                kind, seed, route
            );
        });
    }
}

/// The acceptance path: unambiguous queue histories must actually be decided
/// by the specialized monitor (not merely agree with the general search via a
/// fallback), on both the member and the violation side.
#[test]
fn unambiguous_queue_histories_take_the_specialized_route() {
    for seed in 0..16u64 {
        for faulty_every in [None, Some(3)] {
            let history = record(ObjectKind::Queue, seed, faulty_every);
            let (verdict, route) = StrategyChecker::new(QueueSpec::new()).check_routed(&history);
            assert_eq!(
                route,
                Route::Specialized,
                "seed {seed} faulty {faulty_every:?} fell back ({verdict:?})"
            );
        }
    }
}

/// Duplicate inserted values break the unique-matching precondition: the
/// monitor must decline with the documented reason and the general search
/// must still decide correctly.
#[test]
fn ambiguous_histories_fall_back_to_the_general_search() {
    let p = ProcessId::new(0);

    // Linearizable: the same value enqueued twice, dequeued twice, FIFO.
    let mut b = HistoryBuilder::new();
    b.complete(p, queue::enqueue(7), OpValue::Bool(true));
    b.complete(p, queue::enqueue(7), OpValue::Bool(true));
    b.complete(p, queue::dequeue(), OpValue::Int(7));
    b.complete(p, queue::dequeue(), OpValue::Int(7));
    let member = b.build();
    let (verdict, route) = StrategyChecker::new(QueueSpec::new()).check_routed(&member);
    assert_eq!(route, Route::GeneralFallback(FallbackReason::Ambiguous));
    assert!(verdict.is_member());

    // Not linearizable: one push of 9, two pops of 9.
    let mut b = HistoryBuilder::new();
    b.complete(p, stack::push(9), OpValue::Bool(true));
    b.complete(p, stack::push(9), OpValue::Bool(true));
    b.complete(p, stack::pop(), OpValue::Int(9));
    b.complete(p, stack::pop(), OpValue::Int(9));
    b.complete(p, stack::pop(), OpValue::Int(9));
    let violating = b.build();
    let (verdict, route) = StrategyChecker::new(StackSpec::new()).check_routed(&violating);
    assert_eq!(route, Route::GeneralFallback(FallbackReason::Ambiguous));
    assert!(verdict.is_violation());
}
