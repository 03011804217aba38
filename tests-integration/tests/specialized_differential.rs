//! Differential tests for the specialized log-linear monitors beside the
//! verdict matrix (`tests/verdict_matrix.rs`), which holds their verdicts to
//! the general Wing–Gong search on its corpus: here, on random seeded
//! recordings of a shape the matrix grid has not (3 processes × 12
//! operations), unambiguous queue histories must take the specialized route
//! and ambiguous histories the documented fallback; and so must every sketch a
//! long Enforce-shaped schedule publishes, and random member queue histories
//! with operations left pending.

use linrv_check::{FallbackReason, LinSpec, Route, StrategyChecker};
use linrv_core::drv::Drv;
use linrv_core::sketch::sketch_history;
use linrv_history::{History, HistoryBuilder, OpValue, ProcessId};
use linrv_runtime::impls::MsQueue;
use linrv_runtime::{record_scheduled, RecorderOptions, Workload, WorkloadKind};
use linrv_spec::ops::{queue, stack};
use linrv_spec::{with_spec, ObjectKind, QueueSpec, StackSpec};
use proptest::prelude::*;
use std::collections::VecDeque;
use tests_integration::{drive_drv, implementation, Rng};

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

/// The schedule of the benchmark's Enforce workload, through `DRV` (Figure
/// 7): 4 sessions run 512 operations on an `MsQueue`, an enqueue or a dequeue
/// with even odds while at most 4 values are queued (an enqueue when none is,
/// a dequeue when 4 are), each session publishing before it announces again.
/// Every sketch `X(τ)` published on the way is a correct queue history with
/// the other sessions' operations pending; each must decide `Member` on the
/// specialized route, never through the general search.
#[test]
fn every_sketch_of_a_long_enforce_schedule_decides_on_the_specialized_route() {
    const SESSIONS: usize = 4;
    const MAX_BACKLOG: usize = 4;
    let drv = Drv::new(MsQueue::new(), SESSIONS);
    let strategy = StrategyChecker::new(QueueSpec::new());
    let mut rng = Rng(42);
    let mut left = [512 / SESSIONS; SESSIONS];
    let (mut backlog, mut fresh, mut published) = (0, 0, 0);
    let mut next_op = |session: usize| {
        if left[session] == 0 {
            return None;
        }
        left[session] -= 1;
        if backlog == 0 || (rng.below(2) == 0 && backlog < MAX_BACKLOG) {
            backlog += 1;
            fresh += 1;
            Some(queue::enqueue(fresh))
        } else {
            backlog -= 1;
            Some(queue::dequeue())
        }
    };
    let mut chooser = Rng(7);
    drive_drv(
        &drv,
        &mut next_op,
        || Some((chooser.below(SESSIONS), true)),
        |tau| {
            published += 1;
            let sketch = sketch_history(tau).expect("DRV views sketch");
            let (verdict, route) = strategy.check_routed(&sketch);
            assert!(verdict.is_member(), "publication {published}: {verdict}");
            assert_eq!(route, Route::Specialized, "publication {published}");
        },
    );
    assert_eq!(published, 512, "one publication per operation");
}

/// A member queue history with operations left pending: 2–5 processes each
/// run 1–6 enqueues of fresh values or dequeues back to back, a sequential
/// queue answers each at a random point inside its window, and the history is
/// cut at a random event from its middle on.
fn random_member_queue_history(rng: &mut Rng) -> History {
    // (time, phase: 0 invoke, 1 take effect, 2 respond, process, operation)
    let mut timeline = Vec::new();
    let mut operations = Vec::new();
    for process in 0..2 + rng.below(4) {
        let mut time = rng.below(5);
        for _ in 0..1 + rng.below(6) {
            let effect = time + 1 + rng.below(6);
            let response = effect + 1 + rng.below(6);
            let id = operations.len();
            let enqueue = rng.below(2) == 0;
            operations.push((process, enqueue.then_some(id as i64 + 1)));
            timeline.extend([0, 1, 2].map(|phase| {
                let at = [time, effect, response][phase];
                (at, phase, process, id)
            }));
            time = response + 1 + rng.below(3);
        }
    }
    timeline.sort_unstable();
    let mut queue = VecDeque::new();
    let mut answers = vec![OpValue::Bool(true); operations.len()];
    for &(_, phase, _, id) in &timeline {
        match (phase, operations[id].1) {
            (1, Some(value)) => queue.push_back(value),
            (1, None) => answers[id] = queue.pop_front().map_or(OpValue::Empty, OpValue::Int),
            _ => {}
        }
    }
    let cut = timeline.len() / 2 + rng.below(timeline.len() / 2 + 1);
    let mut b = HistoryBuilder::new();
    let mut handles = vec![None; operations.len()];
    for &(_, phase, _, id) in &timeline[..cut] {
        let (process, value) = operations[id];
        match phase {
            0 => {
                let op = value.map_or_else(queue::dequeue, queue::enqueue);
                handles[id] = Some(b.invoke(ProcessId::new(process as u32), op));
            }
            2 => b.respond(handles[id].expect("invoked"), answers[id].clone()),
            _ => {}
        }
    }
    b.build()
}

/// Random member histories, most with pending operations, all decide
/// `Member` on the specialized route: an oracle for the queue monitor's
/// constructive phase that does not depend on any recorder's schedule.
#[test]
fn random_member_queue_histories_decide_on_the_specialized_route() {
    let strategy = StrategyChecker::new(QueueSpec::new());
    let mut rng = Rng(0x51);
    for case in 0..10_000 {
        let history = random_member_queue_history(&mut rng);
        let (verdict, route) = strategy.check_routed(&history);
        assert!(verdict.is_member(), "case {case}: {verdict}\n{history}");
        assert_eq!(route, Route::Specialized, "case {case}\n{history}");
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
