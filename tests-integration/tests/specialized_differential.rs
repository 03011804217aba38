//! Differential tests for the specialized log-linear monitors: on recorded
//! executions and on the sketches `X(τ)` a monitor's verifier step decides —
//! correct and fault-injected, across every covered object kind — the
//! [`StrategyChecker`] must agree with the general Wing–Gong search, and
//! ambiguous histories must take the documented fallback route.

use linrv_check::{FallbackReason, LinSpec, Route, StrategyChecker};
use linrv_core::drv::{Announced, Drv};
use linrv_core::sketch::sketch_history;
use linrv_core::view::{TupleSet, ViewTuple};
use linrv_history::{History, HistoryBuilder, OpValue, ProcessId};
use linrv_runtime::{faulty, impls, record_scheduled, RecorderOptions, Workload, WorkloadKind};
use linrv_spec::ops::{queue, stack};
use linrv_spec::{
    CounterSpec, ObjectKind, PriorityQueueSpec, QueueSpec, RegisterSpec, SequentialSpec, SetSpec,
    StackSpec,
};
use proptest::prelude::*;

const COVERED_KINDS: [ObjectKind; 6] = [
    ObjectKind::Queue,
    ObjectKind::Stack,
    ObjectKind::Set,
    ObjectKind::PriorityQueue,
    ObjectKind::Counter,
    ObjectKind::Register,
];

/// Records one deterministic execution: the kind's canonical concurrent
/// implementation, or its fault injector corrupting every `every`-th apply.
fn record(kind: ObjectKind, seed: u64, faulty_every: Option<u64>) -> History {
    let object = match faulty_every {
        Some(every) => faulty::faulty_object(kind, every),
        None => impls::correct_object(kind),
    };
    let workload = Workload::new(WorkloadKind::for_object(kind), seed);
    let options = RecorderOptions {
        processes: 3,
        ops_per_process: 12,
    };
    record_scheduled(&*object, workload, options, seed ^ 0x5EED_D1FF).history
}

/// Checks `history` both ways and asserts the verdicts agree; returns the
/// strategy route actually taken.
fn differential<S: SequentialSpec + Copy>(spec: S, history: &History) -> Route {
    let general = LinSpec::new(spec).check(history);
    let (routed, route) = StrategyChecker::new(spec).check_routed(history);
    assert_eq!(
        routed.is_violation(),
        general.is_violation(),
        "strategy dispatch ({route:?}) disagrees with the general search",
    );
    route
}

fn differential_for(kind: ObjectKind, history: &History) -> Route {
    match kind {
        ObjectKind::Queue => differential(QueueSpec::new(), history),
        ObjectKind::Stack => differential(StackSpec::new(), history),
        ObjectKind::Set => differential(SetSpec::new(), history),
        ObjectKind::PriorityQueue => differential(PriorityQueueSpec::new(), history),
        ObjectKind::Counter => differential(CounterSpec::new(), history),
        ObjectKind::Register => differential(RegisterSpec::new(), history),
        other => panic!("kind {other} is not covered by a specialized monitor"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Verdict equality over seeded recorded workloads, correct and faulty,
    /// for every kind with a specialized monitor. Workload values are
    /// globally unique per process, so correct collection histories exercise
    /// the unambiguous fast path rather than falling back.
    #[test]
    fn specialized_and_general_verdicts_agree_on_recorded_histories(
        seed in 0..10_000u64,
        kind_index in 0..COVERED_KINDS.len(),
        inject_faults in any::<bool>(),
    ) {
        let kind = COVERED_KINDS[kind_index];
        let history = record(kind, seed, inject_faults.then_some(5));
        differential_for(kind, &history);
    }
}

/// Where one process of a seeded DRV schedule is in its current operation.
enum Phase {
    Idle,
    Announced(Announced),
    Called(Announced, OpValue),
    Collected(ViewTuple),
}

/// The sketches `X(τ)` a monitor's verifier decides on one seeded DRV schedule
/// over `kind`'s implementation (its fault injector when `faulty_every` is
/// set): one after every publication. A process publishes its own tuple before
/// it announces again, as a `Session` does; the other processes announce, call
/// and collect in between, so a sketch carries their announced, uncollected
/// operations as pending ones.
fn drv_sketches(
    kind: ObjectKind,
    seed: u64,
    processes: usize,
    faulty_every: Option<u64>,
) -> Vec<History> {
    const OPS_PER_PROCESS: usize = 5;
    let object = match faulty_every {
        Some(every) => faulty::faulty_object(kind, every),
        None => impls::correct_object(kind),
    };
    let drv = Drv::new(object, processes);
    let workload = Workload::new(WorkloadKind::for_object(kind), seed);
    let mut plans: Vec<_> = (0..processes)
        .map(|process| {
            workload
                .operations_for(process, OPS_PER_PROCESS)
                .into_iter()
        })
        .collect();
    let mut phases: Vec<Phase> = (0..processes).map(|_| Phase::Idle).collect();
    let mut rng = seed ^ 0x5CE7_C4ED;
    let mut published = TupleSet::new();
    let mut sketches = Vec::new();
    loop {
        let movable: Vec<usize> = (0..processes)
            .filter(|&i| !matches!(phases[i], Phase::Idle) || plans[i].len() > 0)
            .collect();
        if movable.is_empty() {
            return sketches;
        }
        // xorshift64: the schedule is a pure function of the seed.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let index = movable[(rng % movable.len() as u64) as usize];
        phases[index] = match std::mem::replace(&mut phases[index], Phase::Idle) {
            Phase::Idle => {
                let op = plans[index]
                    .next()
                    .expect("a movable idle process has an op");
                Phase::Announced(drv.announce(ProcessId::new(index as u32), &op))
            }
            Phase::Announced(announced) => {
                let value = drv.call_inner(&announced);
                Phase::Called(announced, value)
            }
            Phase::Called(announced, value) => {
                Phase::Collected(drv.collect(announced, value).tuple())
            }
            Phase::Collected(tuple) => {
                published.insert(tuple);
                sketches.push(sketch_history(&published).expect("DRV views sketch"));
                Phase::Idle
            }
        };
    }
}

/// Sketch-shaped inputs: every sketch of seeded DRV schedules, correct and
/// faulty, 1–5 processes, gets the same verdict from both procedures. Every
/// kind is decided by its specialized monitor at least once, and so is a
/// queue sketch with a pending operation.
#[test]
fn specialized_and_general_verdicts_agree_on_drv_sketches() {
    for kind in COVERED_KINDS {
        let mut specialized = 0;
        let mut specialized_with_pending = 0;
        for seed in 0..8u64 {
            for processes in 1..=5 {
                for faulty_every in [None, Some(2), Some(3), Some(5)] {
                    for sketch in drv_sketches(kind, seed, processes, faulty_every) {
                        if differential_for(kind, &sketch) == Route::Specialized {
                            specialized += 1;
                            let pending = sketch.operations().iter().any(|op| !op.is_complete());
                            specialized_with_pending += usize::from(pending);
                        }
                    }
                }
            }
        }
        assert!(
            specialized > 0,
            "no {kind} sketch took the specialized route"
        );
        if kind == ObjectKind::Queue {
            assert!(
                specialized_with_pending > 0,
                "no queue sketch with a pending operation took the specialized route"
            );
        }
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
