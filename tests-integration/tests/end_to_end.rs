//! End-to-end integration tests: black-box implementations → DRV transform →
//! predictive verifier / self-enforced wrappers, across object kinds.

use linrv_check::{GenLinObject, LinSpec};
use linrv_core::drv::Drv;
use linrv_core::enforce::{decide, step, Mode, SelfEnforced};
use linrv_core::verifier::Verifier;
use linrv_history::{OpValue, ProcessId};
use linrv_runtime::faulty::{DuplicatingStack, LossyQueue, StutteringCounter};
use linrv_runtime::impls::{AtomicCounter, CasConsensus, MsQueue, SpecObject, TreiberStack};
use linrv_runtime::{ConcurrentObject, Workload, WorkloadKind};
use linrv_spec::ops;
use linrv_spec::{CounterSpec, PriorityQueueSpec, QueueSpec, SetSpec, StackSpec};
use std::sync::Arc;
use tests_integration::p;

/// Theorem 8.2(2), first half: when `A` is correct, the self-enforced implementation is
/// correct and never returns ERROR — across several object kinds and workloads.
#[test]
fn self_enforced_correct_objects_never_error() {
    // Queue.
    let queue = SelfEnforced::new(MsQueue::new(), LinSpec::new(QueueSpec::new()), 2);
    let workload = Workload::new(WorkloadKind::Queue, 101);
    for (i, op) in workload.operations_for(0, 30).iter().enumerate() {
        let r = queue.apply_verified(p((i % 2) as u32), op);
        assert!(r.is_verified());
    }
    assert!(queue.certificate().is_correct());

    // Stack.
    let stack = SelfEnforced::new(TreiberStack::new(), LinSpec::new(StackSpec::new()), 2);
    let workload = Workload::new(WorkloadKind::Stack, 102);
    for (i, op) in workload.operations_for(1, 30).iter().enumerate() {
        assert!(stack.apply_verified(p((i % 2) as u32), op).is_verified());
    }

    // Counter.
    let counter = SelfEnforced::new(AtomicCounter::new(), LinSpec::new(CounterSpec::new()), 2);
    for _ in 0..10 {
        assert!(counter
            .apply_verified(p(0), &ops::counter::inc())
            .is_verified());
        assert!(counter
            .apply_verified(p(1), &ops::counter::read())
            .is_verified());
    }

    // Set (lock-based universal construction).
    let set = SelfEnforced::new(
        SpecObject::new(SetSpec::new()),
        LinSpec::new(SetSpec::new()),
        2,
    );
    let workload = Workload::new(WorkloadKind::Set, 103);
    for (i, op) in workload.operations_for(0, 30).iter().enumerate() {
        assert!(set.apply_verified(p((i % 2) as u32), op).is_verified());
    }

    // Priority queue (lock-based universal construction).
    let pq = SelfEnforced::new(
        SpecObject::new(PriorityQueueSpec::new()),
        LinSpec::new(PriorityQueueSpec::new()),
        2,
    );
    let workload = Workload::new(WorkloadKind::PriorityQueue, 104);
    for (i, op) in workload.operations_for(0, 30).iter().enumerate() {
        assert!(pq.apply_verified(p((i % 2) as u32), op).is_verified());
    }
}

/// Theorem 8.2(2), second half: when `A` is incorrect, eventually operations return
/// ERROR together with a witness for `A*`, and the certificate records the violation.
#[test]
fn self_enforced_faulty_objects_eventually_error_with_witnesses() {
    type FaultyCase = (
        Box<dyn ConcurrentObject>,
        Box<dyn GenLinObject>,
        WorkloadKind,
    );
    let cases: Vec<FaultyCase> = vec![
        (
            Box::new(LossyQueue::new(3)),
            Box::new(LinSpec::new(QueueSpec::new())),
            WorkloadKind::Queue,
        ),
        (
            Box::new(DuplicatingStack::new(3)),
            Box::new(LinSpec::new(StackSpec::new())),
            WorkloadKind::Stack,
        ),
        (
            Box::new(StutteringCounter::new(3)),
            Box::new(LinSpec::new(CounterSpec::new())),
            WorkloadKind::Counter,
        ),
    ];
    for (object, spec, kind) in cases {
        let name = object.name();
        let enforced = SelfEnforced::new(object, spec, 1);
        let workload = Workload::new(kind, 55);
        let mut saw_error = false;
        for op in workload.operations_for(0, 40) {
            let r = enforced.apply_verified(p(0), &op);
            if !r.is_verified() {
                saw_error = true;
                assert_eq!(r.value, OpValue::Error);
                assert!(r.witness.is_some());
            }
        }
        assert!(saw_error, "{name}: violation never reported");
        assert!(
            !enforced.certificate().is_correct(),
            "{name}: certificate must record the violation"
        );
    }
}

/// Consensus: the verifier checks validity through real-time order — a correct CAS
/// consensus never errors.
#[test]
fn consensus_decisions_are_verified() {
    let enforced = SelfEnforced::new(
        CasConsensus::new(),
        LinSpec::new(linrv_spec::ConsensusSpec::new()),
        3,
    );
    let enforced = Arc::new(enforced);
    let ok = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..3u32 {
            let enforced = Arc::clone(&enforced);
            handles.push(scope.spawn(move || {
                enforced
                    .apply_verified(p(t), &ops::consensus::decide(i64::from(t) + 10))
                    .is_verified()
            }));
        }
        handles.into_iter().all(|h| h.join().unwrap())
    });
    assert!(ok, "correct consensus was flagged");
    assert!(enforced.certificate().is_correct());
}

/// The predictive verifier driven as in Figure 10, concurrently, over a correct and an
/// incorrect implementation (soundness + completeness at system level).
#[test]
fn verifier_full_loop_concurrent_soundness_and_sequential_completeness() {
    // Soundness: 3 threads over a correct queue, each verifying every response.
    let n = 3;
    let drv = Drv::new(MsQueue::new(), n);
    let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), n);
    let workload = Workload::new(WorkloadKind::Queue, 77);
    let (drv, verifier) = (&drv, &verifier);
    let verified: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let ops = workload.operations_for(i, 25);
                scope.spawn(move || {
                    let process = p(i as u32);
                    ops.iter()
                        .map(|op| {
                            let response = drv.apply_drv(process, op);
                            step(verifier, process, response, Mode::Enforce).is_verified()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert!(verified.iter().all(|&ok| ok));
    assert_eq!(verified.len(), 75);

    // Completeness: a lossy queue driven by one process errors and stays in error.
    let drv = Drv::new(LossyQueue::new(2), 1);
    let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), 1);
    let witnesses: Vec<_> = (0..8)
        .map(ops::queue::enqueue)
        .chain((0..8).map(|_| ops::queue::dequeue()))
        .filter_map(|op| step(&verifier, p(0), drv.apply_drv(p(0), &op), Mode::Enforce).witness)
        .collect();
    assert!(!witnesses.is_empty());
    for witness in &witnesses {
        assert!(!LinSpec::new(QueueSpec::new()).contains(witness));
    }
}

/// Decoupled producers/verifier (Figure 12) over correct and faulty queues: a producer
/// is `A*` plus `step(.., Mode::Observe)`, the verifier is `decide`.
#[test]
fn decoupled_roles_split_production_and_verification() {
    fn produce<A: ConcurrentObject, O: GenLinObject>(
        shared: &SelfEnforced<A, O>,
        process: ProcessId,
        op: &linrv_history::Operation,
    ) -> OpValue {
        let response = shared.drv().apply_drv(process, op);
        step(shared.verifier(), process, response, Mode::Observe).value
    }

    let shared = SelfEnforced::new(MsQueue::new(), LinSpec::new(QueueSpec::new()), 2);
    produce(&shared, p(0), &ops::queue::enqueue(1));
    produce(&shared, p(1), &ops::queue::enqueue(2));
    assert_eq!(
        produce(&shared, p(0), &ops::queue::dequeue()),
        OpValue::Int(1)
    );
    assert!(decide(shared.verifier(), p(0)).is_none());

    let shared = SelfEnforced::new(LossyQueue::new(2), LinSpec::new(QueueSpec::new()), 1);
    for i in 0..8 {
        produce(&shared, p(0), &ops::queue::enqueue(i));
    }
    let mut drained = 0;
    while let OpValue::Int(_) = produce(&shared, p(0), &ops::queue::dequeue()) {
        drained += 1;
    }
    assert!(drained < 8);
    assert!(decide(shared.verifier(), p(0)).is_some());
}

/// The verifier works with any snapshot implementation, including the blocking oracle
/// (modularity of the construction with respect to its base objects). The facade
/// exposes the choice as a builder knob; the raw API allows fully custom wiring.
#[test]
fn verifier_is_generic_over_the_snapshot_implementation() {
    use linrv::prelude::*;

    for backend in [SnapshotBackend::Afek, SnapshotBackend::Locked] {
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(2)
            .snapshot(backend)
            .build(MsQueue::new());
        let producer = monitor.register().unwrap();
        let consumer = monitor.register().unwrap();
        producer.enqueue(9).unwrap();
        assert_eq!(consumer.dequeue().unwrap(), Some(9));
        assert!(monitor.certificate().is_correct(), "{backend:?}");
    }

    // Raw escape hatch: mix-and-match snapshot instances across the two arrays.
    use linrv_core::view::{TupleSet, View};
    use linrv_snapshot::{DoubleCollectSnapshot, LockedSnapshot, Snapshot};

    let announcements: Arc<dyn Snapshot<View>> = Arc::new(LockedSnapshot::new(2, View::new()));
    let results: Arc<dyn Snapshot<TupleSet>> =
        Arc::new(DoubleCollectSnapshot::new(2, TupleSet::new()));
    let enforced = SelfEnforced::with_snapshots(
        MsQueue::new(),
        LinSpec::new(QueueSpec::new()),
        announcements,
        results,
    );
    assert!(enforced
        .apply_verified(p(0), &ops::queue::enqueue(9))
        .is_verified());
    assert!(enforced
        .apply_verified(p(1), &ops::queue::dequeue())
        .is_verified());
    assert!(enforced.certificate().is_correct());
}

/// Impossibility (Theorem 5.1) and its predictive variant (Theorem A.1): the executable
/// demo exhibits indistinguishable executions with opposite verdicts.
#[test]
fn impossibility_demo_holds() {
    let demo = linrv_core::impossibility::theorem51_demo();
    assert!(demo.executions_are_indistinguishable());
    assert!(demo.e_violates_linearizability());
    assert!(demo.f_is_linearizable());
}
