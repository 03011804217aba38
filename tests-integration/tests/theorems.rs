//! Integration tests tied to specific numbered statements of the paper.

use linrv_check::genlin::check_closure_on;
use linrv_check::tasks::ConsensusTask;
use linrv_check::{GenLinObject, LinSpec, OneShotTaskObject, SetLinCounterSpec, SetLinSpec};
use linrv_core::enforce::SelfEnforced;
use linrv_history::OpValue;
use linrv_runtime::faulty::{faulty_object, LossyQueue, StutteringCounter};
use linrv_runtime::impls::{AtomicCounter, CasConsensus, MsQueue, SpecObject};
use linrv_runtime::{record_execution, RecorderOptions, Workload, WorkloadKind};
use linrv_spec::ops::{consensus, counter, queue};
use linrv_spec::{ObjectKind, QueueSpec, StackSpec};
use tests_integration::p;

/// Lemma 7.1 (GenLin closure): the linearizability objects used throughout are
/// prefix-closed on real recorded histories of correct implementations.
#[test]
fn lemma_7_1_prefix_closure_on_recorded_histories() {
    let queue = SpecObject::new(QueueSpec::new());
    let run = record_execution(
        &queue,
        Workload::new(WorkloadKind::Queue, 7),
        RecorderOptions {
            processes: 2,
            ops_per_process: 12,
        },
    );
    let object = LinSpec::new(QueueSpec::new());
    assert!(object.contains(&run.history));
    let report = check_closure_on(&object, &run.history, &[]);
    assert!(report.is_clean(), "prefix closure violated: {report:?}");
}

/// Theorem 8.2 (1): the self-enforced wrapper preserves progress — concretely, a
/// bounded number of operations completes without any coordination beyond the wrapped
/// object's own, even when other processes never take part (solo runs terminate).
#[test]
fn theorem_8_2_progress_is_preserved_in_solo_runs() {
    // A 4-process wrapper driven by only one process: if the construction needed help
    // from the other (crashed) processes, this loop would hang. Wait-freedom of the
    // snapshot and verifier code means it terminates.
    let enforced = SelfEnforced::new(MsQueue::new(), LinSpec::new(QueueSpec::new()), 4);
    for i in 0..25 {
        assert!(enforced
            .apply_verified(p(0), &queue::enqueue(i))
            .is_verified());
    }
    for _ in 0..25 {
        assert!(enforced
            .apply_verified(p(0), &queue::dequeue())
            .is_verified());
    }
    assert!(enforced.certificate().is_correct());
}

/// Theorem 8.2 (2): for an incorrect `A`, every execution of `V_{O,A}` is correct up to
/// a prefix after which operations return ERROR — i.e. the certificate's sketch is
/// linearizable right up to the first flagged operation.
#[test]
fn theorem_8_2_certified_prefix_is_correct_until_first_error() {
    let enforced = SelfEnforced::new(LossyQueue::new(3), LinSpec::new(QueueSpec::new()), 1);
    let mut certificates = Vec::new();
    let mut first_error = None;
    let mut step = 0usize;
    for i in 0..5 {
        let r = enforced.apply_verified(p(0), &queue::enqueue(i));
        certificates.push((step, enforced.certificate(), r.is_verified()));
        if first_error.is_none() && !r.is_verified() {
            first_error = Some(step);
        }
        step += 1;
    }
    for _ in 0..6 {
        let r = enforced.apply_verified(p(0), &queue::dequeue());
        certificates.push((step, enforced.certificate(), r.is_verified()));
        if first_error.is_none() && !r.is_verified() {
            first_error = Some(step);
        }
        step += 1;
    }
    let first_error = first_error.expect("the lossy queue must eventually be flagged");
    for (step, certificate, _) in &certificates {
        if *step < first_error {
            assert!(
                certificate.is_correct(),
                "certificate at step {step} (before the first error at {first_error}) must be correct"
            );
        }
    }
    // And after the first error the final certificate records the violation.
    assert!(!certificates.last().unwrap().1.is_correct());
}

/// Theorem 8.2 (3): the certificate produced on request is a history over exactly the
/// operations applied so far, and it can be independently re-checked by a third party
/// using only the public checker.
#[test]
fn theorem_8_2_certificates_are_independently_checkable() {
    let enforced = SelfEnforced::new(MsQueue::new(), LinSpec::new(QueueSpec::new()), 2);
    enforced.apply_verified(p(0), &queue::enqueue(1));
    enforced.apply_verified(p(1), &queue::enqueue(2));
    enforced.apply_verified(p(0), &queue::dequeue());
    let certificate = enforced.certificate();
    assert_eq!(certificate.operations(), 3);
    // Third-party re-check: rebuild the verdict from the certificate alone.
    let third_party = LinSpec::new(QueueSpec::new());
    assert_eq!(
        third_party.contains(&certificate.sketch),
        certificate.is_correct()
    );
}

/// Remark 7.1: a history is linearizable w.r.t. the sequential object iff it belongs to
/// the abstract object of all linearizable histories — i.e. `GenLinObject::contains`
/// and the verdict-level checker agree.
#[test]
fn remark_7_1_membership_and_verdicts_agree() {
    let object = LinSpec::new(StackSpec::new());
    use linrv_history::HistoryBuilder;
    use linrv_spec::ops::stack;
    let mut good = HistoryBuilder::new();
    let a = good.invoke(p(0), stack::push(1));
    let b = good.invoke(p(1), stack::pop());
    good.respond(b, OpValue::Int(1));
    good.respond(a, OpValue::Bool(true));
    let good = good.build();
    let mut bad = HistoryBuilder::new();
    let b = bad.invoke(p(1), stack::pop());
    bad.respond(b, OpValue::Int(1));
    let a = bad.invoke(p(0), stack::push(1));
    bad.respond(a, OpValue::Bool(true));
    let bad = bad.build();

    assert_eq!(object.contains(&good), object.check(&good).is_member());
    assert_eq!(object.contains(&bad), !object.check(&bad).is_violation());
    assert!(object.check(&good).is_member());
    assert!(object.check(&bad).is_violation());
}

/// Section 7 states the verifier for any object of GenLin, not only for
/// linearizability. Set-linearizability (Neiger) is one: the set-linearizable
/// counter lets concurrent `Inc`s share a value, but two `Inc`s ordered in
/// real time must not.
///
/// Drives `V_{O,A}` (Figure 11) over a correct and a faulty counter, two
/// processes taking turns: the correct one is never flagged (Theorem 8.1's
/// soundness), the faulty one is flagged exactly when it returns a repeated
/// value, with a witness the object rejects (completeness), and the sketch
/// certified before that is prefix-closed (Lemma 7.1).
#[test]
fn genlin_set_linearizable_counter_is_verified_through_the_wrapper() {
    let object = || SetLinSpec::new(SetLinCounterSpec);
    let op = |i: u32| {
        if i % 3 == 2 {
            counter::read()
        } else {
            counter::inc()
        }
    };

    let correct = SelfEnforced::new(AtomicCounter::new(), object(), 2);
    for i in 0..12 {
        assert!(
            correct.apply_verified(p(i % 2), &op(i)).is_verified(),
            "op {i}"
        );
    }
    let certificate = correct.certificate();
    assert!(certificate.is_correct() && object().contains(&certificate.sketch));
    let report = check_closure_on(&object(), &certificate.sketch, &[]);
    assert!(report.is_clean(), "prefix closure violated: {report:?}");

    // Loses every second increment: Inc returns 0, then 1, then 1 again.
    let faulty = SelfEnforced::new(StutteringCounter::new(2), object(), 2);
    for i in 0..2 {
        assert!(faulty
            .apply_verified(p(i % 2), &counter::inc())
            .is_verified());
    }
    let before = faulty.certificate();
    let flagged = faulty.apply_verified(p(0), &counter::inc());
    assert_eq!(flagged.underlying, OpValue::Int(1));
    assert_eq!(flagged.value, OpValue::Error);
    let witness = flagged
        .witness
        .expect("a flagged response carries a witness");
    assert!(object().check(&witness).is_violation());
    assert!(before.is_correct() && object().contains(&before.sketch));
    let report = check_closure_on(&object(), &before.sketch, &[]);
    assert!(report.is_clean(), "prefix closure violated: {report:?}");
}

/// Section 9.3: a one-shot task is an interval-sequential object, hence in
/// GenLin, so task solvability is runtime verifiable too. Consensus as a task
/// through `V_{O,A}` (Figure 11), one `Decide` per process: the CAS object is
/// never flagged, a consensus object that corrupts every second decision is
/// flagged on that decision with a witness the task rejects, and the sketches
/// certified correct are prefix-closed (Lemma 7.1).
#[test]
fn genlin_consensus_task_is_verified_through_the_wrapper() {
    const PROCESSES: u32 = 4;
    let object = || OneShotTaskObject::new(ConsensusTask, "Decide");
    let decide = |i: u32| consensus::decide(10 + i64::from(i));

    let correct = SelfEnforced::new(CasConsensus::new(), object(), PROCESSES as usize);
    for i in 0..PROCESSES {
        let response = correct.apply_verified(p(i), &decide(i));
        assert!(response.is_verified(), "process {i}");
        assert_eq!(response.value, OpValue::Int(10));
    }
    let certificate = correct.certificate();
    assert!(certificate.is_correct() && object().contains(&certificate.sketch));
    let report = check_closure_on(&object(), &certificate.sketch, &[]);
    assert!(report.is_clean(), "prefix closure violated: {report:?}");

    // Corrupts every second response: the second process decides 11 + 10⁹.
    let faulty = SelfEnforced::new(
        faulty_object(ObjectKind::Consensus, 2),
        object(),
        PROCESSES as usize,
    );
    assert!(faulty.apply_verified(p(0), &decide(0)).is_verified());
    let before = faulty.certificate();
    let flagged = faulty.apply_verified(p(1), &decide(1));
    assert_eq!(flagged.value, OpValue::Error);
    let witness = flagged
        .witness
        .expect("a flagged response carries a witness");
    assert!(!object().contains(&witness));
    assert!(before.is_correct() && object().contains(&before.sketch));
    let report = check_closure_on(&object(), &before.sketch, &[]);
    assert!(report.is_clean(), "prefix closure violated: {report:?}");
}
