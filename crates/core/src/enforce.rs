//! Self-enforced implementations `V_{O,A}` (Figure 11, Theorem 8.2) and the one
//! publish→verify [`step`] that Figures 11 and 12 share.
//!
//! A self-enforced implementation wraps an arbitrary implementation `A` so that **every
//! non-ERROR response is runtime verified**: each `Apply` first obtains `(y_i, λ_i)`
//! from the `DRV` counterpart `A*`, exchanges the resulting tuple through the
//! verifier's snapshot object, rebuilds the sketch and tests membership. If the sketch
//! is a member of the object, the underlying response is returned; otherwise the
//! operation returns `ERROR` together with the witness.
//!
//! Theorem 8.2: `V_{O,A}` has the same progress condition as `A`; if `A` is correct,
//! `V_{O,A}` is correct (and never returns ERROR); if `A` is incorrect, every execution
//! of `V_{O,A}` is correct up to a prefix after which new operations return ERROR with
//! a witness; and at any time a certificate of the computation so far can be produced.
//!
//! `V_{O,A}` is `A*` followed by one verifier [`step`]; a producer of the decoupled
//! `D_{O,A}` (Figure 12) is `A*` followed by the same step without the membership
//! test, and its verifier loop is [`decide`]. [`Mode`] is that one difference, and
//! every wrapper calls [`step`]. `D_{O,A}` over any object is therefore
//! [`SelfEnforced::drv`] + `step(.., Mode::Observe)` on the producer side and
//! `decide(`[`SelfEnforced::verifier`]`, ..)` on the verifier side, which is what the
//! `linrv` facade's Observe mode runs.

use crate::certificate::Certificate;
use crate::drv::{Drv, DrvResponse};
use crate::verifier::Verifier;
use crate::view::ViewTuple;
use linrv_check::GenLinObject;
use linrv_history::{History, OpValue, Operation, ProcessId};
use linrv_runtime::ConcurrentObject;
use linrv_snapshot::Snapshot;
use linrv_spec::ObjectKind;
use std::sync::Arc;

/// The typed response of a self-enforced operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnforcedResponse {
    /// The value returned to the caller: the underlying response when verification
    /// succeeded, [`OpValue::Error`] otherwise.
    pub value: OpValue,
    /// The underlying implementation's response (always available, even on ERROR).
    pub underlying: OpValue,
    /// The witness history, when verification failed.
    pub witness: Option<History>,
}

impl EnforcedResponse {
    /// Returns `true` when the response was verified correct.
    pub fn is_verified(&self) -> bool {
        self.witness.is_none()
    }
}

/// Whether verification gates responses or merely observes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Self-enforced (Figure 11): the membership test runs on the critical path
    /// of every operation and incorrect responses are replaced by a rejection
    /// carrying a witness. The default.
    #[default]
    Enforce,
    /// Verifier-only (Figure 12, decoupled): operations publish their view tuples
    /// and return immediately; verdicts are computed asynchronously by [`decide`]
    /// (the facade's `Monitor::check`). A violation may thus be observed only
    /// after the offending response was already returned.
    Observe,
}

/// Decides the computation published so far (Figure 10, Lines 08–12; Figure 12,
/// verifier code): `None` when the sketch is a member of the object, else the witness.
///
/// The step continues the verifier's sketch from its stable prefix ([`crate::verifier`]
/// module docs), so it sorts, checks and sketches only the tuples above that prefix,
/// and decides from the sketch's settled cut: for a queue, the membership test reads
/// the cut's base and the records invoked since it, not all of `X(τ)`. It
/// takes the sketch with `try_lock` and scans `M` while holding it. When another step
/// holds the sketch (a `Monitor::check` racing a process's step), or when `τ` does not
/// extend the prefix (a forged `record`, which also resets the sketch), the step
/// decides from scratch through [`Verifier::audit`] instead of waiting. Either way the
/// verdict and the witness are those of `sketch_history(τ)` and the membership test,
/// byte for byte.
///
/// # Panics
///
/// Panics when the published tuples violate the view properties of Remark 7.2 (the
/// [`Audit`](crate::verifier::Audit)'s `sketch` is an error), here and nowhere else: a
/// `DRV` wrapper over a linearizable snapshot cannot produce them, so the shared state
/// was corrupted.
pub fn decide<O: GenLinObject>(verifier: &Verifier<O>, scanner: ProcessId) -> Option<History> {
    match verifier.verdict(scanner) {
        Ok(witness) => witness,
        Err(err) => panic!(
            "invariant broken: a DRV wrapper over a linearizable snapshot cannot \
             produce views that violate Remark 7.2, yet the published tuples do: {err}"
        ),
    }
}

/// The publish→verify step on a collected response of `A*`: the tuple is recorded in
/// `res_i` and published; under [`Mode::Enforce`] (Figure 11, Lines 05–11) the process
/// then [`decide`]s and a failed test replaces the response by `ERROR` with the
/// witness, under [`Mode::Observe`] (Figure 12, producer code) it is returned as it is.
///
/// The response's pair and view move into the recorded tuple, so a step clones only
/// the response value; no view or pair is copied.
///
/// # Panics
///
/// Panics when `process` is out of the verifier's range, and as [`decide`] does.
pub fn step<O: GenLinObject>(
    verifier: &Verifier<O>,
    process: ProcessId,
    response: DrvResponse,
    mode: Mode,
) -> EnforcedResponse {
    let DrvResponse { pair, value, view } = response;
    verifier.record(process, ViewTuple::new(pair, value.clone(), view));
    let witness = match mode {
        Mode::Enforce => decide(verifier, process),
        Mode::Observe => None,
    };
    EnforcedResponse {
        value: match witness {
            None => value.clone(),
            Some(_) => OpValue::Error,
        },
        underlying: value,
        witness,
    }
}

/// A self-enforced implementation: `A` wrapped into `A*` plus an embedded predictive
/// verifier, so that its responses verify themselves (Figure 11).
pub struct SelfEnforced<A, O> {
    drv: Drv<A>,
    verifier: Verifier<O>,
}

impl<A: ConcurrentObject, O: GenLinObject> SelfEnforced<A, O> {
    /// Wraps `inner` for a system of `processes` processes, verifying against `object`.
    pub fn new(inner: A, object: O, processes: usize) -> Self {
        SelfEnforced {
            drv: Drv::new(inner, processes),
            verifier: Verifier::new(object, processes),
        }
    }

    /// Wraps `inner` with explicit snapshot implementations for the announcement array
    /// (`N` of Figure 7) and the result array (`M` of Figures 10–11).
    pub fn with_snapshots(
        inner: A,
        object: O,
        announcements: Arc<dyn Snapshot<crate::view::View>>,
        results: Arc<dyn Snapshot<crate::view::TupleSet>>,
    ) -> Self {
        SelfEnforced {
            drv: Drv::with_snapshot(inner, announcements),
            verifier: Verifier::with_snapshot(object, results),
        }
    }

    /// Number of processes the wrapper was created for.
    pub fn processes(&self) -> usize {
        self.drv.processes()
    }

    /// The wrapped implementation.
    pub fn inner(&self) -> &A {
        self.drv.inner()
    }

    /// The embedded verifier (exposed for experiments).
    pub fn verifier(&self) -> &Verifier<O> {
        &self.verifier
    }

    /// The embedded `DRV` wrapper. Its [`Drv::registry`] leases process slots valid for
    /// the embedded verifier too (they share one id space).
    pub fn drv(&self) -> &Drv<A> {
        &self.drv
    }

    /// Applies an operation and returns the typed, self-verified response
    /// (Figure 11, Lines 01–11).
    ///
    /// # Panics
    ///
    /// Panics when `process` is outside the range the wrapper was created for.
    pub fn apply_verified(&self, process: ProcessId, op: &Operation) -> EnforcedResponse {
        let response = self.drv.apply_drv(process, op);
        step(&self.verifier, process, response, Mode::Enforce)
    }

    /// Produces a certificate of the computation so far (Theorem 8.2 (3)): the visible
    /// tuples, the sketch history they encode — similar to the actual history of the
    /// implementation at the moment of the request — and the verdict.
    pub fn certificate(&self) -> Certificate {
        let audit = self.verifier.audit(ProcessId::new(0));
        Certificate {
            object: self.verifier.object().description(),
            implementation: self.drv.inner().name(),
            tuples: audit.tuples,
            sketch: audit.sketch.unwrap_or_default(),
            correct: audit.member,
        }
    }
}

impl<A: ConcurrentObject, O: GenLinObject> ConcurrentObject for SelfEnforced<A, O> {
    fn kind(&self) -> ObjectKind {
        self.drv.inner().kind()
    }

    fn apply(&self, process: ProcessId, op: &Operation) -> OpValue {
        self.apply_verified(process, op).value
    }

    fn name(&self) -> String {
        format!("self-enforced {}", self.drv.inner().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_check::LinSpec;
    use linrv_runtime::faulty::{DuplicatingStack, LossyQueue, StaleRegister};
    use linrv_runtime::impls::{AtomicIntRegister, MsQueue, TreiberStack};
    use linrv_runtime::{Workload, WorkloadKind};
    use linrv_spec::ops::{queue, register, stack};
    use linrv_spec::{QueueSpec, RegisterSpec, StackSpec};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// A producer operation of `D_{O,A}` (Figure 12): `A*`, then publish the tuple
    /// and return the response without the membership test.
    fn produce<A: ConcurrentObject, O: GenLinObject>(
        shared: &SelfEnforced<A, O>,
        process: ProcessId,
        op: &Operation,
    ) -> OpValue {
        let response = shared.drv().apply_drv(process, op);
        step(shared.verifier(), process, response, Mode::Observe).value
    }

    #[test]
    fn correct_queue_responses_are_passed_through_verified() {
        let enforced = SelfEnforced::new(MsQueue::new(), LinSpec::new(QueueSpec::new()), 2);
        assert_eq!(
            enforced.apply(p(0), &queue::enqueue(5)),
            OpValue::Bool(true)
        );
        assert_eq!(enforced.apply(p(1), &queue::dequeue()), OpValue::Int(5));
        assert_eq!(enforced.apply(p(0), &queue::dequeue()), OpValue::Empty);
        let cert = enforced.certificate();
        assert!(cert.is_correct());
        assert_eq!(cert.operations(), 3);
        assert!(enforced.name().contains("self-enforced"));
        assert_eq!(enforced.kind(), linrv_spec::ObjectKind::Queue);
    }

    #[test]
    fn lossy_queue_eventually_returns_error_with_witness() {
        let enforced = SelfEnforced::new(LossyQueue::new(2), LinSpec::new(QueueSpec::new()), 1);
        let mut saw_error = false;
        for i in 0..6 {
            enforced.apply_verified(p(0), &queue::enqueue(i));
        }
        for _ in 0..6 {
            let r = enforced.apply_verified(p(0), &queue::dequeue());
            if !r.is_verified() {
                saw_error = true;
                assert_eq!(r.value, OpValue::Error);
                let witness = r.witness.as_ref().unwrap();
                assert!(!LinSpec::new(QueueSpec::new()).contains(witness));
            }
        }
        assert!(saw_error);
        let cert = enforced.certificate();
        assert!(!cert.is_correct());
        assert!(cert.render().contains("VIOLATION"));
    }

    #[test]
    fn duplicating_stack_is_caught() {
        let enforced =
            SelfEnforced::new(DuplicatingStack::new(2), LinSpec::new(StackSpec::new()), 1);
        enforced.apply_verified(p(0), &stack::push(1));
        enforced.apply_verified(p(0), &stack::push(2));
        let mut saw_error = false;
        for _ in 0..4 {
            if !enforced.apply_verified(p(0), &stack::pop()).is_verified() {
                saw_error = true;
            }
        }
        assert!(saw_error, "duplicated pop was never reported");
    }

    #[test]
    fn stale_register_is_caught() {
        let enforced =
            SelfEnforced::new(StaleRegister::new(2), LinSpec::new(RegisterSpec::new()), 1);
        enforced.apply_verified(p(0), &register::write(1));
        enforced.apply_verified(p(0), &register::write(2));
        let mut saw_error = false;
        for _ in 0..4 {
            if !enforced
                .apply_verified(p(0), &register::read())
                .is_verified()
            {
                saw_error = true;
            }
        }
        assert!(saw_error, "stale read was never reported");
    }

    #[test]
    fn correct_register_is_never_flagged() {
        let enforced = SelfEnforced::new(
            AtomicIntRegister::new(),
            LinSpec::new(RegisterSpec::new()),
            2,
        );
        for i in 0..10 {
            assert!(enforced
                .apply_verified(p((i % 2) as u32), &register::write(i))
                .is_verified());
            assert!(enforced
                .apply_verified(p(((i + 1) % 2) as u32), &register::read())
                .is_verified());
        }
        assert!(enforced.certificate().is_correct());
    }

    #[test]
    fn multithreaded_correct_stack_never_errors() {
        let enforced = std::sync::Arc::new(SelfEnforced::new(
            TreiberStack::new(),
            LinSpec::new(StackSpec::new()),
            3,
        ));
        let workload = Workload::new(WorkloadKind::Stack, 31);
        let any_error = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..3usize {
                let enforced = std::sync::Arc::clone(&enforced);
                let ops = workload.operations_for(t, 20);
                handles.push(scope.spawn(move || {
                    ops.iter()
                        .any(|op| !enforced.apply_verified(p(t as u32), op).is_verified())
                }));
            }
            handles.into_iter().any(|h| h.join().unwrap())
        });
        assert!(!any_error, "false alarm on a correct stack");
        assert!(enforced.certificate().is_correct());
    }

    #[test]
    fn decoupled_producers_return_immediately_and_verifier_confirms_correct_runs() {
        let shared = SelfEnforced::new(MsQueue::new(), LinSpec::new(QueueSpec::new()), 2);
        assert_eq!(
            produce(&shared, p(0), &queue::enqueue(1)),
            OpValue::Bool(true)
        );
        assert_eq!(produce(&shared, p(1), &queue::dequeue()), OpValue::Int(1));
        assert!((0..3).all(|_| decide(shared.verifier(), p(0)).is_none()));
        assert_eq!(shared.processes(), 2);
        assert!(shared.verifier().object().description().contains("queue"));
    }

    #[test]
    fn decoupled_verifier_eventually_detects_a_lossy_queue() {
        let shared = SelfEnforced::new(LossyQueue::new(2), LinSpec::new(QueueSpec::new()), 1);
        for i in 0..6 {
            produce(&shared, p(0), &queue::enqueue(i));
        }
        for _ in 0..6 {
            produce(&shared, p(0), &queue::dequeue());
        }
        let witness = decide(shared.verifier(), p(0)).expect("violation never detected");
        assert!(!LinSpec::new(QueueSpec::new()).contains(&witness));
    }

    #[test]
    fn decoupled_concurrent_producers_with_background_verifier() {
        let shared = SelfEnforced::new(MsQueue::new(), LinSpec::new(QueueSpec::new()), 3);
        let workload = Workload::new(WorkloadKind::Queue, 37);
        let verifier_errors = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..3usize {
                let shared = &shared;
                let ops = workload.operations_for(t, 15);
                handles.push(scope.spawn(move || {
                    for op in &ops {
                        produce(shared, p(t as u32), op);
                    }
                }));
            }
            // The verifier runs concurrently with the producers.
            let errors = (0..20)
                .filter_map(|_| decide(shared.verifier(), p(0)))
                .count();
            for h in handles {
                h.join().unwrap();
            }
            errors
        });
        // Concurrent verification of a correct queue must not raise false alarms, and a
        // final check over the complete run must also pass.
        assert_eq!(verifier_errors, 0);
        assert!(decide(shared.verifier(), p(0)).is_none());
    }
}
