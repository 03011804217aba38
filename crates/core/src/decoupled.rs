//! Decoupled self-enforced implementations `D_{O,A}` (Figure 12, Section 9.2).
//!
//! In the coupled construction (Figure 11) every process both produces responses and
//! verifies them, paying the membership test on its critical path. The decoupled
//! variant splits the roles: **producers** obtain responses from `A*` and publish the
//! resulting view tuples in the shared snapshot `M`, returning the response immediately;
//! **verifiers** run a separate loop that scans `M`, rebuilds the sketch and reports
//! `ERROR` with a witness when it is not a member of the object.
//!
//! Both roles are handles on one [`SelfEnforced`]: a producer operation is `A*`
//! followed by [`step`] under [`Mode::Observe`], a verifier iteration is
//! [`Verifier::verdict_from_scan`](crate::verifier::Verifier::verdict_from_scan). The
//! `linrv` facade's Observe mode is the same two calls.
//!
//! As the paper notes, `D_{O,A}` may return responses that are later found incorrect
//! (verification lags production), but every violation is eventually detected as long as
//! not all verifiers crash.

use crate::enforce::{decide, step, Mode, SelfEnforced};
use crate::verifier::VerifierOutcome;
use linrv_check::GenLinObject;
use linrv_history::{History, OpValue, Operation, ProcessId};
use linrv_runtime::ConcurrentObject;
use linrv_spec::ObjectKind;
use std::sync::Arc;

/// The producer side of `D_{O,A}`: a concurrent object whose operations are served by
/// `A*` and whose view tuples are published for asynchronous verification
/// (Figure 12, producer code).
pub struct DecoupledProducer<A, O> {
    shared: Arc<SelfEnforced<A, O>>,
}

impl<A: ConcurrentObject, O: GenLinObject> DecoupledProducer<A, O> {
    /// The `A*` and verifier state both roles share: the wrapped implementation, the
    /// process slots and a certificate of everything published so far.
    pub fn shared(&self) -> &SelfEnforced<A, O> {
        &self.shared
    }
}

impl<A: ConcurrentObject, O: GenLinObject> ConcurrentObject for DecoupledProducer<A, O> {
    fn kind(&self) -> ObjectKind {
        self.shared.kind()
    }

    /// Obtain `(y, λ)` from `A*`, publish the tuple, return `y` immediately
    /// (Lines 01–05 of Figure 12).
    fn apply(&self, process: ProcessId, op: &Operation) -> OpValue {
        let response = self.shared.drv().apply_drv(process, op);
        step(self.shared.verifier(), process, response, Mode::Observe).value
    }

    fn name(&self) -> String {
        format!("decoupled producer over {}", self.shared.inner().name())
    }
}

/// The verifier side of `D_{O,A}`: scans the published tuples and checks the sketch
/// (Figure 12, verifier code).
pub struct DecoupledVerifier<A, O> {
    shared: Arc<SelfEnforced<A, O>>,
}

impl<A: ConcurrentObject, O: GenLinObject> DecoupledVerifier<A, O> {
    /// One iteration of the verifier loop (Lines 07–11): scan, rebuild, test.
    pub fn check_once(&self) -> VerifierOutcome {
        self.shared.verifier().verdict_from_scan(ProcessId::new(0))
    }

    /// Runs `rounds` verification iterations and returns the witnesses of all rounds
    /// that reported `ERROR`.
    pub fn run(&self, rounds: usize) -> Vec<History> {
        (0..rounds)
            .filter_map(|_| decide(self.shared.verifier(), ProcessId::new(0)))
            .collect()
    }

    /// The abstract object being verified against.
    pub fn object(&self) -> &O {
        self.shared.verifier().object()
    }
}

/// Builds a decoupled self-enforced implementation: `producers` processes may invoke
/// the returned producer object; any number of verifier threads may share the returned
/// verifier.
pub fn decoupled<A: ConcurrentObject, O: GenLinObject>(
    inner: A,
    object: O,
    producers: usize,
) -> (DecoupledProducer<A, O>, DecoupledVerifier<A, O>) {
    let shared = Arc::new(SelfEnforced::new(inner, object, producers));
    let producer = DecoupledProducer {
        shared: Arc::clone(&shared),
    };
    (producer, DecoupledVerifier { shared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_check::LinSpec;
    use linrv_runtime::faulty::LossyQueue;
    use linrv_runtime::impls::MsQueue;
    use linrv_runtime::{Workload, WorkloadKind};
    use linrv_spec::ops::queue;
    use linrv_spec::QueueSpec;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn producers_return_immediately_and_verifier_confirms_correct_runs() {
        let (producer, verifier) = decoupled(MsQueue::new(), LinSpec::new(QueueSpec::new()), 2);
        assert_eq!(
            producer.apply(p(0), &queue::enqueue(1)),
            OpValue::Bool(true)
        );
        assert_eq!(producer.apply(p(1), &queue::dequeue()), OpValue::Int(1));
        assert!(verifier.check_once().is_ok());
        assert!(verifier.run(3).is_empty());
        assert!(producer.name().contains("decoupled"));
        assert_eq!(producer.kind(), ObjectKind::Queue);
        assert_eq!(producer.shared().processes(), 2);
        assert!(verifier.object().description().contains("queue"));
    }

    #[test]
    fn verifier_eventually_detects_a_lossy_queue() {
        let (producer, verifier) = decoupled(LossyQueue::new(2), LinSpec::new(QueueSpec::new()), 1);
        for i in 0..6 {
            producer.apply(p(0), &queue::enqueue(i));
        }
        for _ in 0..6 {
            producer.apply(p(0), &queue::dequeue());
        }
        let witnesses = verifier.run(2);
        assert!(!witnesses.is_empty(), "violation never detected");
        assert!(!LinSpec::new(QueueSpec::new()).contains(&witnesses[0]));
    }

    #[test]
    fn concurrent_producers_with_background_verifier() {
        let (producer, verifier) = decoupled(MsQueue::new(), LinSpec::new(QueueSpec::new()), 3);
        let producer = Arc::new(producer);
        let workload = Workload::new(WorkloadKind::Queue, 37);
        let verifier_errors = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..3usize {
                let producer = Arc::clone(&producer);
                let ops = workload.operations_for(t, 15);
                handles.push(scope.spawn(move || {
                    for op in &ops {
                        producer.apply(p(t as u32), op);
                    }
                }));
            }
            // The verifier runs concurrently with the producers.
            let errors = verifier.run(20);
            for h in handles {
                h.join().unwrap();
            }
            errors
        });
        // Concurrent verification of a correct queue must not raise false alarms, and a
        // final check over the complete run must also pass.
        assert!(verifier_errors.is_empty());
        assert!(verifier.check_once().is_ok());
    }
}
