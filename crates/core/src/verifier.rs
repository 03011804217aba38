//! The wait-free predictive verifier `V_O` (Figure 10, Theorem 8.1).
//!
//! Each process, after completing an operation of an `A* ∈ DRV` and obtaining its
//! `(y_i, λ_i)` response, runs one verifier step ([`enforce::step`](crate::enforce::step)):
//! it adds the resulting 4-tuple to its persistent result set `res_i`
//! ([`Verifier::record`]), publishes it in the shared snapshot object `M`, takes a
//! snapshot, unions all entries into `τ_i`, rebuilds the sketch `X(τ_i)` and locally
//! tests membership in the abstract object `O` ([`Verifier::audit`]). If the sketch is
//! not a member, the process reports `ERROR` together with `X(τ_i)` — which, by Lemma
//! 8.1, *is* a history of `A*`, i.e. a genuine witness.
//!
//! Guarantees (Theorem 8.1), exercised in the integration tests and experiments:
//!
//! * **Efficiency** — only read/write base objects (through the snapshot), `O(n)` step
//!   complexity per loop iteration plus the local membership test.
//! * **Predictive soundness** — every reported `ERROR` carries a witness history of
//!   `A*`.
//! * **Soundness for correct executions of `A`** — if `A`'s history is correct, no
//!   process ever reports `ERROR`.
//! * **Completeness and stability** — if `A*`'s history is incorrect, eventually every
//!   new observation reports `ERROR`.

use crate::shared::SharedSets;
use crate::sketch::{sketch_history, SketchError};
use crate::view::{TupleSet, ViewTuple};
use linrv_check::GenLinObject;
use linrv_history::{History, ProcessId};
use linrv_snapshot::{AfekSnapshot, Snapshot};
use std::sync::Arc;

/// What one scan of `M` tells a process (Figure 10, Lines 08–11). Every verdict,
/// sketch and certificate is a projection of one audit.
#[derive(Debug)]
pub struct Audit {
    /// The union `τ` of all result sets read by the scan.
    pub tuples: TupleSet,
    /// The sketch `X(τ)`, or why `τ` violates the view properties of Remark 7.2.
    pub sketch: Result<History, SketchError>,
    /// Whether the sketch exists and is a member of the object.
    pub member: bool,
}

/// The wait-free predictive verifier `V_O` for an object `O ∈ GenLin` and
/// implementations `A* ∈ DRV`.
pub struct Verifier<O> {
    object: O,
    /// The shared array `M` of Figure 10; entry `i` holds `res_i`.
    results: SharedSets<TupleSet>,
}

impl<O: GenLinObject> Verifier<O> {
    /// Creates a verifier for `processes` processes using the wait-free
    /// [`AfekSnapshot`].
    pub fn new(object: O, processes: usize) -> Self {
        Self::with_snapshot(
            object,
            Arc::new(AfekSnapshot::new(processes, TupleSet::new())),
        )
    }

    /// Creates a verifier with an explicit snapshot implementation.
    pub fn with_snapshot(object: O, snapshot: Arc<dyn Snapshot<TupleSet>>) -> Self {
        Verifier {
            object,
            results: SharedSets::new(snapshot),
        }
    }

    /// The abstract object being verified against.
    pub fn object(&self) -> &O {
        &self.object
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.results.processes()
    }

    /// Records the tuple obtained from `A*` in `res_i` and publishes it through the
    /// snapshot (Figure 10, Lines 06–07), *without* computing a verdict. This is
    /// all a producer of `D_{O,A}` does (Figure 12).
    /// [`enforce::step`](crate::enforce::step) calls it, followed under `Mode::Enforce`
    /// by [`enforce::decide`](crate::enforce::decide).
    ///
    /// # Panics
    ///
    /// Panics when `process` is outside the range the verifier was created for.
    pub fn record(&self, process: ProcessId, tuple: ViewTuple) {
        self.results.add(process, tuple);
    }

    /// The union `τ` of all result sets currently readable from `M`.
    pub fn collect_tuples(&self, scanner: ProcessId) -> TupleSet {
        self.results.union(scanner)
    }

    /// Scan, sketch, membership (Figure 10, Lines 08–11) without contributing a tuple.
    pub fn audit(&self, scanner: ProcessId) -> Audit {
        let tuples = self.collect_tuples(scanner);
        let sketch = sketch_history(&tuples);
        let member = matches!(&sketch, Ok(sketch) if self.object.contains(sketch));
        Audit {
            tuples,
            sketch,
            member,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drv::Drv;
    use crate::enforce::{step, EnforcedResponse, Mode};
    use linrv_check::LinSpec;
    use linrv_history::Operation;
    use linrv_runtime::faulty::{LossyQueue, StutteringCounter, Theorem51Queue};
    use linrv_runtime::impls::{AtomicCounter, MsQueue, SpecObject, TreiberStack};
    use linrv_runtime::{ConcurrentObject, Workload, WorkloadKind};
    use linrv_spec::ops::queue;
    use linrv_spec::{CounterSpec, QueueSpec, StackSpec};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Figure 10 from one scoped thread per process: process `i` applies `ops(i)` to
    /// `A*` and verifies every response. Returns every process's responses.
    fn run_threads<A: ConcurrentObject, O: GenLinObject>(
        drv: &Drv<A>,
        verifier: &Verifier<O>,
        ops: impl Fn(usize) -> Vec<Operation> + Sync,
    ) -> Vec<EnforcedResponse> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..verifier.processes())
                .map(|i| {
                    let ops = &ops;
                    scope.spawn(move || {
                        let process = p(i as u32);
                        ops(i)
                            .iter()
                            .map(|op| {
                                step(verifier, process, drv.apply_drv(process, op), Mode::Enforce)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    }

    #[test]
    fn observing_correct_sequential_usage_reports_no_error() {
        let drv = Drv::new(SpecObject::new(QueueSpec::new()), 2);
        let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), 2);
        for (proc_index, op) in [
            (0, queue::enqueue(1)),
            (1, queue::dequeue()),
            (0, queue::dequeue()),
        ] {
            let r = drv.apply_drv(p(proc_index), &op);
            assert!(step(&verifier, p(proc_index), r, Mode::Enforce).is_verified());
        }
        assert!(verifier.audit(p(0)).sketch.unwrap().is_sequential());
        assert_eq!(verifier.processes(), 2);
    }

    #[test]
    fn completeness_detected_violation_carries_a_witness() {
        // Tight interleaving over the Theorem 5.1 queue: p2's dequeue completes
        // entirely before p1's enqueue is announced, so the violation is visible.
        let drv = Drv::new(Theorem51Queue::new(p(1)), 2);
        let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), 2);

        let deq = drv.announce(p(1), &queue::dequeue());
        let deq_value = drv.call_inner(&deq);
        let deq_resp = drv.collect(deq, deq_value);
        assert!(!step(&verifier, p(1), deq_resp, Mode::Enforce).is_verified());

        let enq = drv.apply_drv(p(0), &queue::enqueue(1));
        let outcome = step(&verifier, p(0), enq, Mode::Enforce);
        let witness = outcome.witness.expect("stability: error persists");
        // The witness is itself a non-linearizable history of A* (predictive soundness).
        assert!(!LinSpec::new(QueueSpec::new()).contains(&witness));
    }

    #[test]
    fn soundness_multi_threaded_correct_queue_never_errors() {
        let n = 3;
        let drv = Drv::new(MsQueue::new(), n);
        let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), n);
        let workload = Workload::new(WorkloadKind::Queue, 17);
        let run = run_threads(&drv, &verifier, |i| workload.operations_for(i, 20));
        assert!(
            run.iter().all(EnforcedResponse::is_verified),
            "false alarm on a correct queue"
        );
        assert_eq!(run.len(), 60);
    }

    #[test]
    fn soundness_multi_threaded_correct_stack_never_errors() {
        let n = 2;
        let drv = Drv::new(TreiberStack::new(), n);
        let verifier = Verifier::new(LinSpec::new(StackSpec::new()), n);
        let workload = Workload::new(WorkloadKind::Stack, 23);
        let run = run_threads(&drv, &verifier, |i| workload.operations_for(i, 25));
        assert!(
            run.iter().all(EnforcedResponse::is_verified),
            "false alarm on a correct stack"
        );
    }

    #[test]
    fn soundness_multi_threaded_correct_counter_never_errors() {
        let n = 3;
        let drv = Drv::new(AtomicCounter::new(), n);
        let verifier = Verifier::new(LinSpec::new(CounterSpec::new()), n);
        let workload = Workload::new(WorkloadKind::Counter, 29);
        let run = run_threads(&drv, &verifier, |i| workload.operations_for(i, 15));
        assert!(
            run.iter().all(EnforcedResponse::is_verified),
            "false alarm on a correct counter"
        );
    }

    #[test]
    fn completeness_lossy_queue_is_eventually_reported() {
        // Single process: every lost element eventually shows up as a dequeue of the
        // wrong value or a premature `empty`, and the verifier must flag it.
        let drv = Drv::new(LossyQueue::new(2), 1);
        let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), 1);
        let ops = (0..10)
            .map(queue::enqueue)
            .chain((0..10).map(|_| queue::dequeue()));
        let mut errored = false;
        for op in ops {
            let r = drv.apply_drv(p(0), &op);
            if !step(&verifier, p(0), r, Mode::Enforce).is_verified() {
                errored = true;
            }
        }
        assert!(errored, "lossy queue was never reported");
    }

    #[test]
    fn completeness_and_stability_stuttering_counter() {
        use linrv_spec::ops::counter;
        let drv = Drv::new(StutteringCounter::new(2), 1);
        let verifier = Verifier::new(LinSpec::new(CounterSpec::new()), 1);
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            let r = drv.apply_drv(p(0), &counter::inc());
            outcomes.push(step(&verifier, p(0), r, Mode::Enforce).is_verified());
        }
        // The third increment repeats a value; from then on every observation errors
        // (stability, Theorem 8.1 (3)).
        assert!(outcomes.iter().any(|ok| !ok));
        let first_bad = outcomes.iter().position(|ok| !ok).unwrap();
        assert!(outcomes[first_bad..].iter().all(|ok| !ok));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), 1);
        let drv = Drv::new(MsQueue::new(), 2);
        let r = drv.apply_drv(p(1), &queue::dequeue());
        let _ = step(&verifier, p(1), r, Mode::Enforce);
    }
}
