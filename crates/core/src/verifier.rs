//! The wait-free predictive verifier `V_O` (Figure 10, Theorem 8.1).
//!
//! Each process, after completing an operation of an `A* ∈ DRV` and obtaining its
//! `(y_i, λ_i)` response, hands the resulting 4-tuple to the verifier
//! ([`Verifier::observe`]). The verifier adds the tuple to the process's persistent
//! result set `res_i`, publishes it in the shared snapshot object `M`, takes a snapshot,
//! unions all entries into `τ_i`, rebuilds the sketch `X(τ_i)` and locally tests
//! membership in the abstract object `O`. If the sketch is not a member, the process
//! reports `ERROR` together with `X(τ_i)` — which, by Lemma 8.1, *is* a history of
//! `A*`, i.e. a genuine witness.
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

use crate::enforce::{step, Mode};
use crate::shared::SharedSets;
use crate::sketch::{sketch_history, SketchError};
use crate::view::{TupleSet, ViewTuple};
use linrv_check::GenLinObject;
use linrv_history::{History, ProcessId};
use linrv_snapshot::{AfekSnapshot, Snapshot};
use std::sync::Arc;

/// Outcome of one verification step (Lines 06–12 of Figure 10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifierOutcome {
    /// The sketch built from the locally visible tuples is a member of the object.
    Ok,
    /// The sketch is not a member: `ERROR` is reported together with the witness
    /// history `X(τ_i)`, which is a history of `A*` (Lemma 8.1).
    Error {
        /// The witness history.
        witness: History,
    },
    /// The exchanged tuples violate the view properties of Remark 7.2. This cannot
    /// happen when `A*` is a genuine `DRV` implementation communicating through a
    /// linearizable snapshot; it indicates a corrupted or forged input.
    InvalidViews(SketchError),
}

impl VerifierOutcome {
    /// Returns `true` when no error was reported.
    pub fn is_ok(&self) -> bool {
        matches!(self, VerifierOutcome::Ok)
    }

    /// Returns the witness history when an error was reported.
    pub fn witness(&self) -> Option<&History> {
        match self {
            VerifierOutcome::Error { witness } => Some(witness),
            _ => None,
        }
    }
}

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

    /// One verification step (Figure 10, Lines 06–12): record the tuple obtained from
    /// `A*`, exchange it through the snapshot, rebuild the sketch and test membership.
    ///
    /// # Panics
    ///
    /// Panics when `process` is outside the range the verifier was created for.
    pub fn observe(&self, process: ProcessId, tuple: ViewTuple) -> VerifierOutcome {
        self.record(process, tuple);
        self.verdict_from_scan(process)
    }

    /// The publication half of [`Verifier::observe`] (Figure 10, Lines 06–08):
    /// record the tuple in `res_i` and exchange it through the snapshot, *without*
    /// computing a verdict.
    ///
    /// This is all a producer of the decoupled construction does (Figure 12,
    /// producer code); verdicts are then computed asynchronously via
    /// [`Verifier::verdict_from_scan`].
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

    /// Re-evaluates the verdict from the current shared state without contributing a
    /// new tuple (used by decoupled verifiers).
    pub fn verdict_from_scan(&self, scanner: ProcessId) -> VerifierOutcome {
        let audit = self.audit(scanner);
        match audit.sketch {
            Ok(_) if audit.member => VerifierOutcome::Ok,
            Ok(witness) => VerifierOutcome::Error { witness },
            Err(err) => VerifierOutcome::InvalidViews(err),
        }
    }
}

/// Summary of a multi-threaded verifier run driven by [`run_verified`].
#[derive(Debug, Clone)]
pub struct VerifierRun {
    /// Total operations applied across all processes.
    pub operations: usize,
    /// For each process, the index of its first operation whose verification reported
    /// `ERROR` (if any).
    pub first_error_at: Vec<Option<usize>>,
    /// All distinct error witnesses reported, in no particular order.
    pub witnesses: Vec<History>,
}

impl VerifierRun {
    /// Returns `true` when no process ever reported `ERROR`.
    pub fn error_free(&self) -> bool {
        self.first_error_at.iter().all(Option::is_none)
    }
}

/// Drives the full Figure 10 loop: `threads` processes each apply the per-process
/// operations produced by `workload_for` against `A*` and verify every response.
///
/// This is the harness used by the soundness/completeness experiments (E10) and by the
/// examples; library users embedding verification into an existing system call
/// [`Verifier::observe`] directly instead.
pub fn run_verified<A, O>(
    drv: &crate::drv::Drv<A>,
    verifier: &Verifier<O>,
    workload_for: impl Fn(usize) -> Vec<linrv_history::Operation> + Sync,
) -> VerifierRun
where
    A: linrv_runtime::ConcurrentObject,
    O: GenLinObject,
{
    let n = verifier.processes().min(drv.processes());
    let results: Vec<(usize, Option<usize>, Vec<History>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for index in 0..n {
            let drv = &drv;
            let verifier = &verifier;
            let workload_for = &workload_for;
            handles.push(scope.spawn(move || {
                let process = ProcessId::new(index as u32);
                let ops = workload_for(index);
                let mut first_error = None;
                let mut witnesses = Vec::new();
                for (k, op) in ops.iter().enumerate() {
                    let response = drv.apply_drv(process, op);
                    if let Some(witness) = step(verifier, process, response, Mode::Enforce).witness
                    {
                        first_error.get_or_insert(k);
                        witnesses.push(witness);
                    }
                }
                (ops.len(), first_error, witnesses)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut run = VerifierRun {
        operations: results.iter().map(|(ops, _, _)| ops).sum(),
        first_error_at: results.iter().map(|(_, first, _)| *first).collect(),
        witnesses: Vec::new(),
    };
    for (_, _, mut w) in results {
        run.witnesses.append(&mut w);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drv::Drv;
    use linrv_check::LinSpec;
    use linrv_runtime::faulty::{LossyQueue, StutteringCounter, Theorem51Queue};
    use linrv_runtime::impls::{AtomicCounter, MsQueue, SpecObject, TreiberStack};
    use linrv_runtime::{Workload, WorkloadKind};
    use linrv_spec::ops::queue;
    use linrv_spec::{CounterSpec, QueueSpec, StackSpec};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
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
            assert!(verifier.observe(p(proc_index), r.tuple()).is_ok());
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
        assert!(!verifier.observe(p(1), deq_resp.tuple()).is_ok());

        let enq = drv.apply_drv(p(0), &queue::enqueue(1));
        let outcome = verifier.observe(p(0), enq.tuple());
        let witness = outcome.witness().expect("stability: error persists");
        // The witness is itself a non-linearizable history of A* (predictive soundness).
        assert!(!LinSpec::new(QueueSpec::new()).contains(witness));
    }

    #[test]
    fn soundness_multi_threaded_correct_queue_never_errors() {
        let n = 3;
        let drv = Drv::new(MsQueue::new(), n);
        let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), n);
        let workload = Workload::new(WorkloadKind::Queue, 17);
        let run = run_verified(&drv, &verifier, |i| workload.operations_for(i, 20));
        assert!(run.error_free(), "false alarm on a correct queue");
        assert_eq!(run.operations, 60);
    }

    #[test]
    fn soundness_multi_threaded_correct_stack_never_errors() {
        let n = 2;
        let drv = Drv::new(TreiberStack::new(), n);
        let verifier = Verifier::new(LinSpec::new(StackSpec::new()), n);
        let workload = Workload::new(WorkloadKind::Stack, 23);
        let run = run_verified(&drv, &verifier, |i| workload.operations_for(i, 25));
        assert!(run.error_free(), "false alarm on a correct stack");
    }

    #[test]
    fn soundness_multi_threaded_correct_counter_never_errors() {
        let n = 3;
        let drv = Drv::new(AtomicCounter::new(), n);
        let verifier = Verifier::new(LinSpec::new(CounterSpec::new()), n);
        let workload = Workload::new(WorkloadKind::Counter, 29);
        let run = run_verified(&drv, &verifier, |i| workload.operations_for(i, 15));
        assert!(run.error_free(), "false alarm on a correct counter");
    }

    #[test]
    fn completeness_lossy_queue_is_eventually_reported() {
        // Single process: every lost element eventually shows up as a dequeue of the
        // wrong value or a premature `empty`, and the verifier must flag it.
        let drv = Drv::new(LossyQueue::new(2), 1);
        let verifier = Verifier::new(LinSpec::new(QueueSpec::new()), 1);
        let mut errored = false;
        for i in 0..10 {
            let r = drv.apply_drv(p(0), &queue::enqueue(i));
            if !verifier.observe(p(0), r.tuple()).is_ok() {
                errored = true;
            }
        }
        for _ in 0..10 {
            let r = drv.apply_drv(p(0), &queue::dequeue());
            if !verifier.observe(p(0), r.tuple()).is_ok() {
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
            outcomes.push(verifier.observe(p(0), r.tuple()).is_ok());
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
        let _ = verifier.observe(p(1), r.tuple());
    }
}
