//! The wait-free predictive verifier `V_O` (Figure 10, Theorem 8.1).
//!
//! Each process, after completing an operation of an `A* ∈ DRV` and obtaining its
//! `(y_i, λ_i)` response, runs one verifier step ([`enforce::step`](crate::enforce::step)):
//! it adds the resulting 4-tuple to its persistent result set `res_i`
//! ([`Verifier::record`]), publishes it in the shared snapshot object `M`, takes a
//! snapshot, unions all entries into `τ_i`, rebuilds the sketch `X(τ_i)` and locally
//! tests membership in the abstract object `O` ([`enforce::decide`](crate::enforce::decide);
//! [`Verifier::audit`] does the same from scratch). If the sketch is
//! not a member, the process reports `ERROR` together with `X(τ_i)` — which, by Lemma
//! 8.1, *is* a history of `A*`, i.e. a genuine witness.
//!
//! Guarantees (Theorem 8.1), exercised in the integration tests and experiments:
//!
//! * **Efficiency** — only read/write base objects (through the snapshot), `O(n)` step
//!   complexity per loop iteration plus the local membership test (for the local work
//!   of rebuilding the sketch, see below).
//! * **Predictive soundness** — every reported `ERROR` carries a witness history of
//!   `A*`.
//! * **Soundness for correct executions of `A`** — if `A`'s history is correct, no
//!   process ever reports `ERROR`.
//! * **Completeness and stability** — if `A*`'s history is incorrect, eventually every
//!   new observation reports `ERROR`.
//!
//! # Re-sketching only what can still change
//!
//! A verifier step needs `X(τ)` for a `τ` that only grows from one step to the next
//! that continues the verifier's sketch: a step scans `M` while it holds the sketch, so
//! such scans happen one after another, each entry of `M` only grows, and the
//! snapshot is linearizable. Most of `X(τ)` is the same as at the previous step.
//! Call a pair of `τ` *pending* when some view of `τ` holds it but no tuple of `τ` has
//! it, and let `W` be the largest view of `τ` that holds no pending pair.
//!
//! **Pending-pair lemma.** Every tuple `u ∉ τ` that `M` ever holds has a view `⊋ W`.
//! *Proof.* `u`'s pair is not in `W`: every pair of `W` has a tuple in `τ`, and an
//! operation has one tuple. Its view holds its pair (self-inclusion), so it is not a
//! subset of `W`, and views are ⊆-comparable (Remark 7.2), so it strictly contains
//! `W`. ∎ So for every later `τ' ⊇ τ` the views of at most `|W|` pairs, the tuples that
//! hold them and hence the steps of `X(τ')` up to and including `W`'s are those of
//! `X(τ)`: they are a stable prefix. Nothing else has to be known: no registry of
//! live processes, and a process that has not published, or never will, holds `W`
//! back only through the pairs it has announced. A step therefore reads `τ`, keeps the
//! tuples at or below `W` as the prefix's (it counts them: a forged tuple there, or one
//! missing, sends the step back to a from-scratch [`audit`](Verifier::audit)), and
//! sorts, checks (Remark 7.2, [`crate::view`]'s passes continued from the prefix's last
//! tuple) and sketches only the `s` tuples above `W`, then moves `W` up.
//!
//! With `t` tuples in `τ` and `n` processes, the local work of a step is `O(t + n)` to
//! read `τ` (its `n` runs one after the other) plus `O(s log s + s·n)` for the
//! suffix, instead of the `O(t log t + t·n)` of a sketch from scratch; each adds a
//! binary search per view lookup and a step per event written. Apart from those
//! searches no term grows with the size of a view: a view is `n` prefixes of the
//! processes' announcement logs ([`crate::view::View`]). On a seeded 4-session queue
//! schedule `s` averages 3.6 per step at 128 operations and 3.8 at 280, while `t`
//! averages 64.5 and 140.5.
//!
//! The sketch also keeps the operation table of `X(τ)` ([`linrv_history::OpTable`]),
//! marked after the stable prefix: a step rolls it back to the mark and pushes only
//! the events it re-sketched, `O(n log n)` plus a map update per event, where
//! `History::index` cost one per event of `X(τ)`. A step decides with
//! [`GenLinObject::contains_indexed`] over that table. The membership test itself
//! still reads every record of the table, all of `X(τ)`.
//!
//! The verifier keeps one such sketch. A step takes it with `try_lock` and scans `M`
//! while holding it, so the scans that continue it happen one after another and the
//! `τ` it sees only grows, whoever scans. A step that finds it held (a
//! `Monitor::check` racing a process's step) decides from scratch instead of waiting.

use crate::shared::SharedSets;
use crate::sketch::{sketch_history, IncrementalSketch, SketchError};
use crate::view::{TupleSet, ViewTuple};
use linrv_check::GenLinObject;
use linrv_history::{History, ProcessId};
use linrv_snapshot::{AfekSnapshot, Snapshot};
use parking_lot::Mutex;
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
    results: SharedSets<ViewTuple>,
    /// The sketch decides continue (module docs); empty until the first decide.
    sketch: Mutex<IncrementalSketch>,
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
            sketch: Mutex::default(),
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
    /// all a producer of `D_{O,A}` does (Figure 12). `tuple` moves into the next slot
    /// of `process`'s result log, whose prefix `res_i` is and which every snapshot
    /// entry shares, so a record copies no tuple, view or pair, and no pointer to one:
    /// `O(n)` for the snapshot write plus a walk of `O(log |res_i|)` log chunks
    /// ([`TupleSet`]).
    /// [`enforce::step`](crate::enforce::step) calls it, followed under `Mode::Enforce`
    /// by [`enforce::decide`](crate::enforce::decide).
    ///
    /// # Panics
    ///
    /// Panics when `process` is outside the range the verifier was created for.
    pub fn record(&self, process: ProcessId, tuple: ViewTuple) {
        self.results.add(process, || (tuple, ()));
    }

    /// The union `τ` of all result sets currently readable from `M`.
    pub fn collect_tuples(&self, scanner: ProcessId) -> TupleSet {
        self.results.union(scanner)
    }

    /// Scan, sketch, membership (Figure 10, Lines 08–11) without contributing a tuple,
    /// all from scratch: the oracle every incremental verdict agrees with.
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

    /// What an [`audit`](Self::audit) by `scanner` decides — `Ok(None)` for a member,
    /// else the sketch as witness, or why there is none — continuing the verifier's
    /// sketch (module docs). When another decide holds the sketch, or `τ` does not
    /// extend its prefix, it falls back to the audit, and the latter resets the sketch.
    pub(crate) fn verdict(&self, scanner: ProcessId) -> Result<Option<History>, SketchError> {
        if let Some(mut sketch) = self.sketch.try_lock() {
            // Scanned while the sketch is held, so the `τ` it sees only grows.
            let tuples = self.collect_tuples(scanner);
            match sketch.advance(&tuples) {
                Some(Ok((history, table))) => {
                    let member = self.object.contains_indexed(history, table);
                    return Ok((!member).then(|| history.clone()));
                }
                Some(Err(err)) => return Err(err),
                None => *sketch = IncrementalSketch::default(),
            }
        }
        if linrv_obs::enabled() {
            crate::metrics::rebuilds().inc();
        }
        let audit = self.audit(scanner);
        audit.sketch.map(|sketch| (!audit.member).then_some(sketch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drv::{Announced, Drv, DrvResponse};
    use crate::enforce::{step, EnforcedResponse, Mode};
    use crate::view::InvocationPair;
    use linrv_check::{LinSpec, StrategyChecker};
    use linrv_history::{Event, OpId, OpTable, OpValue, Operation, WellFormedError};
    use linrv_runtime::faulty::{self, LossyQueue, StutteringCounter, Theorem51Queue};
    use linrv_runtime::impls::{correct_object, AtomicCounter, MsQueue, SpecObject, TreiberStack};
    use linrv_runtime::{ConcurrentObject, Workload, WorkloadKind};
    use linrv_spec::ops::queue;
    use linrv_spec::{CounterSpec, ObjectKind, QueueSpec, RegisterSpec, StackSpec};

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

    /// Where one process of a seeded DRV schedule is in its current operation.
    enum Phase {
        Idle,
        Announced(Announced),
        Called(Announced, OpValue),
        Collected(DrvResponse),
        Crashed,
    }

    /// One seeded single-threaded DRV schedule over `object`, checked after every
    /// `record`: the history of the sketch the decide continued is `X(τ)` of a
    /// from-scratch audit event for event and its cached operation table is that
    /// history's `History::index`, the decide agrees with that audit, no decide
    /// falls back unless the sketch was held (and then leaves it as it was), and every
    /// stored prefix is a prefix of every later `X(τ)`. Each step moves one process by one phase; a collected tuple
    /// is recorded only when its process is picked again (slow publishers), and an
    /// announced operation may crash, never to be collected. Now and then the sketch is
    /// held, so the decide audits from scratch and the next one catches up over a
    /// longer suffix. Returns the verdicts that found a violation and the events of the
    /// longest stored prefix.
    fn incremental_matches_scratch<O: GenLinObject>(
        object: Box<dyn ConcurrentObject>,
        checker: O,
        workload: WorkloadKind,
        processes: usize,
        seed: u64,
    ) -> (usize, usize) {
        const OPS_PER_PROCESS: usize = 8;
        let drv = Drv::new(object, processes);
        let verifier = Verifier::new(checker, processes);
        let workload = Workload::new(workload, seed);
        let mut plans: Vec<_> = (0..processes)
            .map(|i| workload.operations_for(i, OPS_PER_PROCESS).into_iter())
            .collect();
        let mut phases: Vec<Phase> = (0..processes).map(|_| Phase::Idle).collect();
        let mut prefix: Vec<Event> = Vec::new();
        let mut violations = 0;
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |bound: usize| {
            // xorshift64: the schedule is a pure function of the seed.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        loop {
            let movable: Vec<usize> = (0..processes)
                .filter(|&i| match phases[i] {
                    Phase::Idle => plans[i].len() > 0,
                    Phase::Crashed => false,
                    _ => true,
                })
                .collect();
            if movable.is_empty() {
                return (violations, prefix.len());
            }
            let i = movable[next(movable.len())];
            let process = p(i as u32);
            phases[i] = match std::mem::replace(&mut phases[i], Phase::Idle) {
                Phase::Idle => {
                    let op = plans[i].next().expect("a movable idle process has an op");
                    Phase::Announced(drv.announce(process, &op))
                }
                Phase::Announced(announced) if next(16) == 0 => {
                    drop(announced);
                    Phase::Crashed
                }
                Phase::Announced(announced) => {
                    let value = drv.call_inner(&announced);
                    Phase::Called(announced, value)
                }
                Phase::Called(announced, value) => Phase::Collected(drv.collect(announced, value)),
                Phase::Collected(response) => {
                    verifier.record(process, response.tuple());
                    let held = (next(4) == 0).then(|| verifier.sketch.lock());
                    let stale = held.as_ref().map(|sketch| sketch.history().clone());
                    let decided = crate::enforce::decide(&verifier, process);
                    drop(held);
                    let audit = verifier.audit(process);
                    let sketch = audit.sketch.expect("DRV views sketch");
                    assert_eq!(
                        decided.is_none(),
                        audit.member,
                        "decide disagrees with the audit"
                    );
                    if let Some(witness) = decided {
                        assert_eq!(witness, sketch, "the witness is not the sketch");
                        violations += 1;
                    }
                    // A decide that fell back on its own left a reset sketch, with no
                    // history; one that found the sketch held left it as it was.
                    let incremental = verifier.sketch.lock();
                    let expected = stale.as_ref().unwrap_or(&sketch);
                    assert_eq!(incremental.history().events(), expected.events());
                    assert!(incremental.prefix().starts_with(&prefix), "a prefix shrank");
                    prefix = incremental.prefix().to_vec();
                    drop(incremental);
                    if stale.is_none() {
                        assert_table_is_index(&verifier);
                    }
                    assert!(
                        sketch.events().starts_with(&prefix),
                        "a stored prefix moved"
                    );
                    Phase::Idle
                }
                Phase::Crashed => unreachable!("a crashed process is never picked"),
            };
        }
    }

    /// The differential test of the incremental sketch and its operation table: 1–5
    /// processes, queue, stack and register, each correct and faulty, slow publishers
    /// and crashed operations.
    #[test]
    fn incremental_decides_match_scratch_audits() {
        incremental_differential(0..6);
    }

    /// The same on ten times the seeds (`--release -- --ignored`).
    #[test]
    #[ignore = "ten times the seeds of incremental_decides_match_scratch_audits; CI runs it in release"]
    fn incremental_decides_match_scratch_audits_on_many_seeds() {
        incremental_differential(0..60);
    }

    fn incremental_differential(seeds: std::ops::Range<u64>) {
        let (mut violations, mut settled) = (0, 0);
        for seed in seeds {
            for processes in 1..=5 {
                for faulty in [None, Some(2), Some(3)] {
                    for kind in [ObjectKind::Queue, ObjectKind::Stack, ObjectKind::Register] {
                        let object = match faulty {
                            Some(every) => faulty::faulty_object(kind, every),
                            None => correct_object(kind),
                        };
                        let workload = WorkloadKind::for_object(kind);
                        let (found, prefix) = match kind {
                            ObjectKind::Queue => incremental_matches_scratch(
                                object,
                                StrategyChecker::new(QueueSpec::new()),
                                workload,
                                processes,
                                seed,
                            ),
                            ObjectKind::Stack => incremental_matches_scratch(
                                object,
                                StrategyChecker::new(StackSpec::new()),
                                workload,
                                processes,
                                seed,
                            ),
                            _ => incremental_matches_scratch(
                                object,
                                StrategyChecker::new(RegisterSpec::new()),
                                workload,
                                processes,
                                seed,
                            ),
                        };
                        violations += found;
                        settled = settled.max(prefix);
                    }
                }
            }
        }
        assert!(violations > 0, "no schedule exercised a witness");
        assert!(settled >= 20, "prefixes never settled: {settled} events");
    }

    /// A tuple forged below a sketch's stable prefix sends its decide back to a
    /// from-scratch audit — same verdict, same Remark 7.2 panic — and resets the sketch.
    #[test]
    fn a_forged_tuple_below_the_prefix_rebuilds_from_scratch() {
        let (verifier, tuples) = settled_queue();

        // The first tuple again with another response: Remark 7.2 holds (one view,
        // one pair), yet the sketch answers one operation twice.
        let mut twin = tuples[0].clone();
        twin.response = OpValue::Bool(false);
        verifier.record(p(0), twin);
        let audit = verifier.audit(p(1));
        assert!(!audit.member);
        assert_eq!(crate::enforce::decide(&verifier, p(1)), audit.sketch.ok());
        assert!(
            verifier.sketch.lock().history().is_empty(),
            "the sketch was not reset"
        );

        // A view that leaves out every earlier pair is incomparable with theirs.
        let mut alone = tuples[3].clone();
        alone.pair.op_id = OpId::new(99);
        alone.view = [alone.pair.clone()].into_iter().collect();
        verifier.record(p(1), alone);
        assert_decide_panics_as_audit(&verifier);
    }

    /// Tuples forged above a stable prefix: the decide that continues the sketch
    /// reports the audit's Remark 7.2 error (its panic message ends with it), checking
    /// the link from `W`'s tuple into the suffix and process sequentiality inside the
    /// suffix; a tuple that shares its pair with one of the prefix sends the decide
    /// back to the audit, since the suffix's own pass cannot see that violation; one
    /// that shares only its identifier makes an ill-formed sketch, which the cached
    /// operation table reports at the event `History::index` does.
    #[test]
    fn tuples_forged_above_the_prefix_fail_as_the_audit_does() {
        let forged = |pair: &InvocationPair, pairs: &[&InvocationPair]| {
            let view = pairs.iter().map(|&pair| pair.clone()).collect();
            ViewTuple::new(pair.clone(), OpValue::Bool(true), view)
        };
        let fresh = |process: u32, id: u64| InvocationPair {
            process: p(process),
            op_id: OpId::new(id),
            operation: queue::enqueue(id as i64),
        };
        let pairs = |tuples: &[ViewTuple]| -> Vec<InvocationPair> {
            tuples.iter().map(|t| t.pair.clone()).collect()
        };

        // Larger than `W` but missing the pair of `W`'s own tuple.
        let (verifier, tuples) = settled_queue();
        let w = pairs(&tuples);
        let (mine, extra) = (fresh(0, 99), fresh(1, 98));
        verifier.record(p(0), forged(&mine, &[&w[0], &w[1], &w[2], &mine, &extra]));
        assert_decide_panics_as_audit(&verifier);
        assert!(!verifier.sketch.lock().prefix().is_empty(), "fell back");
        assert_table_is_index(&verifier);

        // Two operations of one process in each other's views, the second published a
        // step after the first (which waits above `W` for it as a pending pair).
        let (verifier, tuples) = settled_queue();
        let w = pairs(&tuples);
        let (first, second) = (fresh(1, 97), fresh(1, 98));
        let both: Vec<&InvocationPair> = w.iter().chain([&first, &second]).collect();
        verifier.record(p(1), forged(&first, &both));
        let audit = verifier.audit(p(1));
        let expected = audit.sketch.ok().filter(|_| !audit.member);
        assert_eq!(crate::enforce::decide(&verifier, p(1)), expected);
        assert_table_is_index(&verifier);
        verifier.record(p(1), forged(&second, &both));
        assert_decide_panics_as_audit(&verifier);
        assert!(!verifier.sketch.lock().prefix().is_empty(), "fell back");
        assert_table_is_index(&verifier);

        // The first operation again, above `W`: over the whole chain it follows the
        // same process's next operation, whose view holds it.
        let (verifier, tuples) = settled_queue();
        let w = pairs(&tuples);
        let extra = fresh(1, 96);
        let above: Vec<&InvocationPair> = w.iter().chain([&extra]).collect();
        verifier.record(p(0), forged(&w[0], &above));
        assert_decide_panics_as_audit(&verifier);
        assert!(verifier.sketch.lock().history().is_empty(), "not reset");

        // A fresh pair above `W` under the identifier of a pair of the prefix, in a
        // view that also holds a pending pair: Remark 7.2 holds, and the sketch
        // invokes one identifier twice above its prefix. The cached table reports
        // it as `History::index` does. Then the pending pair's tuple, with a smaller
        // view, answers it before that invocation, which moves later: the table,
        // which holds the error, must index from the first event again to report it
        // there.
        let (verifier, tuples) = settled_queue();
        let w = pairs(&tuples);
        let reused = InvocationPair {
            op_id: w[0].op_id,
            ..fresh(1, 95)
        };
        let pending = fresh(0, 94);
        let above: Vec<&InvocationPair> = w.iter().chain([&reused, &pending]).collect();
        verifier.record(p(1), forged(&reused, &above));
        let first = decide_duplicate_as_audit(&verifier);
        let below: Vec<&InvocationPair> = w.iter().chain([&pending]).collect();
        verifier.record(p(0), forged(&pending, &below));
        assert!(decide_duplicate_as_audit(&verifier) > first);
    }

    /// Decides, asserts that the decide agrees with the audit, continued the sketch
    /// and cached `History::index` of it, and returns where the sketch invokes an
    /// identifier twice.
    fn decide_duplicate_as_audit<O: GenLinObject>(verifier: &Verifier<O>) -> usize {
        let audit = verifier.audit(p(0));
        assert!(!audit.member);
        assert_eq!(crate::enforce::decide(verifier, p(0)), audit.sketch.ok());
        assert_table_is_index(verifier);
        let sketch = verifier.sketch.lock();
        match sketch.table().map(OpTable::well_formed) {
            Some(Err(WellFormedError::DuplicateInvocation { index, .. })) => index,
            other => panic!("{other:?}"),
        }
    }

    /// Four sequential enqueues by two processes, each decided: the sketch's stable
    /// prefix is all of `X(τ)`. Returns the verifier and the four tuples.
    fn settled_queue() -> (Verifier<StrategyChecker<QueueSpec>>, Vec<ViewTuple>) {
        let drv = Drv::new(MsQueue::new(), 2);
        let verifier = Verifier::new(StrategyChecker::new(QueueSpec::new()), 2);
        let mut tuples = Vec::new();
        for i in 0..4 {
            let r = drv.apply_drv(p(i % 2), &queue::enqueue(i64::from(i)));
            tuples.push(r.tuple());
            assert!(step(&verifier, p(i % 2), r, Mode::Enforce).is_verified());
        }
        let sketch = verifier.sketch.lock();
        assert_eq!(sketch.prefix(), sketch.history().events());
        assert_eq!(sketch.prefix().len(), 8);
        drop(sketch);
        assert_table_is_index(&verifier);
        (verifier, tuples)
    }

    /// The verifier's sketch holds an operation table, and it is `History::index` of
    /// the sketch's history: the same records and the same first error.
    fn assert_table_is_index<O: GenLinObject>(verifier: &Verifier<O>) {
        let sketch = verifier.sketch.lock();
        let table = sketch
            .table()
            .expect("a decide that continued the sketch indexed it");
        let (records, well_formed) = sketch.history().index();
        assert_eq!(table.records(), records.as_slice(), "the cached records");
        assert_eq!(table.well_formed(), well_formed, "the cached error");
    }

    /// `decide` panics on the published tuples, and its message ends with the error a
    /// from-scratch audit reports.
    fn assert_decide_panics_as_audit<O: GenLinObject>(verifier: &Verifier<O>) {
        let err = verifier.audit(p(0)).sketch.expect_err("forged views");
        let decide = std::panic::AssertUnwindSafe(|| crate::enforce::decide(verifier, p(0)));
        let panicked =
            std::panic::catch_unwind(decide).expect_err("decide must panic on broken views");
        let message = panicked
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.ends_with(&err.to_string()), "{message}");
        assert!(message.contains("Remark 7.2"), "{message}");
    }

    /// `step` moves the response's view into the tuple it records, and the next
    /// `record` of the same process, which appends to the same result log, keeps
    /// that tuple: the first pair of the collected view is the allocation
    /// `collect_tuples` reads.
    #[test]
    fn a_step_records_the_collected_view_itself() {
        let drv = Drv::new(MsQueue::new(), 2);
        let verifier = Verifier::new(StrategyChecker::new(QueueSpec::new()), 2);
        let first = drv.apply_drv(p(0), &queue::enqueue(1));
        let pair = first.pair.clone();
        let address: *const InvocationPair = first.view.iter().next().expect("own pair");
        step(&verifier, p(0), first, Mode::Observe);
        let second = drv.apply_drv(p(0), &queue::enqueue(2));
        step(&verifier, p(0), second, Mode::Observe);
        let tau = verifier.collect_tuples(p(1));
        let recorded = tau.iter().find(|t| t.pair == pair).expect("published");
        let held: *const InvocationPair = recorded.view.iter().next().expect("own pair");
        assert!(std::ptr::eq(held, address), "the view was copied");
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
