//! The `A → A*` transform (Figure 7): making any implementation Distributed Runtime
//! Verifiable.
//!
//! `A*` wraps a black-box implementation `A`. For each operation it
//!
//! 1. adds the invocation pair `(p_i, op_i)` to the process's persistent local set and
//!    publishes that set in the process's entry of a wait-free linearizable snapshot
//!    object `N` (Lines 01–02),
//! 2. obtains the response `y_i` from `A` (Lines 03–04),
//! 3. takes a snapshot of `N`, unions all entries into the *view* `λ_i`
//!    (Lines 05–06), and
//! 4. returns `(y_i, λ_i)` (Line 07).
//!
//! Lemma 7.2: `A*` implements the same object as `A`, preserves `A`'s progress
//! condition (the added code is wait-free), and adds `O(n)` steps per operation.
//! The views returned by `A*` are what make it predictively verifiable.
//!
//! The local work keeps that bound too, whatever the number of operations before:
//! `set_i` is an append-only log of `p_i`'s pairs, in `op_id` order (Remark 7.2; the id
//! is taken under the process's lock), an announce appends to it and publishes a
//! one-run view of it, and a collect reads `n` prefixes of the logs. No pair is copied
//! after its announce ([`View`]).
//!
//! [`Drv`] also exposes the three phases separately ([`Drv::announce`],
//! [`Drv::call_inner`], [`Drv::collect`]) so that tests, examples and the
//! figure-reproduction experiments can interleave them deterministically — this is how
//! the "stretch"/"shrink" pictures of Figures 5, 6 and 8 are reproduced without relying
//! on racy timing.

use crate::registry::ProcessRegistry;
use crate::shared::SharedSets;
use crate::view::{InvocationPair, View, ViewTuple};
use linrv_history::{OpId, OpValue, Operation, ProcessId};
use linrv_runtime::ConcurrentObject;
use linrv_snapshot::{AfekSnapshot, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The response of an `A*` operation: the underlying response together with the view
/// (Figure 7, Line 07).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrvResponse {
    /// The invocation pair of the operation that produced this response.
    pub pair: InvocationPair,
    /// The response obtained from the wrapped implementation `A`.
    pub value: OpValue,
    /// The view `λ_i` collected after `A` responded.
    pub view: View,
}

impl DrvResponse {
    /// The 4-tuple `(p_i, op_i, y_i, λ_i)` used by verifiers and self-enforced
    /// implementations, cloned from the response; [`step`](crate::enforce::step) moves
    /// the pair and the view into its tuple instead.
    pub fn tuple(&self) -> ViewTuple {
        ViewTuple::new(self.pair.clone(), self.value.clone(), self.view.clone())
    }
}

/// An operation of `A*` that has been announced but whose later phases have not run
/// yet. Returned by [`Drv::announce`]; consumed by [`Drv::call_inner`] and
/// [`Drv::collect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Announced {
    /// The announced invocation pair.
    pub pair: InvocationPair,
}

/// The `DRV`-class counterpart `A*` of a concurrent implementation `A` (Figure 7).
pub struct Drv<A> {
    inner: A,
    /// The shared array `N` of Figure 7; entry `i` holds `set_i`.
    announcements: SharedSets<InvocationPair>,
    next_op: AtomicU64,
    registry: ProcessRegistry,
}

impl<A: ConcurrentObject> Drv<A> {
    /// Wraps `inner` for a system of `processes` processes, communicating through the
    /// wait-free [`AfekSnapshot`].
    pub fn new(inner: A, processes: usize) -> Self {
        Self::with_snapshot(inner, Arc::new(AfekSnapshot::new(processes, View::new())))
    }

    /// Wraps `inner` using an explicit snapshot implementation (its number of entries
    /// determines the number of processes).
    pub fn with_snapshot(inner: A, snapshot: Arc<dyn Snapshot<View>>) -> Self {
        let registry = ProcessRegistry::new(snapshot.entries());
        Drv {
            inner,
            announcements: SharedSets::new(snapshot),
            next_op: AtomicU64::new(0),
            registry,
        }
    }

    /// Number of processes the wrapper was created for.
    pub fn processes(&self) -> usize {
        self.announcements.processes()
    }

    /// The lease manager for this wrapper's process slots (capacity-bounded dynamic
    /// registration). Callers that prefer to manage ids themselves (the raw API) may
    /// keep constructing `ProcessId`s directly.
    pub fn registry(&self) -> &ProcessRegistry {
        &self.registry
    }

    /// The wrapped implementation.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Phase 1 (Lines 01–02): announce the operation in the snapshot object.
    ///
    /// # Panics
    ///
    /// Panics when `process` is outside the range the wrapper was created for.
    pub fn announce(&self, process: ProcessId, op: &Operation) -> Announced {
        let span = linrv_obs::Span::start(crate::metrics::announce_ns());
        // The id is taken under the process's lock, so a process's log stays in
        // `op_id` order even when two threads misuse one process.
        let pair = self.announcements.add(process, || {
            let pair = InvocationPair {
                process,
                op_id: OpId::new(self.next_op.fetch_add(1, Ordering::Relaxed)),
                operation: op.clone(),
            };
            (pair.clone(), pair)
        });
        drop(span);
        if linrv_obs::enabled() {
            crate::metrics::ops_announced().inc();
        }
        Announced { pair }
    }

    /// Phase 2 (Lines 03–04): obtain the response from the wrapped implementation.
    pub fn call_inner(&self, announced: &Announced) -> OpValue {
        self.inner
            .apply(announced.pair.process, &announced.pair.operation)
    }

    /// Phase 3 (Lines 05–07): snapshot the announcements, union them into the view and
    /// assemble the response.
    pub fn collect(&self, announced: Announced, value: OpValue) -> DrvResponse {
        let span = linrv_obs::Span::start(crate::metrics::collect_ns());
        let view = self.announcements.union(announced.pair.process);
        drop(span);
        if linrv_obs::enabled() {
            crate::metrics::view_size().record(view.len() as u64);
            crate::metrics::ops_collected().inc();
        }
        DrvResponse {
            pair: announced.pair,
            value,
            view,
        }
    }

    /// The full `Apply(op_i)` of Figure 7: announce, call `A`, collect.
    ///
    /// # Panics
    ///
    /// Panics when `process` is outside the range the wrapper was created for.
    pub fn apply_drv(&self, process: ProcessId, op: &Operation) -> DrvResponse {
        let announced = self.announce(process, op);
        let value = self.call_inner(&announced);
        self.collect(announced, value)
    }
}

impl<A: ConcurrentObject> ConcurrentObject for Drv<A> {
    fn kind(&self) -> linrv_spec::ObjectKind {
        self.inner.kind()
    }

    /// Applies the operation and returns only the underlying response, discarding the
    /// view (the typed [`Drv::apply_drv`] keeps it).
    fn apply(&self, process: ProcessId, op: &Operation) -> OpValue {
        self.apply_drv(process, op).value
    }

    fn name(&self) -> String {
        format!("DRV wrapper around {}", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::sketch_history;
    use crate::view::{check_view_properties, TupleSet};
    use linrv_check::{GenLinObject, LinSpec};
    use linrv_runtime::faulty::Theorem51Queue;
    use linrv_runtime::impls::{MsQueue, SpecObject};
    use linrv_spec::ops::queue;
    use linrv_spec::QueueSpec;
    use std::collections::BTreeMap;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn responses_carry_self_including_views() {
        let drv = Drv::new(MsQueue::new(), 2);
        let r = drv.apply_drv(p(0), &queue::enqueue(1));
        assert_eq!(r.value, OpValue::Bool(true));
        assert!(r.view.contains(&r.pair));
        assert_eq!(drv.processes(), 2);
        assert!(drv.name().contains("DRV wrapper"));
    }

    #[test]
    fn sequential_usage_produces_valid_views_and_correct_sketch() {
        let drv = Drv::new(SpecObject::new(QueueSpec::new()), 2);
        let mut tuples = TupleSet::new();
        tuples.insert(drv.apply_drv(p(0), &queue::enqueue(1)).tuple());
        tuples.insert(drv.apply_drv(p(1), &queue::dequeue()).tuple());
        tuples.insert(drv.apply_drv(p(0), &queue::dequeue()).tuple());
        assert_eq!(check_view_properties(&tuples), Ok(()));
        let sketch = sketch_history(&tuples).unwrap();
        assert!(sketch.is_sequential());
        assert!(LinSpec::new(QueueSpec::new()).contains(&sketch));
    }

    /// Figure 8: the non-linearizable behaviour of `A` (dequeue of a never-enqueued
    /// element) is *enforced correct* by `A*` when the announce of the enqueue lands
    /// before the dequeue collects its view: in the sketch the two operations overlap.
    #[test]
    fn figure8_drv_fixes_some_incorrect_histories() {
        let drv = Drv::new(Theorem51Queue::new(p(1)), 2);
        // p2 announces its dequeue, p1 announces its enqueue (both before any call).
        let deq = drv.announce(p(1), &queue::dequeue());
        let enq = drv.announce(p(0), &queue::enqueue(1));
        // A executes the dequeue first (returning 1 — A is incorrect), then the enqueue.
        let deq_value = drv.call_inner(&deq);
        let enq_value = drv.call_inner(&enq);
        assert_eq!(deq_value, OpValue::Int(1));
        // Both operations collect: each view contains both announcements, so in the
        // sketch they overlap and the history is linearizable — A* enforced correctness.
        let mut tuples = TupleSet::new();
        tuples.insert(drv.collect(deq, deq_value).tuple());
        tuples.insert(drv.collect(enq, enq_value).tuple());
        let sketch = sketch_history(&tuples).unwrap();
        assert!(LinSpec::new(QueueSpec::new()).contains(&sketch));
    }

    /// Figure 6 (bottom): when the announce/collect phases are tight around the calls,
    /// the real-time violation survives into the sketch and is detectable.
    #[test]
    fn tight_interleaving_preserves_the_violation() {
        let drv = Drv::new(Theorem51Queue::new(p(1)), 2);
        // p2 runs its entire dequeue (announce, call, collect) before p1 even announces.
        let deq = drv.announce(p(1), &queue::dequeue());
        let deq_value = drv.call_inner(&deq);
        let deq_resp = drv.collect(deq, deq_value);
        let enq = drv.announce(p(0), &queue::enqueue(1));
        let enq_value = drv.call_inner(&enq);
        let enq_resp = drv.collect(enq, enq_value);
        let mut tuples = TupleSet::new();
        tuples.insert(deq_resp.tuple());
        tuples.insert(enq_resp.tuple());
        let sketch = sketch_history(&tuples).unwrap();
        // The dequeue's view does not contain the enqueue, so in the sketch the dequeue
        // precedes the enqueue and returning 1 is a violation.
        assert!(!LinSpec::new(QueueSpec::new()).contains(&sketch));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        let drv = Drv::new(MsQueue::new(), 1);
        let _ = drv.apply_drv(p(5), &queue::dequeue());
    }

    /// Four threads, one per process: the views are containment comparable, sketch to a
    /// well-formed history, and hold the logs' own pairs: every pair of every
    /// collected view is the allocation a later collect reads, not a copy.
    #[test]
    fn concurrent_threads_produce_containment_comparable_views() {
        let drv = Drv::new(MsQueue::new(), 4);
        let tuples: Vec<ViewTuple> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u32)
                .map(|t| {
                    let drv = &drv;
                    scope.spawn(move || {
                        (0..30)
                            .map(|i| {
                                let op = if i % 2 == 0 {
                                    queue::enqueue(i64::from(t) * 100 + i)
                                } else {
                                    queue::dequeue()
                                };
                                drv.apply_drv(p(t), &op).tuple()
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
        let set: TupleSet = tuples.iter().cloned().collect();
        assert_eq!(check_view_properties(&set), Ok(()));
        // The sketch of the whole run is a well-formed history over 120 operations.
        let sketch = sketch_history(&set).unwrap();
        assert_eq!(sketch.complete_operations().count(), 120);

        let last = drv.announcements.union(p(0));
        assert_eq!(last.len(), 120);
        let logged: BTreeMap<OpId, &InvocationPair> =
            last.iter().map(|pair| (pair.op_id, pair)).collect();
        for tuple in &tuples {
            for pair in &tuple.view {
                assert!(
                    std::ptr::eq(pair, logged[&pair.op_id]),
                    "the view of {} holds a copy of {pair}",
                    tuple.pair
                );
            }
        }
    }

    /// Two threads misusing one process: ids are taken under the process's lock, so
    /// its log only ever grows in `op_id` order. Every view iterates ascending and
    /// contains what it yields, and no append fell back to copying the log: the
    /// process's first pair is one allocation in every view.
    #[test]
    fn two_threads_on_one_process_append_in_op_id_order() {
        let drv = Drv::new(MsQueue::new(), 2);
        let views: Vec<View> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let drv = &drv;
                    scope.spawn(move || {
                        (0..200)
                            .map(|i| drv.apply_drv(p(0), &queue::enqueue(t * 1000 + i)).view)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let first: *const InvocationPair = drv.announcements.union(p(1)).iter().next().unwrap();
        for view in &views {
            let pairs: Vec<&InvocationPair> = view.iter().collect();
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "{view:?}");
            assert!(pairs.iter().all(|pair| view.contains(pair)), "{view:?}");
            assert!(std::ptr::eq(pairs[0], first), "the log was copied");
        }
    }
}
