//! Property-based tests over the core invariants of the paper's constructions.
//!
//! The properties exercised here correspond directly to lemmas of the paper:
//!
//! * Remark 7.2 — views produced by a `DRV` wrapper satisfy self-inclusion,
//!   containment comparability and process sequentiality under *any* interleaving of
//!   the announce/call/collect phases;
//! * Lemmas 7.3 + 7.4 + Theorem 8.1 (soundness for correct `A`) — for a correct `A`,
//!   the sketch `X(λ)` is always a member of the object, under any interleaving;
//! * Lemma 7.1 — linearizability is prefix-closed (checked on generated linearizable
//!   histories);
//! * Definition 7.1 — similarity is reflexive, and appending responses taken from a
//!   completion of the history always yields a similar history.

use linrv_check::{GenLinObject, LinSpec};
use linrv_core::drv::Drv;
use linrv_core::sketch::sketch_history;
use linrv_core::view::{check_view_properties, TupleSet};
use linrv_history::{similar, History, HistoryBuilder, OpValue};
use linrv_runtime::faulty::LossyQueue;
use linrv_runtime::impls::SpecObject;
use linrv_runtime::ConcurrentObject;
use linrv_spec::ops::queue;
use linrv_spec::{QueueSpec, SequentialSpec};
use proptest::prelude::*;
use tests_integration::{drive_drv, p};

/// Drives a DRV wrapper through `schedule` and returns the published tuples.
/// Each entry names the process that takes its next step (announce → call →
/// collect → publish) and whether an operation started there is an enqueue.
fn run_schedule<A: ConcurrentObject>(drv: &Drv<A>, schedule: &[(usize, bool)]) -> TupleSet {
    let mut issued = vec![0; drv.processes()];
    let (mut steps, mut kinds) = (schedule.iter(), schedule.iter().cycle());
    drive_drv(
        drv,
        |process| {
            issued[process] += 1;
            let value = (process * 1000 + issued[process]) as i64;
            let enqueue = kinds.next()?.1;
            Some(if enqueue {
                queue::enqueue(value)
            } else {
                queue::dequeue()
            })
        },
        || steps.next().map(|&(process, _)| (process, true)),
        |_| {},
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Remark 7.2 + soundness for correct `A`: under any interleaving of the DRV
    /// phases over a correct queue, the views are valid and the sketch is linearizable.
    #[test]
    fn drv_views_are_valid_and_sketch_is_correct_for_correct_a(
        schedule in proptest::collection::vec((0..3usize, any::<bool>()), 3..40)
    ) {
        let drv = Drv::new(SpecObject::new(QueueSpec::new()), 3);
        let tuples = run_schedule(&drv, &schedule);
        prop_assert!(check_view_properties(&tuples).is_ok());
        let sketch = sketch_history(&tuples).expect("valid views");
        prop_assert!(sketch.is_well_formed());
        prop_assert!(LinSpec::new(QueueSpec::new()).contains(&sketch));
    }

    /// Completeness is *predictive*: for a faulty queue the sketch may or may not show
    /// the violation (depending on the interleaving), but the views are always valid
    /// and the sketch is always a well-formed history of A* (Lemma 8.1 (1)).
    #[test]
    fn drv_views_remain_valid_for_faulty_a(
        schedule in proptest::collection::vec((0..2usize, any::<bool>()), 3..30)
    ) {
        let drv = Drv::new(LossyQueue::new(2), 2);
        let tuples = run_schedule(&drv, &schedule);
        prop_assert!(check_view_properties(&tuples).is_ok());
        let sketch = sketch_history(&tuples).expect("valid views");
        prop_assert!(sketch.is_well_formed());
    }

    /// Lemma 7.1 (prefix closure): every prefix of a linearizable queue history is
    /// linearizable. Histories are generated by replaying random operation mixes
    /// against the sequential specification with random interleaving of two processes.
    #[test]
    fn linearizability_is_prefix_closed(
        ops in proptest::collection::vec((0..2u32, any::<bool>()), 1..25)
    ) {
        let spec = QueueSpec::new();
        let mut state = spec.initial_state();
        let mut builder = HistoryBuilder::new();
        let mut value = 0i64;
        for (proc_index, enqueue) in ops {
            let op = if enqueue {
                value += 1;
                queue::enqueue(value)
            } else {
                queue::dequeue()
            };
            let (next, response) = spec.step_deterministic(&state, &op).expect("valid op");
            state = next;
            builder.complete(p(proc_index), op, response);
        }
        let history = builder.build();
        let object = LinSpec::new(QueueSpec::new());
        prop_assert!(object.contains(&history));
        for prefix in history.prefixes() {
            prop_assert!(object.contains(&prefix), "prefix closure violated");
        }
    }

    /// Definition 7.1: similarity is reflexive, and dropping the responses of the last
    /// operations yields a history to which the original is similar.
    #[test]
    fn similarity_is_reflexive_and_tolerates_pending_completion(
        ops in proptest::collection::vec((0..3u32, 1..100i64), 1..15)
    ) {
        let mut builder = HistoryBuilder::new();
        for (proc_index, value) in &ops {
            builder.complete(p(*proc_index), queue::enqueue(*value), OpValue::Bool(true));
        }
        let complete = builder.build();
        prop_assert!(similar(&complete, &complete).is_some());

        // Truncate the final response: the truncated history is similar to the
        // complete one (the missing response can be appended back).
        let truncated = History::from_events(
            complete.events()[..complete.len() - 1].to_vec(),
        );
        prop_assert!(similar(&truncated, &complete).is_some());
        // The converse generally fails: the complete history has strictly more
        // real-time order than the truncated one only if other operations follow; with
        // a single pending operation at the very end the two are mutually similar, so
        // we only check that similarity never panics.
        let _ = similar(&complete, &truncated);
    }
}

// Differential test: the wait-free Afek snapshot agrees with the blocking oracle when
// driven sequentially with arbitrary write/scan sequences.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn afek_snapshot_matches_locked_oracle_sequentially(
        steps in proptest::collection::vec((0..3usize, 0..100u64, any::<bool>()), 1..40)
    ) {
        use linrv_snapshot::{AfekSnapshot, LockedSnapshot, Snapshot};
        let afek = AfekSnapshot::new(3, 0u64);
        let oracle = LockedSnapshot::new(3, 0u64);
        for (who, value, is_write) in steps {
            if is_write {
                afek.write(who, value);
                oracle.write(who, value);
            } else {
                prop_assert_eq!(afek.scan(who), oracle.scan(who));
            }
        }
        prop_assert_eq!(afek.scan(0), oracle.scan(0));
    }
}
