//! Per-object checking: every object of a [`MonitorPool`](crate::MonitorPool)
//! is one [`StreamingChecker`], settled after every event.
//!
//! The frontier decides each event on arrival, so a wrong response is latched
//! at that response. At each settle point (module docs of `linrv_check::stream`)
//! the events behind it are dropped and counted in `gced_events`: a
//! sequentially used object holds at most its one open operation, one with
//! overlapping traffic only what it did since its last quiet moment, and a
//! witness starts at the last settle point. Only a frontier that fell back
//! (past its bound, or on an ill-formed event) leaves a growing window,
//! re-decided on the checker's fallback schedule and by `check_all`.

use crate::verdict::{PoolVerdict, PoolViolation};
use linrv_check::{StreamingChecker, Verdict};
use linrv_history::Event;
use linrv_obs::Counter;
use linrv_spec::SequentialSpec;

/// Check/GC counters shared across all objects of a pool. The handles are
/// [`linrv_obs`] counters: a pool wires them to its labeled registry series
/// (see `crate::metrics`), tests use detached standalone ones.
#[derive(Debug)]
pub(crate) struct Counters {
    /// Whole-window decisions of the objects' checkers.
    pub(crate) checks: Counter,
    /// Events dropped at settle points.
    pub(crate) gced: Counter,
    /// Objects with a latched violation.
    pub(crate) violations: Counter,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            checks: Counter::standalone(),
            gced: Counter::standalone(),
            violations: Counter::standalone(),
        }
    }
}

/// The check state of one object.
pub(crate) struct ObjectState<S: SequentialSpec> {
    checker: StreamingChecker<S>,
    /// Events of this object dropped at settle points so far.
    gced: u64,
    /// The first violation, latched; later events of the object are dropped.
    violation: Option<Box<PoolViolation>>,
}

impl<S: SequentialSpec> ObjectState<S> {
    pub(crate) fn new(spec: S) -> Self {
        ObjectState {
            checker: StreamingChecker::new(spec),
            gced: 0,
            violation: None,
        }
    }

    /// Feeds one event and settles the checker behind it.
    pub(crate) fn on_event(&mut self, object: u64, event: Event, counters: &Counters) {
        if self.violation.is_some() {
            return; // latched: the object stopped verifying, drop its events
        }
        let since = self.checker.decisions();
        let found = self.checker.push(event).cloned();
        // Once latched, the checker is at no settle point and drops nothing.
        let dropped = self.checker.settle() as u64;
        if dropped > 0 {
            self.gced += dropped;
            counters.gced.add(dropped);
        }
        self.record(object, since, found, counters);
    }

    /// The final decision over the window (a no-op while the frontier is
    /// alive: it decided every event on arrival) and the object's verdict.
    pub(crate) fn finalize(&mut self, object: u64, counters: &Counters) -> PoolVerdict {
        if self.violation.is_none() {
            let since = self.checker.decisions();
            let found = self.checker.decide().cloned();
            self.record(object, since, found, counters);
        }
        let violation = self.violation().cloned();
        violation.map_or(PoolVerdict::Correct, PoolVerdict::Violation)
    }

    /// Counts the checker's decisions since the `since`-th and latches the
    /// violation it `found`, if any.
    fn record(&mut self, object: u64, since: u64, found: Option<Verdict>, counters: &Counters) {
        let checks = self.checker.decisions() - since;
        if checks > 0 {
            counters.checks.add(checks);
        }
        let Some(Verdict::NotMember { violation }) = found else {
            return;
        };
        counters.violations.inc();
        let explanation = &violation.explanation;
        linrv_obs::event("pool.violation", || {
            format!("object {object} latched a violation: {explanation}")
        });
        self.violation = Some(Box::new(PoolViolation {
            object,
            witness: violation.history,
            explanation: violation.explanation,
            gced_events: self.gced,
        }));
    }

    pub(crate) fn violation(&self) -> Option<&PoolViolation> {
        self.violation.as_deref()
    }

    /// Events retained for this object: the window since its last settle point.
    pub(crate) fn retained(&self) -> usize {
        self.checker.events_consumed()
    }

    pub(crate) fn gced(&self) -> u64 {
        self.gced
    }

    pub(crate) fn checks(&self) -> u64 {
        self.checker.decisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{History, OpId, OpValue, Operation, ProcessId};
    use linrv_runtime::{Workload, WorkloadKind};
    use linrv_spec::ops;
    use linrv_spec::{
        CounterSpec, ObjectKind, PriorityQueueSpec, QueueSpec, RegisterSpec, SetSpec, SpecError,
        StackSpec,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(process: u32) -> ProcessId {
        ProcessId::new(process)
    }

    fn inv(process: u32, id: u64, op: Operation) -> Event {
        Event::invocation(p(process), OpId::new(id), op)
    }

    fn res(process: u32, id: u64, value: OpValue) -> Event {
        Event::response(p(process), OpId::new(id), value)
    }

    /// One object's check state with the detached counters it is fed with.
    struct Harness<S: SequentialSpec> {
        counters: Counters,
        state: ObjectState<S>,
    }

    impl<S: SequentialSpec> Harness<S> {
        fn new(spec: S) -> Self {
            Harness {
                state: ObjectState::new(spec),
                counters: Counters::default(),
            }
        }

        fn feed(&mut self, event: Event) {
            self.state.on_event(1, event, &self.counters);
        }

        /// Feeds `pairs` as a sequential history of process 0, ids from `first_id`.
        fn feed_pairs(&mut self, first_id: u64, pairs: &[(Operation, OpValue)]) {
            for (id, (op, value)) in (first_id..).zip(pairs) {
                self.feed(inv(0, id, op.clone()));
                self.feed(res(0, id, value.clone()));
            }
        }

        fn finalize(&mut self) -> PoolVerdict {
            self.state.finalize(1, &self.counters)
        }

        fn witness(&self) -> (u64, History) {
            let violation = self.state.violation().expect("a latched violation");
            (violation.gced_events, violation.witness.clone())
        }
    }

    fn incs(values: std::ops::Range<i64>) -> Vec<(Operation, OpValue)> {
        values
            .map(|i| (ops::counter::inc(), OpValue::Int(i)))
            .collect()
    }

    #[test]
    fn sequential_prefixes_are_gced_and_memory_stays_bounded() {
        let mut h = Harness::new(RegisterSpec::new());
        let mut pairs = Vec::new();
        for i in 0..100 {
            pairs.push((ops::register::write(i), OpValue::Bool(true)));
            pairs.push((ops::register::read(), OpValue::Int(i)));
        }
        h.feed_pairs(0, &pairs);
        assert_eq!(h.state.gced(), 400, "decided before any final check");
        h.finalize();
        assert!(h.state.violation().is_none());
        assert_eq!(h.state.retained(), 0, "nothing sequential is kept");
        assert_eq!(h.counters.gced.get(), 400);
        assert_eq!(h.state.checks(), 0, "the frontier needs no checker run");
        assert_eq!(h.counters.checks.get(), 0);
    }

    #[test]
    fn a_permanently_open_operation_blocks_every_settle_point() {
        let mut h = Harness::new(RegisterSpec::new());
        // Process 1 invokes and never responds: nothing after it settles.
        h.feed(inv(1, 1_000, ops::register::read()));
        let writes: Vec<_> = (0..100)
            .map(|i| (ops::register::write(i), OpValue::Bool(true)))
            .collect();
        h.feed_pairs(0, &writes);
        h.finalize();
        assert!(h.state.violation().is_none());
        assert_eq!((h.state.gced(), h.state.retained()), (0, 201));
        assert_eq!(h.state.checks(), 0, "the frontier decided every event");
    }

    #[test]
    fn violations_after_gc_are_latched_with_the_retained_witness() {
        let mut h = Harness::new(RegisterSpec::new());
        let mut pairs: Vec<_> = (0..10)
            .map(|i| (ops::register::write(i), OpValue::Bool(true)))
            .collect();
        // A read of a value never written: rejected from the settled state.
        pairs.push((ops::register::read(), OpValue::Int(-777)));
        h.feed_pairs(0, &pairs);
        let (gced, witness) = h.witness();
        assert_eq!(gced, 20, "the correct prefix was dropped first");
        assert_eq!(witness.len(), 2, "witness excludes the dropped prefix");
        assert_eq!(h.counters.violations.get(), 1);
        // Later events are dropped once latched.
        let retained = h.state.retained();
        h.feed(inv(0, 999, ops::register::read()));
        assert_eq!(h.state.retained(), retained);
    }

    #[test]
    fn concurrent_suffix_is_not_gced() {
        let mut h = Harness::new(RegisterSpec::new());
        // One complete pair, then a pending invocation: only the pair may go.
        h.feed_pairs(0, &[(ops::register::write(5), OpValue::Bool(true))]);
        h.feed(inv(1, 1, ops::register::read()));
        h.finalize();
        assert!(h.state.violation().is_none());
        assert_eq!(h.state.gced(), 2);
        assert_eq!(h.state.retained(), 1, "the pending invocation stays");
    }

    #[test]
    fn a_pending_invocation_alone_is_held_not_checked() {
        let mut h = Harness::new(RegisterSpec::new());
        h.feed(inv(0, 0, ops::register::write(5)));
        h.finalize();
        assert!(h.state.violation().is_none());
        assert_eq!(h.state.retained(), 1, "the held invocation counts");
        assert_eq!(h.state.checks(), 0);
    }

    #[test]
    fn seeded_base_states_keep_checking_correctly() {
        // Counter: after settling the base is a non-zero count; further
        // correct reads must pass and a stale read must fail.
        let mut h = Harness::new(CounterSpec::new());
        h.feed_pairs(0, &incs(0..6));
        h.finalize();
        assert!(h.state.violation().is_none());
        assert_eq!(h.state.gced(), 12, "increments are sequential, so dropped");
        // Correct read from the seeded state.
        h.feed_pairs(6, &[(ops::counter::read(), OpValue::Int(6))]);
        h.finalize();
        assert!(h.state.violation().is_none());
        // Stale read (pre-GC value): must be caught from the seeded state.
        h.feed_pairs(7, &[(ops::counter::read(), OpValue::Int(0))]);
        assert!(h.state.violation().is_some(), "latched on arrival");
    }

    /// Feeds the overlap `inv a, inv b, res a, res b` of two increments
    /// returning `first` and `second`, on ids `id` and `id + 1`.
    fn feed_overlap(h: &mut Harness<CounterSpec>, id: u64, first: i64, second: i64) {
        h.feed(inv(0, id, ops::counter::inc()));
        h.feed(inv(1, id + 1, ops::counter::inc()));
        h.feed(res(0, id, OpValue::Int(first)));
        h.feed(res(1, id + 1, OpValue::Int(second)));
    }

    #[test]
    fn an_overlap_is_decided_by_the_frontier_and_settled_behind() {
        let mut h = Harness::new(CounterSpec::new());
        h.feed_pairs(0, &incs(0..3));
        // Linearized b then a: two orders are open until both respond.
        feed_overlap(&mut h, 3, 4, 3);
        assert!(h.state.violation().is_none());
        assert_eq!((h.state.gced(), h.state.retained()), (10, 0));
        assert_eq!(h.state.checks(), 0);
    }

    #[test]
    fn an_overlap_no_linearization_explains_is_a_violation() {
        let mut h = Harness::new(CounterSpec::new());
        feed_overlap(&mut h, 0, 0, 0);
        assert!(h.state.violation().is_some(), "both increments saw 0");
        let mut h = Harness::new(CounterSpec::new());
        feed_overlap(&mut h, 0, 1, 0);
        h.finalize();
        assert!(h.state.violation().is_none());
    }

    #[test]
    fn behind_an_overlap_sequential_traffic_is_still_dropped() {
        let mut h = Harness::new(CounterSpec::new());
        feed_overlap(&mut h, 0, 0, 1);
        h.feed_pairs(2, &incs(2..202));
        assert!(h.state.retained() <= 2, "{} retained", h.state.retained());
        h.feed_pairs(202, &[(ops::counter::inc(), OpValue::Int(201))]);
        let (gced, witness) = h.witness();
        assert_eq!(gced, 404, "every event before the wrong response");
        assert_eq!(
            witness.events(),
            [
                inv(0, 202, ops::counter::inc()),
                res(0, 202, OpValue::Int(201))
            ]
        );
    }

    /// Seeded sequential histories of `kind`, with and without one corrupted
    /// response: the clean one is decided with nothing stored and no checker
    /// run, the corrupted one is latched at exactly the corrupted response.
    fn corrupted_responses_are_latched_where_they_arrive<S>(spec: S)
    where
        S: SequentialSpec + Clone,
    {
        let kind = spec.kind();
        let mut rng = StdRng::seed_from_u64(0x5eed ^ kind as u64);
        for round in 0..40 {
            let len = rng.gen_range(1..40usize);
            let operations =
                Workload::new(WorkloadKind::for_object(kind), round).operations_for(0, len);
            let mut state = spec.initial_state();
            let mut pairs = Vec::with_capacity(len);
            for op in operations {
                let (next, value) = spec.step_deterministic(&state, &op).expect("valid op");
                state = next;
                pairs.push((op, value));
            }

            let mut clean = Harness::new(spec.clone());
            clean.feed_pairs(0, &pairs);
            clean.finalize();
            assert!(clean.state.violation().is_none(), "{kind} round {round}");
            assert_eq!(clean.state.retained(), 0);
            assert_eq!(clean.state.checks(), 0);
            assert_eq!(clean.state.gced(), 2 * len as u64);

            let bad = rng.gen_range(0..len);
            let honest = pairs[bad].1.clone();
            pairs[bad].1 = if honest == OpValue::Int(-777) {
                OpValue::Int(-778)
            } else {
                OpValue::Int(-777)
            };
            let mut corrupted = Harness::new(spec.clone());
            corrupted.feed_pairs(0, &pairs);
            let (gced, witness) = corrupted.witness();
            assert_eq!(gced, 2 * bad as u64, "{kind} round {round}");
            assert_eq!(
                witness.events(),
                [
                    inv(0, bad as u64, pairs[bad].0.clone()),
                    res(0, bad as u64, pairs[bad].1.clone())
                ]
            );
            assert_eq!(corrupted.state.checks(), 1, "the one confirmation");
            assert_eq!(corrupted.counters.violations.get(), 1);
        }
    }

    #[test]
    fn corrupted_sequential_responses_are_latched_for_every_kind() {
        corrupted_responses_are_latched_where_they_arrive(CounterSpec::new());
        corrupted_responses_are_latched_where_they_arrive(RegisterSpec::new());
        corrupted_responses_are_latched_where_they_arrive(QueueSpec::new());
        corrupted_responses_are_latched_where_they_arrive(StackSpec::new());
        corrupted_responses_are_latched_where_they_arrive(SetSpec::new());
        corrupted_responses_are_latched_where_they_arrive(PriorityQueueSpec::new());
    }

    /// A register that may lose a write: both successors of a write
    /// acknowledge it.
    #[derive(Clone)]
    struct ForgetfulRegister;

    impl SequentialSpec for ForgetfulRegister {
        type State = i64;

        fn kind(&self) -> ObjectKind {
            // A kind without a specialized monitor: the general search runs
            // this specification, not the canonical register's.
            ObjectKind::Consensus
        }

        fn initial_state(&self) -> i64 {
            0
        }

        fn step(
            &self,
            state: &i64,
            operation: &Operation,
        ) -> Result<Vec<(i64, OpValue)>, SpecError> {
            match operation.kind.as_str() {
                "Write" => {
                    let value = operation.arg.as_int().unwrap_or(0);
                    Ok(vec![
                        (value, OpValue::Bool(true)),
                        (*state, OpValue::Bool(true)),
                    ])
                }
                "Read" => Ok(vec![(*state, OpValue::Int(*state))]),
                other => Err(SpecError::UnknownOperation(other.to_owned())),
            }
        }
    }

    #[test]
    fn ambiguous_successors_and_spec_errors_fall_back_rather_than_guess() {
        // Ambiguous: the write may or may not have taken effect, so two
        // configurations are left and nothing settles...
        let mut h = Harness::new(ForgetfulRegister);
        h.feed_pairs(0, &[(ops::register::write(9), OpValue::Bool(true))]);
        assert_eq!((h.state.gced(), h.state.retained()), (0, 2));
        // ...until a read tells them apart: the lost write explains it.
        h.feed_pairs(1, &[(ops::register::read(), OpValue::Int(0))]);
        assert_eq!((h.state.gced(), h.state.retained()), (4, 0));
        h.finalize();
        assert!(h.state.violation().is_none());
        assert_eq!(h.state.checks(), 0);
        // An operation outside the interface has no successor; the batch
        // checker confirms the violation at its response.
        let mut h = Harness::new(RegisterSpec::new());
        h.feed_pairs(0, &[(ops::counter::inc(), OpValue::Int(0))]);
        assert_eq!(h.witness().1.len(), 2);
        assert_eq!(h.state.checks(), 1);
    }
}
