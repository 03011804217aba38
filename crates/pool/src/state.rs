//! Per-object incremental checking: forced-order replay on arrival, and a
//! retained tail for everything replay cannot decide.
//!
//! Each object of a [`MonitorPool`](crate::MonitorPool) owns one [`CheckState`]:
//! a summarised *base state* standing in for everything already verified, at
//! most one held invocation, and the retained tail of events no replay could
//! decide. Checker threads feed events in. While the tail is empty the object
//! is in **eager mode**: every `inv,res` pair with nothing in between is
//! decided the moment its response arrives, by one `spec.step` from the base
//! state, and never stored — so a sequential object costs one state, not a
//! history, and a wrong response is latched at that response. Anything else
//! moves the object to the **tail path**: events are retained and the tail is
//! re-checked on a geometric schedule (the one
//! `linrv_check::StreamingChecker` falls back to: total work ≈ 3× one final
//! check).
//!
//! ## Why forced-order replay is sound
//!
//! **Lemma (forced linearization, per pair).** Let `o` be an operation whose
//! invocation arrives while no other operation of the object is open, and
//! whose response is the very next event of the object. Every earlier
//! operation responded before `o` was invoked, and every later operation is
//! invoked after `o` responded, so `o` follows all of the former and precedes
//! all of the latter in real time. Definition 4.2's real-time condition then
//! puts `o` at the same position — next — in *every* linearization of every
//! extension of the history.
//!
//! By induction over such pairs, every linearization passes through the same
//! sequence of operations up to `o`, hence (the successor being unique at
//! each step) through one abstract state — Bouajjani et al.'s reachable-state
//! set and Jayanti et al.'s tracker are both a singleton while nothing is
//! open. [`forced_step`] takes that one step:
//!
//! * exactly one successor returns the observed response: it becomes the new
//!   base state and the pair is dropped without changing the verdict of any
//!   future check (2 events counted as checked and GC'd);
//! * *no* successor returns it: the forced schedule itself is rejected, no
//!   linearization of any extension exists — a genuine violation, latched on
//!   the spot with the pair as its witness;
//! * the specification answers [`SpecError`] (an operation outside the
//!   object's interface), or two distinct successor states return the observed
//!   response (a non-deterministic specification): replay **falls back rather
//!   than guesses**. Picking one successor could reject a later response only
//!   the other explains, and a malformed operation has no successor to pick;
//!   the general search handles both, so the pair goes to the tail.
//!
//! ## The tail path, and the limit it keeps
//!
//! A second invocation while one is held (an overlap), an undecidable pair or
//! an ill-formed event moves the held invocation into the tail, followed by
//! every later event of the object. Checks of a tail from a non-initial base
//! state go through the general search over a seeded copy of the specification
//! ([`SeededSpec`]); the specialized log-linear monitors assume the canonical
//! initial state and are only used while the base *is* that state.
//!
//! Nothing is garbage-collected from a tail: its first event is by
//! construction one that forced-order replay could not consume (were it
//! consumable it would never have been stored), and the lemma says nothing
//! about what follows an operation whose place is not forced. So once an
//! overlap sits at the head of the tail the object's memory grows with its
//! age, as it did before replay moved to arrival time (the old post-check GC
//! stopped at the first overlap too and could never pass it). Lifting that
//! needs a GC point in the *middle* of a concurrent history — a frontier whose
//! configurations all agree on one state with nothing open (ROADMAP item
//! 3(d)).
//!
//! Pools built with `.gc(false)` promise the full history in every witness:
//! they never replay, every event goes to the tail.

use crate::verdict::{PoolVerdict, PoolViolation};
use linrv_check::{LinSpec, StrategyChecker, Verdict};
use linrv_history::{Event, History, Operation};
use linrv_obs::Counter;
use linrv_spec::{ObjectKind, SequentialSpec, SpecError};

/// Check/GC counters shared across all objects of a pool. The handles are
/// [`linrv_obs`] counters: a pool wires them to its labeled registry series
/// (see `crate::metrics`), tests use detached standalone ones.
#[derive(Debug)]
pub(crate) struct Counters {
    /// Checker invocations (incremental + final); replayed pairs are not
    /// checker invocations and count in `gced` instead.
    pub(crate) checks: Counter,
    /// Events verified by forced-order replay and summarised into a base state.
    pub(crate) gced: Counter,
    /// Events first covered by a check or a replay (the checked watermark).
    pub(crate) checked_events: Counter,
    /// Objects with a latched violation.
    pub(crate) violations: Counter,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            checks: Counter::standalone(),
            gced: Counter::standalone(),
            checked_events: Counter::standalone(),
            violations: Counter::standalone(),
        }
    }
}

/// Knobs the check state needs from the pool configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckCfg {
    /// Replay forced pairs on arrival and drop them (true unless the pool
    /// disabled it to keep full witnesses).
    pub(crate) gc: bool,
    /// Completed-operation count triggering a tail's first incremental check;
    /// the schedule doubles from there.
    pub(crate) first_check: usize,
}

/// What one forced-order step decided about an `inv,res` candidate pair.
enum Forced<State> {
    /// Exactly one successor state returns the observed response.
    Advance(State),
    /// No successor returns it: the forced schedule is rejected (explanation).
    Rejected(String),
    /// Not a matching pair, a [`SpecError`], or an ambiguous successor: not
    /// decidable by replay.
    Undecided,
}

/// The forced-linearization step (see the module docs): decides whether
/// `second` is the response of the invocation `first` and, if so, what the
/// specification says about taking that operation next from `state`.
fn forced_step<S: SequentialSpec>(
    spec: &S,
    state: &S::State,
    first: &Event,
    second: &Event,
) -> Forced<S::State> {
    if first.op_id != second.op_id || first.process != second.process {
        return Forced::Undecided;
    }
    let (Some(op), Some(value)) = (first.operation(), second.value()) else {
        return Forced::Undecided;
    };
    let Ok(successors) = spec.step(state, op) else {
        return Forced::Undecided;
    };
    let mut matching = successors.into_iter().filter(|(_, v)| v == value);
    let Some((next, _)) = matching.next() else {
        return Forced::Rejected(format!(
            "operation {} with response {value} is not accepted by the \
             specification in the state forced by the preceding events",
            op.kind
        ));
    };
    if matching.any(|(other, _)| other != next) {
        return Forced::Undecided;
    }
    Forced::Advance(next)
}

/// The retained state of one object's incremental verification.
pub(crate) struct CheckState<S: SequentialSpec> {
    /// Summarised state of the replayed prefix; the tail is checked from here.
    base: S::State,
    /// Eager mode only: the one open invocation, held until the next event
    /// decides whether its pair is forced.
    open: Option<Event>,
    /// Retained events: everything forced-order replay could not consume.
    /// Empty exactly while the object is in eager mode.
    tail: History,
    /// Completed (responded) operations in the tail.
    completed: usize,
    /// Completed-count threshold for the next incremental check.
    next_check: usize,
    /// Tail length at the last check, so a final check can be skipped when
    /// nothing new arrived.
    checked_events: usize,
    /// Events of this object replayed and dropped so far.
    gced: u64,
    /// Checker invocations for this object.
    checks: u64,
    /// The first violation, latched; later events of the object are dropped.
    violation: Option<PoolViolation>,
}

impl<S: SequentialSpec + Clone> CheckState<S> {
    pub(crate) fn new(spec: &S, cfg: &CheckCfg) -> Self {
        CheckState {
            base: spec.initial_state(),
            open: None,
            tail: History::new(),
            completed: 0,
            next_check: cfg.first_check.max(1),
            checked_events: 0,
            gced: 0,
            checks: 0,
            violation: None,
        }
    }

    /// Feeds one event. In eager mode a forced pair is decided here and never
    /// stored; otherwise the event joins the tail, which is re-checked when
    /// the geometric schedule says so.
    pub(crate) fn on_event(
        &mut self,
        object: u64,
        event: Event,
        spec: &S,
        cfg: &CheckCfg,
        counters: &Counters,
    ) {
        if self.violation.is_some() {
            return; // latched: the object stopped verifying, drop its events
        }
        if cfg.gc && self.tail.is_empty() {
            match self.open.take() {
                None if event.is_invocation() => {
                    self.open = Some(event);
                    return;
                }
                // A response with nothing open: ill-formed, the checker's call.
                None => {}
                Some(inv) => match forced_step(spec, &self.base, &inv, &event) {
                    Forced::Advance(next) => {
                        self.base = next;
                        self.gced += 2;
                        counters.gced.add(2);
                        counters.checked_events.add(2);
                        return;
                    }
                    Forced::Rejected(explanation) => {
                        let witness = History::from_events(vec![inv, event]);
                        self.latch(object, witness, explanation, counters);
                        return;
                    }
                    // Leaves eager mode: the held invocation heads the tail.
                    Forced::Undecided => self.tail.push(inv),
                },
            }
        }
        let is_response = event.is_response();
        self.tail.push(event);
        if is_response {
            self.completed += 1;
            if self.completed >= self.next_check {
                self.run_check(object, spec, cfg, counters);
            }
        }
    }

    /// Runs a final check over whatever reached the tail since the last one.
    /// A no-op in eager mode: every pair was decided on arrival, and a held
    /// invocation alone is a pending operation, which any linearization may
    /// drop.
    pub(crate) fn finalize(&mut self, object: u64, spec: &S, cfg: &CheckCfg, counters: &Counters) {
        if self.violation.is_none() && self.tail.len() != self.checked_events {
            self.run_check(object, spec, cfg, counters);
        }
    }

    fn run_check(&mut self, object: u64, spec: &S, cfg: &CheckCfg, counters: &Counters) {
        self.checks += 1;
        counters.checks.inc();
        let newly_checked = self.tail.len() - self.checked_events;
        counters.checked_events.add(newly_checked as u64);
        self.checked_events = self.tail.len();
        let verdict = if self.base == spec.initial_state() {
            // Canonical initial state: full strategy dispatch, specialized
            // log-linear monitors included.
            StrategyChecker::new(spec.clone()).check(&self.tail)
        } else {
            // Seeded base state: the general search only (specialized monitors
            // assume the canonical initial state).
            LinSpec::new(SeededSpec {
                spec: spec.clone(),
                base: self.base.clone(),
            })
            .check(&self.tail)
        };
        // Inconclusive is not a violation; the tail simply stays unverified
        // until a later check gets further.
        if let Verdict::NotMember { violation } = verdict {
            self.latch(object, violation.history, violation.explanation, counters);
        }
        self.next_check = (self.completed * 2).max(cfg.first_check.max(1));
    }

    fn latch(&mut self, object: u64, witness: History, explanation: String, counters: &Counters) {
        counters.violations.inc();
        linrv_obs::event("pool.violation", || {
            format!("object {object} latched a violation: {explanation}")
        });
        self.violation = Some(PoolViolation {
            object,
            witness,
            explanation,
            gced_events: self.gced,
        });
    }

    pub(crate) fn verdict(&self) -> PoolVerdict {
        match &self.violation {
            None => PoolVerdict::Correct,
            Some(violation) => PoolVerdict::Violation(violation.clone()),
        }
    }

    pub(crate) fn violation(&self) -> Option<&PoolViolation> {
        self.violation.as_ref()
    }

    /// Events currently retained for this object: the tail, or in eager mode
    /// the held invocation.
    pub(crate) fn retained(&self) -> usize {
        self.tail.len() + usize::from(self.open.is_some())
    }

    pub(crate) fn gced(&self) -> u64 {
        self.gced
    }

    pub(crate) fn checks(&self) -> u64 {
        self.checks
    }
}

/// A specification started from a non-initial base state: the summarised
/// history prefix the pool GC'd away. Only ever checked with the general
/// search — never with the specialized monitors, which assume the canonical
/// initial state.
struct SeededSpec<S: SequentialSpec> {
    spec: S,
    base: S::State,
}

impl<S: SequentialSpec> SequentialSpec for SeededSpec<S> {
    type State = S::State;

    fn kind(&self) -> ObjectKind {
        self.spec.kind()
    }

    fn initial_state(&self) -> Self::State {
        self.base.clone()
    }

    fn step(
        &self,
        state: &Self::State,
        operation: &Operation,
    ) -> Result<Vec<(Self::State, linrv_history::OpValue)>, SpecError> {
        self.spec.step(state, operation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{OpId, OpValue, ProcessId};
    use linrv_runtime::{Workload, WorkloadKind};
    use linrv_spec::ops;
    use linrv_spec::{CounterSpec, PriorityQueueSpec, QueueSpec, RegisterSpec, SetSpec, StackSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CFG: CheckCfg = CheckCfg {
        gc: true,
        first_check: 4,
    };

    fn p(process: u32) -> ProcessId {
        ProcessId::new(process)
    }

    fn inv(process: u32, id: u64, op: Operation) -> Event {
        Event::invocation(p(process), OpId::new(id), op)
    }

    fn res(process: u32, id: u64, value: OpValue) -> Event {
        Event::response(p(process), OpId::new(id), value)
    }

    /// One object's check state with the spec, configuration and detached
    /// counters it is fed with.
    struct Harness<S: SequentialSpec> {
        spec: S,
        cfg: CheckCfg,
        counters: Counters,
        state: CheckState<S>,
    }

    impl<S: SequentialSpec + Clone> Harness<S> {
        fn new(spec: S, cfg: CheckCfg) -> Self {
            Harness {
                state: CheckState::new(&spec, &cfg),
                counters: Counters::default(),
                spec,
                cfg,
            }
        }

        fn feed(&mut self, event: Event) {
            self.state
                .on_event(1, event, &self.spec, &self.cfg, &self.counters);
        }

        /// Feeds `pairs` as a sequential history of process 0, ids from `first_id`.
        fn feed_pairs(&mut self, first_id: u64, pairs: &[(Operation, OpValue)]) {
            for (id, (op, value)) in (first_id..).zip(pairs) {
                self.feed(inv(0, id, op.clone()));
                self.feed(res(0, id, value.clone()));
            }
        }

        fn finalize(&mut self) {
            self.state
                .finalize(1, &self.spec, &self.cfg, &self.counters);
        }
    }

    #[test]
    fn sequential_prefixes_are_gced_and_memory_stays_bounded() {
        let mut h = Harness::new(RegisterSpec::new(), CFG);
        let mut pairs = Vec::new();
        for i in 0..100 {
            pairs.push((ops::register::write(i), OpValue::Bool(true)));
            pairs.push((ops::register::read(), OpValue::Int(i)));
        }
        h.feed_pairs(0, &pairs);
        assert_eq!(h.state.gced(), 400, "decided before any final check");
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert_eq!(h.state.retained(), 0, "nothing sequential is ever stored");
        assert_eq!(h.state.gced(), 400);
        assert_eq!(h.counters.gced.get(), 400);
        assert_eq!(
            h.counters.checked_events.get(),
            400,
            "every event was covered exactly once"
        );
        assert_eq!(h.state.checks(), 0, "replay needs no checker invocation");
        assert_eq!(h.counters.checks.get(), 0);
    }

    #[test]
    fn a_permanently_open_head_keeps_the_tail_on_the_geometric_schedule() {
        let mut h = Harness::new(RegisterSpec::new(), CFG);
        // Process 1 invokes and never responds: nothing after it is forced.
        h.feed(inv(1, 1_000, ops::register::read()));
        let mut pairs = Vec::new();
        for i in 0..100 {
            pairs.push((ops::register::write(i), OpValue::Bool(true)));
        }
        h.feed_pairs(0, &pairs);
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert_eq!(h.state.gced(), 0, "the open head blocks every replay");
        assert_eq!(h.state.retained(), 201);
        // 4, 8, 16, 32, 64 completed operations, then the final check.
        assert_eq!(
            h.state.checks(),
            6,
            "the geometric schedule checks repeatedly"
        );
        assert_eq!(h.counters.checked_events.get(), 201);
    }

    #[test]
    fn violations_after_gc_are_latched_with_the_retained_witness() {
        let mut h = Harness::new(RegisterSpec::new(), CFG);
        let mut pairs = Vec::new();
        for i in 0..10 {
            pairs.push((ops::register::write(i), OpValue::Bool(true)));
        }
        // A read of a value never written: rejected from the seeded base state.
        pairs.push((ops::register::read(), OpValue::Int(-777)));
        h.feed_pairs(0, &pairs);
        h.finalize();
        let verdict = h.state.verdict();
        let violation = verdict.violation().expect("violation");
        assert_eq!(violation.object, 1);
        assert_eq!(
            violation.gced_events, 20,
            "the correct prefix was GC'd first"
        );
        assert_eq!(
            violation.witness.len(),
            2,
            "witness excludes the GC'd prefix"
        );
        assert_eq!(h.counters.violations.get(), 1);
        // Later events are dropped once latched.
        let retained = h.state.retained();
        h.feed(inv(0, 999, ops::register::read()));
        assert_eq!(h.state.retained(), retained);
    }

    #[test]
    fn concurrent_suffix_is_not_gced() {
        let mut h = Harness::new(RegisterSpec::new(), CFG);
        // One complete pair, then a pending invocation: only the pair may go.
        h.feed_pairs(0, &[(ops::register::write(5), OpValue::Bool(true))]);
        h.feed(inv(1, 1, ops::register::read()));
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert_eq!(h.state.gced(), 2);
        assert_eq!(h.state.retained(), 1, "the pending invocation stays");
    }

    #[test]
    fn a_pending_invocation_alone_is_held_not_checked() {
        let mut h = Harness::new(RegisterSpec::new(), CFG);
        h.feed(inv(0, 0, ops::register::write(5)));
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert_eq!(h.state.retained(), 1, "the held invocation counts");
        assert!(h.state.tail.is_empty() && h.state.open.is_some());
        assert_eq!(h.state.checks(), 0);
    }

    #[test]
    fn seeded_base_states_keep_checking_correctly() {
        // Counter: after replay the base is a non-zero count; further correct
        // reads must pass and a stale read must fail.
        let cfg = CheckCfg {
            gc: true,
            first_check: 2,
        };
        let mut h = Harness::new(CounterSpec::new(), cfg);
        let incs: Vec<_> = (0..6)
            .map(|i| (ops::counter::inc(), OpValue::Int(i)))
            .collect();
        h.feed_pairs(0, &incs);
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert_eq!(h.state.gced(), 12, "increments are sequential, so GC'd");
        // Correct read from the seeded state.
        h.feed_pairs(6, &[(ops::counter::read(), OpValue::Int(6))]);
        h.finalize();
        assert!(h.state.verdict().is_correct());
        // Stale read (pre-GC value): must be caught from the seeded state.
        h.feed_pairs(7, &[(ops::counter::read(), OpValue::Int(0))]);
        assert!(!h.state.verdict().is_correct(), "latched on arrival");
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
    fn an_overlap_leaves_eager_mode_and_is_decided_by_the_tail_path() {
        let mut h = Harness::new(CounterSpec::new(), CFG);
        let incs: Vec<_> = (0..3)
            .map(|i| (ops::counter::inc(), OpValue::Int(i)))
            .collect();
        h.feed_pairs(0, &incs);
        h.feed(inv(0, 3, ops::counter::inc()));
        assert!(h.state.open.is_some() && h.state.tail.is_empty());
        h.feed(inv(1, 4, ops::counter::inc()));
        assert!(h.state.open.is_none(), "the overlap ends eager mode");
        assert_eq!(
            h.state.tail.events()[0].op_id,
            OpId::new(3),
            "the held invocation heads the tail"
        );
        // Linearized b then a: only the general search from the seeded base
        // state (3) can tell.
        h.feed(res(0, 3, OpValue::Int(4)));
        h.feed(res(1, 4, OpValue::Int(3)));
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert_eq!(h.state.checks(), 1);
        assert_eq!((h.state.gced(), h.state.retained()), (6, 4));
        // The limit this state keeps: behind an overlap nothing is forced, so
        // sequential traffic is retained and re-checked, not replayed.
        h.feed_pairs(5, &[(ops::counter::inc(), OpValue::Int(5))]);
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert_eq!((h.state.gced(), h.state.retained()), (6, 6));
        assert_eq!(h.state.checks(), 2);
        // ...and a wrong response there is still caught, with the whole tail
        // as witness.
        h.feed_pairs(6, &[(ops::counter::inc(), OpValue::Int(5))]);
        h.finalize();
        let verdict = h.state.verdict();
        let violation = verdict.violation().expect("a repeated count");
        assert_eq!(violation.gced_events, 6);
        assert_eq!(violation.witness.events()[0].op_id, OpId::new(3));
    }

    #[test]
    fn an_overlap_no_linearization_explains_is_a_violation() {
        let mut h = Harness::new(CounterSpec::new(), CFG);
        feed_overlap(&mut h, 0, 0, 0);
        h.finalize();
        assert!(!h.state.verdict().is_correct(), "both increments saw 0");
        let mut h = Harness::new(CounterSpec::new(), CFG);
        feed_overlap(&mut h, 0, 1, 0);
        h.finalize();
        assert!(h.state.verdict().is_correct());
    }

    #[test]
    fn without_gc_every_event_is_retained_and_nothing_is_replayed() {
        let cfg = CheckCfg {
            gc: false,
            first_check: 4,
        };
        let mut h = Harness::new(RegisterSpec::new(), cfg);
        let writes: Vec<_> = (0..10)
            .map(|i| (ops::register::write(i), OpValue::Bool(true)))
            .collect();
        h.feed_pairs(0, &writes);
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert!(h.state.open.is_none());
        assert_eq!((h.state.gced(), h.state.retained()), (0, 20));
        assert_eq!(h.state.checks(), 3, "4 and 8 completed, then the final one");
        // The witness of a violation is the full history.
        h.feed_pairs(10, &[(ops::register::read(), OpValue::Int(-1))]);
        h.finalize();
        let verdict = h.state.verdict();
        let violation = verdict.violation().expect("a value never written");
        assert_eq!((violation.gced_events, violation.witness.len()), (0, 22));
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

            let mut clean = Harness::new(spec.clone(), CFG);
            clean.feed_pairs(0, &pairs);
            clean.finalize();
            assert!(clean.state.verdict().is_correct(), "{kind} round {round}");
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
            let mut corrupted = Harness::new(spec.clone(), CFG);
            corrupted.feed_pairs(0, &pairs);
            let verdict = corrupted.state.verdict();
            let violation = verdict
                .violation()
                .unwrap_or_else(|| panic!("{kind} round {round}: response {bad} not caught"));
            assert_eq!(violation.gced_events, 2 * bad as u64);
            assert_eq!(
                violation.witness.events(),
                [
                    inv(0, bad as u64, pairs[bad].0.clone()),
                    res(0, bad as u64, pairs[bad].1.clone())
                ]
            );
            assert_eq!(corrupted.state.checks(), 0);
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
        // Ambiguous: the write may or may not have taken effect, so replay
        // must not pick; the later read of 0 is explained by the lost write.
        let mut h = Harness::new(ForgetfulRegister, CFG);
        h.feed_pairs(
            0,
            &[
                (ops::register::write(9), OpValue::Bool(true)),
                (ops::register::read(), OpValue::Int(0)),
            ],
        );
        assert_eq!((h.state.gced(), h.state.retained()), (0, 4));
        h.finalize();
        assert!(h.state.verdict().is_correct());
        assert_eq!(h.state.checks(), 1);
        // An operation outside the interface: the checker's verdict, not ours.
        let mut h = Harness::new(RegisterSpec::new(), CFG);
        h.feed_pairs(0, &[(ops::counter::inc(), OpValue::Int(0))]);
        assert_eq!((h.state.gced(), h.state.retained()), (0, 2));
        assert!(h.state.violation().is_none(), "replay does not judge it");
    }
}
