//! Per-object incremental checking with checked-prefix garbage collection.
//!
//! Each object of a [`MonitorPool`](crate::MonitorPool) owns one [`CheckState`]:
//! the retained tail of its history plus a summarised *base state* standing in
//! for everything already verified and garbage-collected. Checker threads feed
//! events in, the state re-checks the tail on a geometric schedule (the one
//! `linrv_check::StreamingChecker` falls back to: total work ≈ 3× one final
//! check) and, after a passing check, GCs the maximal prefix whose
//! linearization is forced — so per-object memory is bounded by the object's
//! *concurrency*, not by its age.
//!
//! ## Why prefix GC is sound
//!
//! The GC'd prefix is the maximal strictly-alternating run of complete
//! `inv,res` pairs at the start of the retained tail. Within such a run every
//! operation responds before the next one invokes, and every later operation of
//! the tail invokes after the whole run responded, so **real-time order forces
//! every linearization to schedule exactly these operations first, in exactly
//! this order** (Definition 4.2's real-time condition). Replaying the run
//! through the specification therefore yields the unique state every
//! linearization of the full history must pass through; when the replay's
//! successor state is unique, the run can be replaced by that state without
//! changing the verdict of any future check. If some pair has *no* accepting
//! successor, the forced schedule itself is rejected — a genuine violation,
//! latched on the spot. If the successor is ambiguous (non-deterministic
//! specifications), GC stops there and keeps the rest of the tail.
//!
//! Checks from a non-initial base state go through the general search over a
//! seeded copy of the specification ([`SeededSpec`]); the specialized
//! log-linear monitors assume the canonical initial state and are only used
//! while the base *is* that state.

use crate::verdict::{PoolVerdict, PoolViolation};
use linrv_check::{LinSpec, StrategyChecker, Verdict};
use linrv_history::History;
use linrv_history::Operation;
use linrv_obs::Counter;
use linrv_spec::{ObjectKind, SequentialSpec, SpecError};

/// Check/GC counters shared across all objects of a pool. The handles are
/// [`linrv_obs`] counters: a pool wires them to its labeled registry series
/// (see `crate::metrics`), tests use detached standalone ones.
#[derive(Debug)]
pub(crate) struct Counters {
    /// Checker invocations (incremental + final).
    pub(crate) checks: Counter,
    /// Events garbage-collected after passing checks.
    pub(crate) gced: Counter,
    /// Events first covered by a check (the checked-prefix watermark).
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
    /// GC checked prefixes (true unless the pool disabled it to keep full
    /// witnesses).
    pub(crate) gc: bool,
    /// Completed-operation count triggering the first incremental check; the
    /// schedule doubles from there.
    pub(crate) first_check: usize,
}

/// The retained state of one object's incremental verification.
pub(crate) struct CheckState<S: SequentialSpec> {
    /// Summarised state of the GC'd prefix; the tail is checked from here.
    base: S::State,
    /// Whether `base` equals the specification's canonical initial state (the
    /// specialized checkers are only sound from there).
    base_is_initial: bool,
    /// Retained events: everything after the GC'd prefix.
    tail: History,
    /// Completed (responded) operations in the tail.
    completed: usize,
    /// Completed-count threshold for the next incremental check.
    next_check: usize,
    /// Tail length at the last check, so a final check can be skipped when
    /// nothing new arrived.
    checked_events: usize,
    /// Events of this object GC'd so far.
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
            base_is_initial: true,
            tail: History::new(),
            completed: 0,
            next_check: cfg.first_check.max(1),
            checked_events: 0,
            gced: 0,
            checks: 0,
            violation: None,
        }
    }

    /// Feeds one event; runs an incremental check (and GC) when the geometric
    /// schedule says so.
    pub(crate) fn on_event(
        &mut self,
        object: u64,
        event: linrv_history::Event,
        spec: &S,
        cfg: &CheckCfg,
        counters: &Counters,
    ) {
        if self.violation.is_some() {
            return; // latched: the object stopped verifying, drop its events
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

    /// Runs a final check over whatever arrived since the last one.
    pub(crate) fn finalize(&mut self, object: u64, spec: &S, cfg: &CheckCfg, counters: &Counters) {
        if self.violation.is_none() && self.tail.len() != self.checked_events {
            self.run_check(object, spec, cfg, counters);
        }
    }

    fn run_check(&mut self, object: u64, spec: &S, cfg: &CheckCfg, counters: &Counters) {
        self.checks += 1;
        counters.checks.inc();
        let newly_checked = self.tail.len().saturating_sub(self.checked_events);
        counters.checked_events.add(newly_checked as u64);
        self.checked_events = self.tail.len();
        let verdict = if self.base_is_initial {
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
        match verdict {
            Verdict::NotMember { violation } => {
                self.latch(object, violation.history, violation.explanation, counters);
            }
            // Inconclusive is not a violation; GC still runs — the prefix
            // replay below verifies the GC'd part independently of the main
            // check's verdict.
            Verdict::Member { .. } | Verdict::Inconclusive => {
                if cfg.gc {
                    self.gc(object, spec, counters);
                }
            }
        }
        self.next_check = (self.completed * 2).max(cfg.first_check.max(1));
    }

    /// GCs the maximal forced-linearization prefix of the tail (see the module
    /// docs for the soundness argument).
    fn gc(&mut self, object: u64, spec: &S, counters: &Counters) {
        let events = self.tail.events();
        let mut state = self.base.clone();
        let mut consumed = 0;
        while consumed + 1 < events.len() {
            let (inv, res) = (&events[consumed], &events[consumed + 1]);
            if !inv.is_invocation() || !res.is_response() || inv.op_id != res.op_id {
                break; // alternation ends: the rest is concurrent or pending
            }
            let (Some(op), Some(value)) = (inv.operation(), res.value()) else {
                break;
            };
            let Ok(successors) = spec.step(&state, op) else {
                break; // malformed operation: leave it for the main checker
            };
            let mut matching = successors.into_iter().filter(|(_, v)| v == value);
            let Some((next, _)) = matching.next() else {
                // The forced schedule itself is rejected by the specification:
                // no linearization of the full history exists.
                let witness = History::from_events(events[..consumed + 2].to_vec());
                let explanation = format!(
                    "operation {} with response {value} is not accepted by the \
                     specification in the state forced by the preceding events",
                    op.kind
                );
                self.latch(object, witness, explanation, counters);
                return;
            };
            if matching.any(|(other, _)| other != next) {
                break; // ambiguous successor: cannot summarise into one state
            }
            state = next;
            consumed += 2;
        }
        if consumed == 0 {
            return;
        }
        self.tail = History::from_events(events[consumed..].to_vec());
        self.completed -= consumed / 2;
        self.checked_events -= consumed;
        self.gced += consumed as u64;
        counters.gced.add(consumed as u64);
        self.base_is_initial = state == spec.initial_state();
        self.base = state;
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

    /// Events currently retained for this object.
    pub(crate) fn retained(&self) -> usize {
        self.tail.len()
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
    use linrv_history::{Event, OpId, OpValue, ProcessId};
    use linrv_spec::ops;
    use linrv_spec::{CounterSpec, RegisterSpec};

    const CFG: CheckCfg = CheckCfg {
        gc: true,
        first_check: 4,
    };

    fn p0() -> ProcessId {
        ProcessId::new(0)
    }

    fn feed_pairs(
        state: &mut CheckState<RegisterSpec>,
        spec: &RegisterSpec,
        counters: &Counters,
        pairs: &[(Operation, OpValue)],
    ) {
        for (id, (op, value)) in pairs.iter().enumerate() {
            let id = OpId::new(id as u64);
            state.on_event(
                1,
                Event::invocation(p0(), id, op.clone()),
                spec,
                &CFG,
                counters,
            );
            state.on_event(
                1,
                Event::response(p0(), id, value.clone()),
                spec,
                &CFG,
                counters,
            );
        }
    }

    #[test]
    fn sequential_prefixes_are_gced_and_memory_stays_bounded() {
        let spec = RegisterSpec::new();
        let counters = Counters::default();
        let mut state = CheckState::new(&spec, &CFG);
        let mut pairs = Vec::new();
        for i in 0..100 {
            pairs.push((ops::register::write(i), OpValue::Bool(true)));
            pairs.push((ops::register::read(), OpValue::Int(i)));
        }
        feed_pairs(&mut state, &spec, &counters, &pairs);
        state.finalize(1, &spec, &CFG, &counters);
        assert!(state.verdict().is_correct());
        assert!(state.gced() > 0, "sequential history must be GC'd");
        assert_eq!(
            state.retained(),
            0,
            "fully sequential + final check = empty tail"
        );
        assert_eq!(state.gced(), 400);
        assert_eq!(counters.gced.get(), 400);
        assert!(
            counters.checked_events.get() >= 400,
            "every event was covered by some check"
        );
        assert!(
            state.checks() > 1,
            "the geometric schedule checks repeatedly"
        );
    }

    #[test]
    fn violations_after_gc_are_latched_with_the_retained_witness() {
        let spec = RegisterSpec::new();
        let counters = Counters::default();
        let mut state = CheckState::new(&spec, &CFG);
        let mut pairs = Vec::new();
        for i in 0..10 {
            pairs.push((ops::register::write(i), OpValue::Bool(true)));
        }
        // A read of a value never written: rejected from the seeded base state.
        pairs.push((ops::register::read(), OpValue::Int(-777)));
        feed_pairs(&mut state, &spec, &counters, &pairs);
        state.finalize(1, &spec, &CFG, &counters);
        let verdict = state.verdict();
        let violation = verdict.violation().expect("violation");
        assert_eq!(violation.object, 1);
        assert!(
            violation.gced_events > 0,
            "the correct prefix was GC'd first"
        );
        assert!(
            violation.witness.len() < 22,
            "witness excludes the GC'd prefix"
        );
        assert_eq!(counters.violations.get(), 1);
        // Later events are dropped once latched.
        let retained = state.retained();
        state.on_event(
            1,
            Event::invocation(p0(), OpId::new(999), ops::register::read()),
            &spec,
            &CFG,
            &counters,
        );
        assert_eq!(state.retained(), retained);
    }

    #[test]
    fn concurrent_suffix_is_not_gced() {
        let spec = RegisterSpec::new();
        let counters = Counters::default();
        let mut state = CheckState::new(&spec, &CFG);
        // One complete pair, then a pending invocation: only the pair may go.
        state.on_event(
            1,
            Event::invocation(p0(), OpId::new(0), ops::register::write(5)),
            &spec,
            &CFG,
            &counters,
        );
        state.on_event(
            1,
            Event::response(p0(), OpId::new(0), OpValue::Bool(true)),
            &spec,
            &CFG,
            &counters,
        );
        state.on_event(
            1,
            Event::invocation(ProcessId::new(1), OpId::new(1), ops::register::read()),
            &spec,
            &CFG,
            &counters,
        );
        state.finalize(1, &spec, &CFG, &counters);
        assert!(state.verdict().is_correct());
        assert_eq!(state.gced(), 2);
        assert_eq!(state.retained(), 1, "the pending invocation stays");
    }

    #[test]
    fn seeded_base_states_keep_checking_correctly() {
        // Counter: after GC the base is a non-zero count; further correct
        // reads must pass and a stale read must fail.
        let spec = CounterSpec::new();
        let counters = Counters::default();
        let cfg = CheckCfg {
            gc: true,
            first_check: 2,
        };
        let mut state = CheckState::new(&spec, &cfg);
        let mut id = 0;
        let mut push = |state: &mut CheckState<CounterSpec>, op: Operation, val: OpValue| {
            state.on_event(
                9,
                Event::invocation(p0(), OpId::new(id), op),
                &spec,
                &cfg,
                &counters,
            );
            state.on_event(
                9,
                Event::response(p0(), OpId::new(id), val),
                &spec,
                &cfg,
                &counters,
            );
            id += 1;
        };
        for i in 0..6 {
            push(&mut state, ops::counter::inc(), OpValue::Int(i));
        }
        state.finalize(9, &spec, &cfg, &counters);
        assert!(state.verdict().is_correct());
        assert!(state.gced() >= 4, "increments are sequential, so GC'd");
        // Correct read from the seeded state.
        push(&mut state, ops::counter::read(), OpValue::Int(6));
        state.finalize(9, &spec, &cfg, &counters);
        assert!(state.verdict().is_correct());
        // Stale read (pre-GC value): must be caught from the seeded state.
        push(&mut state, ops::counter::read(), OpValue::Int(0));
        state.finalize(9, &spec, &cfg, &counters);
        assert!(!state.verdict().is_correct());
    }
}
