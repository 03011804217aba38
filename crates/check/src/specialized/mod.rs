//! Specialized log-linear linearizability monitors and the dispatch that
//! routes histories to them.
//!
//! The general membership decision ([`LinSpec`]) is a Wing–Gong search:
//! worst-case exponential, NP-complete in general (Gibbons & Korach). But for
//! the concrete objects of this crate — queue, stack, set, priority queue,
//! register, counter — *unambiguous* histories (no two insertions of the same
//! value) admit log-linear decision procedures in the style of Lee & Mathur's
//! decrease-and-conquer monitors and Abdulla et al.'s per-type algorithms.
//! This module implements them behind [`StrategyChecker`], which is what a
//! *batch* decision of a whole history runs:
//! `linrv::is_linearizable`, the membership test of every `linrv` monitor's
//! verifier step (`MonitorBuilder::build` wires a [`StrategyChecker`] into the
//! self-enforced wrapper, so every Enforce-mode commit, `Monitor::check` and
//! `Monitor::certificate` decides through it), the pool's incremental checks,
//! and — for [`StreamingChecker`](crate::stream::StreamingChecker) and
//! `linrv check` — the one confirmation that turns an empty per-event frontier
//! into a violation certificate, plus every whole-prefix re-check after a
//! fallback. The frontier itself steps the sequential specification and does
//! not use these monitors.
//!
//! # Soundness architecture
//!
//! Every specialized monitor is *sound by construction* on both sides:
//!
//! * It answers [`SpecializedResult::Member`] only after explicitly
//!   constructing a candidate linearization order **and** validating it: the
//!   order must extend the real-time precedence relation (checked with the
//!   greedy point-assignment lemma in `util::respects_precedence`) and must
//!   replay through the sequential semantics reproducing every recorded
//!   response. A validated witness is a linearization regardless of how the
//!   heuristic that produced it works.
//! * It answers [`SpecializedResult::NotMember`] only from individually sound
//!   bad patterns (e.g. a value dequeued twice, a FIFO inversion forced by
//!   real-time order, an empty-dequeue whose window is necessarily covered).
//!   The monitors keep their per-value tables ordered by value (ordered maps,
//!   or vectors sorted by value in `matching`), so when several patterns fire
//!   the one reported is a function of the history alone.
//! * In every other situation it returns [`SpecializedResult::Fallback`] and
//!   the general search decides. A fallback is never wrong, only slower.
//!
//! # When the specialized path applies
//!
//! The monitors assume the **canonical sequential semantics** that
//! [`ObjectKind`] denotes in `linrv-spec` (`QueueSpec`, `StackSpec`, …): the
//! dispatch reads the object off [`SequentialSpec::kind`], whose contract is
//! that a spec naming a shipped object has that object's semantics. Within
//! that contract the dispatch falls back to the general search whenever
//!
//! * the history is **ambiguous** — two insertions of the same value (for the
//!   register: two writes of the same value, or any write of the initial value
//!   `0`), which breaks the unique-matching precondition of the log-linear
//!   algorithms;
//! * the history has **pending operations** the monitor cannot reason about
//!   (the queue monitor handles them; the others decline);
//! * the monitor's constructive phase cannot find a witness even though no
//!   sound bad pattern fired (**undecided**). On a member history that is a
//!   gap in the construction: the queue's, pending operations included, has
//!   none on the verdict matrix's corpora (its queue census). On a violating
//!   history it is a bad pattern the monitor lacks, and the general search
//!   names the violation instead;
//! * the object kind has no specialized monitor (`Consensus`).
//!
//! The queue, stack and priority queue share one front end, `matching`: one
//! scan that matches inserts to removals, with the pending-operation rule and
//! the patterns that follow from the matching alone. Its module docs state
//! those rules and the order the checks fire in.
//!
//! A monitor reads the caller's operation table (`&[OpRecord]`), never the
//! events: [`StrategyChecker`] indexes a history once ([`History::index`]) and
//! hands the table to the monitor and, on a fallback, to [`LinSpec`]. A caller
//! that keeps a table ([`OpTable`]; the verifier's sketch does) hands it in
//! through [`GenLinObject::contains_indexed`] and nothing is indexed.
//! [`check_specialized`] is the standalone entry that indexes on its own.

use crate::genlin::GenLinObject;
use crate::linearizability::LinSpec;
use crate::pattern::BadPattern;
use crate::witness::{Verdict, Violation};
use linrv_history::{History, OpRecord, OpTable, WellFormedError};
use linrv_spec::{ObjectKind, SequentialSpec};
use std::fmt;

mod counter;
mod matching;
mod pqueue;
mod queue;
mod register;
mod set;
mod stack;
mod util;

/// Why the specialized monitor declined and the general search ran instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Pending operations the monitor cannot reason about.
    Pending,
    /// Duplicate inserted values (or a write of the register's initial value):
    /// the unique-matching precondition fails.
    Ambiguous,
    /// No sound bad pattern fired, but the constructive phase found no
    /// validated witness either.
    Undecided,
    /// No specialized monitor exists for this object kind, the history is not
    /// well formed, or an insert's argument is not an integer.
    Unsupported,
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reason = match self {
            FallbackReason::Pending => "pending operations",
            FallbackReason::Ambiguous => "ambiguous (duplicate) values",
            FallbackReason::Undecided => "constructive phase undecided",
            FallbackReason::Unsupported => "no specialized monitor",
        };
        f.write_str(reason)
    }
}

/// Outcome of running just the specialized monitor for one object kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecializedResult {
    /// A linearization was constructed and validated: the history is a member.
    Member,
    /// A sound bad pattern was found; the [`BadPattern`] names it and carries
    /// the culprit values.
    NotMember(BadPattern),
    /// The monitor declines; the caller should run the general search.
    Fallback(FallbackReason),
}

/// Runs the specialized monitor for `kind` over `history`, without any
/// general-search fallback.
///
/// The standalone entry point, used by the benchmark suite: it indexes `history`
/// itself; most callers want [`StrategyChecker::check`] instead. The monitors
/// assume the canonical `linrv-spec` semantics of `kind` (see the
/// [module docs](self)).
pub fn check_specialized(kind: ObjectKind, history: &History) -> SpecializedResult {
    let (records, well_formed) = history.index();
    monitor(kind, &records, well_formed.is_ok())
}

/// The specialized monitor for `kind` over a history's operation table.
fn monitor(kind: ObjectKind, records: &[OpRecord], well_formed: bool) -> SpecializedResult {
    if !well_formed {
        // Let the general checker produce the canonical malformed-history
        // violation rather than duplicating its diagnostics here.
        return SpecializedResult::Fallback(FallbackReason::Unsupported);
    }
    match kind {
        ObjectKind::Queue => matching::check(&queue::QUEUE, records),
        // Only the queue monitor reasons about pending operations.
        ObjectKind::Consensus => SpecializedResult::Fallback(FallbackReason::Unsupported),
        _ if records.iter().any(|r| !r.is_complete()) => {
            SpecializedResult::Fallback(FallbackReason::Pending)
        }
        ObjectKind::Stack => matching::check(&stack::STACK, records),
        ObjectKind::Set => set::check(records),
        ObjectKind::PriorityQueue => matching::check(&pqueue::PRIORITY_QUEUE, records),
        ObjectKind::Counter => counter::check(records),
        ObjectKind::Register => register::check(records),
    }
}

/// Which decision procedure produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The specialized log-linear monitor decided.
    Specialized,
    /// The specialized monitor declined for the recorded reason and the
    /// general search decided.
    GeneralFallback(FallbackReason),
}

/// Linearizability checker with dispatch: the specialized log-linear monitor
/// of the spec's [`ObjectKind`] when it has one *and* the history meets its
/// preconditions (distinct inserted values, supported pending-operation
/// shape), the general [`LinSpec`] search everywhere else. The verdict is the
/// same either way; only the cost differs. The fallback rules are on the
/// [module page](self).
///
/// ```
/// use linrv_check::specialized::StrategyChecker;
/// use linrv_history::{HistoryBuilder, OpValue, ProcessId};
/// use linrv_spec::{ops::queue, QueueSpec};
///
/// let mut b = HistoryBuilder::new();
/// let p = ProcessId::new(0);
/// b.complete(p, queue::enqueue(1), OpValue::Bool(true));
/// b.complete(p, queue::dequeue(), OpValue::Int(1));
/// let checker = StrategyChecker::new(QueueSpec::new());
/// assert!(checker.check(&b.build()).is_member());
/// ```
pub struct StrategyChecker<S: SequentialSpec> {
    general: LinSpec<S>,
    kind: ObjectKind,
}

impl<S: SequentialSpec> StrategyChecker<S> {
    /// Creates a checker for `spec`.
    pub fn new(spec: S) -> Self {
        let kind = spec.kind();
        StrategyChecker {
            general: LinSpec::new(spec),
            kind,
        }
    }

    /// The general checker used on the fallback path.
    pub fn general(&self) -> &LinSpec<S> {
        &self.general
    }

    /// Decides membership. Equivalent to [`LinSpec::check`] but dispatched;
    /// see [`Self::check_routed`] to observe the routing.
    pub fn check(&self, history: &History) -> Verdict {
        self.check_routed(history).0
    }

    /// Decides membership and reports which procedure produced the verdict.
    pub fn check_routed(&self, history: &History) -> (Verdict, Route) {
        let (records, well_formed) = history.index();
        self.decide_routed(history, &records, well_formed)
    }

    /// [`Self::check_routed`] over the operation table and well-formedness of
    /// `history`, as [`History::index`] returns them, for a caller that already
    /// indexed it.
    fn decide_routed(
        &self,
        history: &History,
        records: &[OpRecord],
        well_formed: Result<(), WellFormedError>,
    ) -> (Verdict, Route) {
        match monitor(self.kind, records, well_formed.is_ok()) {
            SpecializedResult::Member => (
                Verdict::Member {
                    linearization: None,
                },
                Route::Specialized,
            ),
            SpecializedResult::NotMember(pattern) => (
                Verdict::NotMember {
                    violation: Violation::new(
                        history.clone(),
                        format!("specialized {} monitor: {pattern}", self.kind),
                    )
                    .with_pattern(pattern),
                },
                Route::Specialized,
            ),
            SpecializedResult::Fallback(reason) => (
                self.general.decide(history, records, well_formed),
                Route::GeneralFallback(reason),
            ),
        }
    }
}

impl<S: SequentialSpec> GenLinObject for StrategyChecker<S> {
    fn contains(&self, history: &History) -> bool {
        !self.check(history).is_violation()
    }

    fn contains_indexed(&self, history: &History, table: &OpTable) -> bool {
        !self
            .decide_routed(history, table.records(), table.well_formed())
            .0
            .is_violation()
    }

    /// Names the object, not the procedure: the same text as
    /// [`LinSpec`]'s, so a certificate does not depend on which one decided.
    fn description(&self) -> String {
        self.general.description()
    }
}

#[cfg(test)]
mod tests {
    use super::{check_specialized, FallbackReason, SpecializedResult};
    use crate::pattern::BadPattern;
    use linrv_history::{HistoryBuilder, OpValue, Operation, ProcessId};
    use linrv_spec::ops::{priority_queue, queue, stack};
    use linrv_spec::ObjectKind;

    /// The insert and removal operations of one insert/remove kind.
    struct Kind {
        kind: ObjectKind,
        add: fn(i64) -> Operation,
        remove: fn() -> Operation,
    }

    const KINDS: [Kind; 3] = [
        Kind {
            kind: ObjectKind::Queue,
            add: queue::enqueue,
            remove: queue::dequeue,
        },
        Kind {
            kind: ObjectKind::Stack,
            add: stack::push,
            remove: stack::pop,
        },
        Kind {
            kind: ObjectKind::PriorityQueue,
            add: priority_queue::insert,
            remove: priority_queue::extract_min,
        },
    ];

    /// One step of a case: an insert of the value with its acknowledgement,
    /// a removal with its answer, a foreign operation answered `empty`, or a
    /// removal left pending on a process of its own.
    enum Step {
        Add(i64, OpValue),
        Remove(OpValue),
        Foreign(&'static str),
        Pending,
    }

    use Step::{Add, Foreign, Pending, Remove};

    const T: OpValue = OpValue::Bool(true);

    fn history(kind: &Kind, steps: &[Step]) -> linrv_history::History {
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        for (index, step) in steps.iter().enumerate() {
            match step {
                Add(value, ack) => b.complete(p, (kind.add)(*value), ack.clone()),
                Remove(answer) => b.complete(p, (kind.remove)(), answer.clone()),
                Foreign(name) => b.complete(p, Operation::nullary(*name), OpValue::Empty),
                Pending => b.invoke(ProcessId::new(1 + index as u32), (kind.remove)()),
            };
        }
        b.build()
    }

    fn pattern(name: &'static str, message: &str, values: &[i64]) -> SpecializedResult {
        SpecializedResult::NotMember(BadPattern::new(name, message).with_values(values.to_vec()))
    }

    /// Every message of the insert/remove front end, word for word, and the
    /// order its checks fire in: scan-time shape errors, then the ambiguity
    /// gate, then the removals in ascending value order.
    #[test]
    fn insert_remove_messages_are_pinned() {
        // (case, steps, expected per kind in `KINDS` order)
        type Case = (&'static str, Vec<Step>, [SpecializedResult; 3]);
        let int = OpValue::Int;
        let cases: Vec<Case> = vec![
            (
                "insert acknowledged with false",
                vec![Add(1, OpValue::Bool(false))],
                [
                    pattern(
                        "bad-response",
                        "Enqueue(1) acknowledged with false instead of true",
                        &[1],
                    ),
                    pattern(
                        "bad-response",
                        "Push(1) acknowledged with false instead of true",
                        &[1],
                    ),
                    pattern(
                        "bad-response",
                        "Insert(1) acknowledged with false instead of true",
                        &[1],
                    ),
                ],
            ),
            (
                "removal answering true",
                vec![Remove(T)],
                [
                    pattern(
                        "bad-response",
                        "Dequeue returned true, expected an integer or empty",
                        &[],
                    ),
                    pattern(
                        "bad-response",
                        "Pop returned true, expected an integer or empty",
                        &[],
                    ),
                    pattern(
                        "bad-response",
                        "ExtractMin returned true, expected an integer or empty",
                        &[],
                    ),
                ],
            ),
            (
                "foreign operation",
                vec![Add(1, T), Foreign("Peek")],
                [
                    pattern("bad-response", "Peek is not a queue operation", &[]),
                    pattern("bad-response", "Peek is not a stack operation", &[]),
                    pattern(
                        "bad-response",
                        "Peek is not a priority-queue operation",
                        &[],
                    ),
                ],
            ),
            (
                "duplicate-remove",
                vec![Add(5, T), Remove(int(5)), Remove(int(5))],
                [
                    pattern("duplicate-remove", "value 5 dequeued 2 times", &[5]),
                    pattern("duplicate-remove", "value 5 popped 2 times", &[5]),
                    pattern("duplicate-remove", "value 5 extracted 2 times", &[5]),
                ],
            ),
            (
                "never-added",
                vec![Remove(int(41))],
                [
                    pattern("never-added", "value 41 dequeued but never enqueued", &[41]),
                    pattern("never-added", "value 41 popped but never pushed", &[41]),
                    pattern(
                        "never-added",
                        "value 41 extracted but never inserted",
                        &[41],
                    ),
                ],
            ),
            (
                "remove-before-add",
                vec![Remove(int(7)), Add(7, T)],
                [
                    pattern(
                        "remove-before-add",
                        "value 7 dequeued before its enqueue was invoked",
                        &[7],
                    ),
                    pattern(
                        "remove-before-add",
                        "value 7 popped before its push was invoked",
                        &[7],
                    ),
                    pattern(
                        "remove-before-add",
                        "value 7 extracted before its insert was invoked",
                        &[7],
                    ),
                ],
            ),
            (
                "covered-empty",
                vec![Add(1, T), Remove(OpValue::Empty), Remove(int(1))],
                [
                    pattern(
                        "covered-empty",
                        "a dequeue observed an empty queue inside a window where the queue \
                         is necessarily non-empty",
                        &[],
                    ),
                    pattern(
                        "covered-empty",
                        "a pop observed an empty stack inside a window where the stack \
                         is necessarily non-empty",
                        &[],
                    ),
                    pattern(
                        "covered-empty",
                        "an extraction observed an empty priority queue inside a window \
                         where it is necessarily non-empty",
                        &[],
                    ),
                ],
            ),
            (
                "more values forced out than pending removals",
                vec![Pending, Add(1, T), Add(2, T), Add(3, T), Remove(int(3))],
                [
                    pattern(
                        "order-inversion",
                        "FIFO inversion: 1, 2 enqueued before 3 but only 1 pending dequeue \
                         can take them",
                        &[1, 2, 3],
                    ),
                    SpecializedResult::Fallback(FallbackReason::Pending),
                    SpecializedResult::Fallback(FallbackReason::Pending),
                ],
            ),
            (
                "duplicate insert",
                vec![Add(3, T), Add(3, T), Remove(int(3))],
                [0, 1, 2].map(|_| SpecializedResult::Fallback(FallbackReason::Ambiguous)),
            ),
            (
                "a shape error outranks the ambiguity gate and the matching",
                vec![Remove(int(41)), Add(3, T), Add(3, T), Remove(T)],
                [
                    pattern(
                        "bad-response",
                        "Dequeue returned true, expected an integer or empty",
                        &[],
                    ),
                    pattern(
                        "bad-response",
                        "Pop returned true, expected an integer or empty",
                        &[],
                    ),
                    pattern(
                        "bad-response",
                        "ExtractMin returned true, expected an integer or empty",
                        &[],
                    ),
                ],
            ),
            (
                "the ambiguity gate outranks the matching",
                vec![Remove(int(41)), Add(3, T), Add(3, T)],
                [0, 1, 2].map(|_| SpecializedResult::Fallback(FallbackReason::Ambiguous)),
            ),
            (
                "removals are judged in ascending value order",
                vec![
                    Remove(int(9)),
                    Remove(int(4)),
                    Add(4, T),
                    Add(6, T),
                    Remove(int(6)),
                    Remove(int(6)),
                ],
                [
                    pattern(
                        "remove-before-add",
                        "value 4 dequeued before its enqueue was invoked",
                        &[4],
                    ),
                    pattern(
                        "remove-before-add",
                        "value 4 popped before its push was invoked",
                        &[4],
                    ),
                    pattern(
                        "remove-before-add",
                        "value 4 extracted before its insert was invoked",
                        &[4],
                    ),
                ],
            ),
        ];
        for (name, steps, expected) in cases {
            for (kind, expected) in KINDS.iter().zip(expected) {
                let result = check_specialized(kind.kind, &history(kind, &steps));
                assert_eq!(result, expected, "{} on {name}", kind.kind);
            }
        }
        // A non-integer insert argument is outside every monitor's matching.
        for kind in &KINDS {
            let mut b = HistoryBuilder::new();
            let add = (kind.add)(0);
            let odd = Operation::new(add.kind, OpValue::Bool(true));
            b.complete(ProcessId::new(0), odd, T);
            assert_eq!(
                check_specialized(kind.kind, &b.build()),
                SpecializedResult::Fallback(FallbackReason::Unsupported),
                "{}",
                kind.kind
            );
        }
    }
}
