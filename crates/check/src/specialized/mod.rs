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
//!   The monitors keep their per-value tables in ordered maps, so when several
//!   patterns fire the one reported is a function of the history alone.
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
//!   (the queue monitor handles pending operations natively; the others
//!   decline);
//! * the monitor's constructive phase cannot find a witness even though no
//!   sound bad pattern fired (**undecided** — rare, but possible because the
//!   greedy construction is not complete);
//! * the object kind has no specialized monitor (`Consensus`).
//!
//! A monitor reads the caller's operation table (`&[OpRecord]`), never the
//! events: [`StrategyChecker`] indexes a history once ([`History::index`]) and
//! hands the table to the monitor and, on a fallback, to [`LinSpec`].
//! [`check_specialized`] is the standalone entry that indexes on its own.

use crate::genlin::GenLinObject;
use crate::linearizability::LinSpec;
use crate::pattern::BadPattern;
use crate::witness::{Verdict, Violation};
use linrv_history::{History, OpRecord};
use linrv_spec::{ObjectKind, SequentialSpec};
use std::fmt;

mod counter;
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
    /// No specialized monitor exists for this object kind, or the history is
    /// not well formed.
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
        ObjectKind::Queue => queue::check(records),
        // Only the queue monitor reasons about pending operations.
        ObjectKind::Consensus => SpecializedResult::Fallback(FallbackReason::Unsupported),
        _ if records.iter().any(|r| !r.is_complete()) => {
            SpecializedResult::Fallback(FallbackReason::Pending)
        }
        ObjectKind::Stack => stack::check(records),
        ObjectKind::Set => set::check(records),
        ObjectKind::PriorityQueue => pqueue::check(records),
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
        match monitor(self.kind, &records, well_formed.is_ok()) {
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
                self.general.decide(history, &records, well_formed),
                Route::GeneralFallback(reason),
            ),
        }
    }
}

impl<S: SequentialSpec> GenLinObject for StrategyChecker<S> {
    fn contains(&self, history: &History) -> bool {
        !self.check(history).is_violation()
    }

    /// Names the object, not the procedure: the same text as
    /// [`LinSpec`]'s, so a certificate does not depend on which one decided.
    fn description(&self) -> String {
        self.general.description()
    }
}
