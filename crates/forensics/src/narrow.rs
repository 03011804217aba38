//! Interval narrowing: tighten the invocation/response windows of a minimal
//! witness while the violation (and its diagnosis) persists.
//!
//! After ddmin shrinking, every surviving operation is load-bearing, but its
//! *interval* may still be much wider than the conflict requires — wide
//! intervals mean few real-time precedence edges, which hides the forced
//! ordering the violation hinges on. Narrowing makes that ordering explicit
//! by repeatedly commuting an adjacent `(invocation of X, response of Y)`
//! event pair into `(response of Y, invocation of X)`: the swap shortens both
//! intervals by one slot and can only **add** a precedence edge (`Y ≺ X`
//! where the two previously overlapped), so the real-time order of the result
//! extends the witness's and a violation can only be preserved, never
//! repaired.
//!
//! Adding edges could in principle manufacture a *different*, artificially
//! sequential bug on top of the original one. Each swap is therefore guarded
//! twice: the candidate must still violate, **and** it must diagnose to the
//! same bad-pattern name (or the same absence of one) as the input — trading
//! the recorded race for a tidier but unrelated story is rejected.
//!
//! Termination: each accepted swap strictly shrinks the total interval
//! width, and swaps of like-kinded events (which would permute concurrent
//! operations without tightening anything) are never attempted.

use crate::check::{check_history, pattern_name};
use crate::metrics;
use linrv_history::History;
use linrv_spec::ObjectKind;

/// The result of narrowing one violating history.
#[derive(Debug, Clone)]
pub struct NarrowOutcome {
    /// The narrowed history: same operations and responses, tighter windows.
    pub history: History,
    /// Accepted swaps (each shortens two intervals by one event slot).
    pub steps: usize,
    /// Checker invocations spent on candidate swaps.
    pub checks: usize,
}

/// Narrows `failing` (a history [`check_history`] rejects) by tightening
/// operation windows while the violation and its diagnosis persist.
///
/// # Panics
///
/// Panics if `failing` is not actually a violation of `kind`.
pub fn narrow(kind: ObjectKind, failing: &History) -> NarrowOutcome {
    let verdict = check_history(kind, failing);
    assert!(
        verdict.is_violation(),
        "narrow requires a violating history"
    );
    let started = std::time::Instant::now();
    let diagnosis = pattern_name(&verdict);
    let mut current = failing.clone();
    let mut steps = 0usize;
    let mut checks = 0usize;
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i + 1 < current.events().len() {
            let first = &current.events()[i];
            let second = &current.events()[i + 1];
            if first.is_invocation() && second.is_response() && first.op_id != second.op_id {
                let mut events = current.events().to_vec();
                events.swap(i, i + 1);
                let candidate = History::from_events(events);
                checks += 1;
                if candidate.is_well_formed() {
                    let verdict = check_history(kind, &candidate);
                    if verdict.is_violation() && pattern_name(&verdict) == diagnosis {
                        current = candidate;
                        steps += 1;
                        progressed = true;
                    }
                }
            }
            i += 1;
        }
        if !progressed {
            break;
        }
    }
    metrics::narrow_steps_total().add(steps as u64);
    metrics::narrow_ns().record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    NarrowOutcome {
        history: current,
        steps,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{HistoryBuilder, OpValue, ProcessId, RealTimeOrder};
    use linrv_spec::ops::{queue, register};

    /// Two overlapping dequeues both returning 5 after one enqueue of 5: the
    /// duplicate-remove is independent of the overlap, so narrowing may
    /// serialize the two dequeues without changing the diagnosis.
    fn overlapping_duplicate_dequeues() -> History {
        let mut b = HistoryBuilder::new();
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        b.complete(p0, queue::enqueue(5), OpValue::Bool(true));
        let d0 = b.invoke(p0, queue::dequeue());
        let d1 = b.invoke(p1, queue::dequeue());
        b.respond(d0, OpValue::Int(5));
        b.respond(d1, OpValue::Int(5));
        b.build()
    }

    #[test]
    fn narrowing_preserves_violation_and_diagnosis() {
        let failing = overlapping_duplicate_dequeues();
        let before = pattern_name(&check_history(ObjectKind::Queue, &failing));
        assert_eq!(before, Some("duplicate-remove"));
        let outcome = narrow(ObjectKind::Queue, &failing);
        let after = check_history(ObjectKind::Queue, &outcome.history);
        assert!(after.is_violation());
        assert_eq!(pattern_name(&after), before);
        assert!(outcome.steps > 0, "the overlapping dequeues can serialize");
        assert_eq!(outcome.history.len(), failing.len());
    }

    #[test]
    fn narrowing_only_adds_precedence_edges() {
        let failing = overlapping_duplicate_dequeues();
        let outcome = narrow(ObjectKind::Queue, &failing);
        let before = RealTimeOrder::full_order(&failing);
        let after = RealTimeOrder::full_order(&outcome.history);
        assert!(before.subset_of(&after));
    }

    #[test]
    fn narrowing_is_deterministic() {
        let failing = overlapping_duplicate_dequeues();
        let a = narrow(ObjectKind::Queue, &failing);
        let b = narrow(ObjectKind::Queue, &failing);
        assert_eq!(a.history.events(), b.history.events());
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.checks, b.checks);
    }

    #[test]
    fn overlap_essential_to_the_diagnosis_is_kept() {
        // A stale read forced only if the read does NOT overlap the second
        // write; narrowing must not commute events when the violation (or its
        // name) would change. Build: w(1) complete, w(2) complete, read 1.
        let mut b = HistoryBuilder::new();
        let p0 = ProcessId::new(0);
        b.complete(p0, register::write(1), OpValue::Bool(true));
        b.complete(p0, register::write(2), OpValue::Bool(true));
        b.complete(p0, register::read(), OpValue::Int(1));
        let failing = b.build();
        assert_eq!(
            pattern_name(&check_history(ObjectKind::Register, &failing)),
            Some("stale-read")
        );
        let outcome = narrow(ObjectKind::Register, &failing);
        // Already sequential: nothing to tighten.
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.history.events(), failing.events());
    }
}
