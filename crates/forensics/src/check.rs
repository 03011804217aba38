//! The kind-indexed membership check the forensics pipeline re-runs.
//!
//! Every phase of the pipeline (ddmin shrinking, interval narrowing, the
//! nearest-linearization diff) is a loop of candidate edits re-decided by the
//! checker, so the dispatch lives here once: specialized log-linear monitors
//! where they apply, the general Wing–Gong search everywhere else.

use linrv_check::{StrategyChecker, Verdict};
use linrv_history::History;
use linrv_spec::{with_spec, ObjectKind};

/// Checks `history` against the sequential specification of `kind` using the
/// strategy checker (specialized log-linear monitors with general fallback).
pub fn check_history(kind: ObjectKind, history: &History) -> Verdict {
    with_spec!(kind, |spec| StrategyChecker::new(spec).check(history))
}

/// The bad-pattern name a violating verdict diagnoses to, or `None` when the
/// verdict came from the general search (or the history passes).
///
/// The narrowing pass uses this as its stability guard: an edit is accepted
/// only if the diagnosis is unchanged, so narrowing can never trade the
/// original bug for a different (manufactured) one.
pub(crate) fn pattern_name(verdict: &Verdict) -> Option<&'static str> {
    verdict
        .violation()
        .and_then(|violation| violation.pattern.as_ref())
        .map(|pattern| pattern.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{HistoryBuilder, OpValue, ProcessId};
    use linrv_spec::ops::queue;

    #[test]
    fn dispatch_reaches_the_specialized_monitor() {
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        b.complete(p, queue::dequeue(), OpValue::Int(9));
        let history = b.build();
        let verdict = check_history(ObjectKind::Queue, &history);
        assert!(verdict.is_violation());
        assert_eq!(pattern_name(&verdict), Some("never-added"));
    }

    #[test]
    fn members_have_no_pattern_name() {
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        b.complete(p, queue::enqueue(1), OpValue::Bool(true));
        let verdict = check_history(ObjectKind::Queue, &b.build());
        assert_eq!(pattern_name(&verdict), None);
    }
}
