//! The `GenLin` family of abstract objects (Definition 7.2).

use linrv_history::{similar, History, OpTable};

/// An abstract object in the sense of Section 7.1: a set of well-formed finite
/// histories, represented by its membership predicate. The associated correctness
/// condition is membership itself.
///
/// # The `GenLin` closure contract
///
/// Implementations of this trait are expected to describe objects in the **GenLin**
/// family (Definition 7.2): the represented set of histories must be
///
/// 1. **prefix-closed** — if `F` is in the object, every prefix of `F` is too, and
/// 2. **similarity-closed** — if `F` is in the object, every history similar to `F`
///    (Definition 7.1) is too.
///
/// Lemma 7.1 shows linearizability with respect to any sequential object has both
/// closure properties; the same holds for set- and interval-linearizability. The
/// closure contract cannot be enforced by the compiler, so [`check_closure_on`] is
/// provided to exercise it on sample histories (used heavily by the property tests).
pub trait GenLinObject: Send + Sync {
    /// Membership: does `history` belong to the abstract object?
    ///
    /// Histories that are not well formed are never members.
    fn contains(&self, history: &History) -> bool;

    /// [`contains`](Self::contains) for a caller that already holds `table`, the
    /// operation table of `history` (what [`History::index`] returns), so that an
    /// object that reads the table need not index `history` again. The verifier's
    /// sketch keeps its table across steps and decides through this.
    fn contains_indexed(&self, history: &History, table: &OpTable) -> bool {
        let _ = table;
        self.contains(history)
    }

    /// Human-readable description of the object (used in ERROR reports).
    fn description(&self) -> String;
}

impl<T: GenLinObject + ?Sized> GenLinObject for &T {
    fn contains(&self, history: &History) -> bool {
        (**self).contains(history)
    }

    fn contains_indexed(&self, history: &History, table: &OpTable) -> bool {
        (**self).contains_indexed(history, table)
    }

    fn description(&self) -> String {
        (**self).description()
    }
}

impl<T: GenLinObject + ?Sized> GenLinObject for std::sync::Arc<T> {
    fn contains(&self, history: &History) -> bool {
        (**self).contains(history)
    }

    fn contains_indexed(&self, history: &History, table: &OpTable) -> bool {
        (**self).contains_indexed(history, table)
    }

    fn description(&self) -> String {
        (**self).description()
    }
}

impl<T: GenLinObject + ?Sized> GenLinObject for Box<T> {
    fn contains(&self, history: &History) -> bool {
        (**self).contains(history)
    }

    fn contains_indexed(&self, history: &History, table: &OpTable) -> bool {
        (**self).contains_indexed(history, table)
    }

    fn description(&self) -> String {
        (**self).description()
    }
}

/// Outcome of exercising the GenLin closure properties on a sample history.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClosureReport {
    /// Lengths of prefixes of a member history that were (incorrectly) not members.
    pub prefix_violations: Vec<usize>,
    /// `true` when a history similar to a member history was (incorrectly) not a
    /// member. The offending pair is reported by the caller's test.
    pub similarity_violation: bool,
}

impl ClosureReport {
    /// Returns `true` when no violation was observed.
    pub fn is_clean(&self) -> bool {
        self.prefix_violations.is_empty() && !self.similarity_violation
    }
}

/// Exercises the prefix-closure half of the GenLin contract: if `history` is a member
/// of `object`, every prefix must be as well. Also exercises similarity closure for the
/// canonical "complete the pending operations as in `history` itself" witnesses when
/// `candidates` supplies alternative histories to compare against.
///
/// Returns a [`ClosureReport`] listing any violations. This is a *testing aid*, not a
/// proof: it can only refute closure, never establish it.
pub fn check_closure_on(
    object: &dyn GenLinObject,
    history: &History,
    candidates: &[History],
) -> ClosureReport {
    let mut report = ClosureReport::default();
    if !object.contains(history) {
        return report;
    }
    for (len, prefix) in history.prefixes().enumerate() {
        if !object.contains(&prefix) {
            report.prefix_violations.push(len);
        }
    }
    for candidate in candidates {
        if similar(candidate, history).is_some() && !object.contains(candidate) {
            report.similarity_violation = true;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{HistoryBuilder, OpValue, Operation, ProcessId};

    /// The trivial abstract object containing every well-formed history.
    struct Anything;
    impl GenLinObject for Anything {
        fn contains(&self, history: &History) -> bool {
            history.is_well_formed()
        }
        fn description(&self) -> String {
            "any well-formed history".into()
        }
    }

    /// A deliberately non-prefix-closed object: only histories of even length.
    struct EvenLength;
    impl GenLinObject for EvenLength {
        fn contains(&self, history: &History) -> bool {
            history.is_well_formed() && history.len() % 2 == 0
        }
        fn description(&self) -> String {
            "even-length histories (not prefix closed)".into()
        }
    }

    fn sample() -> History {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(ProcessId::new(0), Operation::new("Push", OpValue::Int(1)));
        b.respond(a, OpValue::Bool(true));
        b.build()
    }

    #[test]
    fn trivially_closed_object_reports_clean() {
        let report = check_closure_on(&Anything, &sample(), &[]);
        assert!(report.is_clean());
    }

    #[test]
    fn prefix_violations_are_detected() {
        let report = check_closure_on(&EvenLength, &sample(), &[]);
        assert_eq!(report.prefix_violations, vec![1]);
        assert!(!report.is_clean());
    }

    #[test]
    fn non_member_histories_yield_empty_reports() {
        let mut b = HistoryBuilder::new();
        b.invoke(ProcessId::new(0), Operation::nullary("Pop"));
        let odd = b.build();
        let report = check_closure_on(&EvenLength, &odd, &[]);
        assert!(report.is_clean());
    }

    #[test]
    fn trait_objects_compose_through_smart_pointers() {
        let boxed: Box<dyn GenLinObject> = Box::new(Anything);
        assert!(boxed.contains(&sample()));
        let arc: std::sync::Arc<dyn GenLinObject> = std::sync::Arc::new(Anything);
        assert!(arc.contains(&sample()));
        assert_eq!(
            (&Anything as &dyn GenLinObject).description(),
            "any well-formed history"
        );
    }
}
