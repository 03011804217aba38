//! The `X(λ)` construction: from views to the sketch of a tight execution
//! (Section 7.3.3).
//!
//! Given the set `λ` of 4-tuples `(p_i, op_i, y_i, λ_i)` produced by an implementation
//! in the `DRV` class, the construction rebuilds a well-formed history:
//!
//! 1. order the distinct views in strictly ascending containment order
//!    `σ_1 ⊂ σ_2 ⊂ … ⊂ σ_m` (possible by containment comparability, Remark 7.2 (2));
//! 2. for each `σ_k`, first append the invocations of the pairs in `σ_k \ σ_{k-1}`,
//!    then append the responses of the tuples whose view is exactly `σ_k`.
//!
//! Operations that are announced (appear in some view) but have no tuple remain
//! pending. All histories obtainable by permuting events inside a step are equivalent
//! with identical `≺` relations, so `X(λ)` denotes an equivalence class; we return its
//! canonical representative (events within a step are emitted in `BTreeSet` order).
//!
//! Lemma 7.4: for a tight execution `E` of `A*`, `X(λ_E)` is equivalent to `E` with
//! `≺_E = ≺_{X(λ_E)}` — i.e. the views are a faithful static encoding of real-time
//! order.
//!
//! # One pass over one ordering
//!
//! Both steps read off the size-sorted order of the tuples that
//! `check_view_properties` has just verified (chain lemma, [`crate::view`] module docs):
//! once every size-sorted neighbour is a subset of the next, ascending size *is*
//! ascending containment and equal size *is* equal view. So a run of equal sizes is one
//! `σ_k` with exactly its responders — no view is compared with another to find the
//! distinct ones or to group the tuples — and `σ_k \ σ_{k-1}` is one ordered difference
//! against the borrowed previous view. With `t` tuples and views of at most `v` pairs a
//! sketch costs the check's `O(t log t + t·v)` pair visits plus `O(m·v)` for the `m ≤ t`
//! differences; the all-pairs formulation it replaces cost `O(t²·v)`. The sort is
//! stable and starts from `TupleSet` order, so steps and the events inside them come
//! out in the same canonical order as before.

use crate::view::{checked_chain, TupleSet, View, ViewPropertyError};
use linrv_history::{History, IntervalHistory};
use std::fmt;

/// Why a set of view tuples cannot be turned into a sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// The tuples violate one of the view properties of Remark 7.2; such a set cannot
    /// have been produced by a `DRV` implementation communicating through a
    /// linearizable snapshot.
    ViewProperty(ViewPropertyError),
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::ViewProperty(err) => write!(f, "invalid views: {err}"),
        }
    }
}

impl std::error::Error for SketchError {}

impl From<ViewPropertyError> for SketchError {
    fn from(err: ViewPropertyError) -> Self {
        SketchError::ViewProperty(err)
    }
}

/// Builds the interval-sequential sketch `X(λ)` from a set of view tuples.
///
/// # Errors
///
/// Returns [`SketchError::ViewProperty`] when the tuples violate Remark 7.2.
pub fn sketch_interval(tuples: &TupleSet) -> Result<IntervalHistory, SketchError> {
    // Ascending view size; the checks passed, so this is ascending containment order
    // and a run of equal sizes is one view with all of its responders.
    let chain = checked_chain(tuples)?;

    let mut interval = IntervalHistory::new();
    let empty = View::new();
    let mut previous = &empty;
    for responders in chain.chunk_by(|a, b| a.view.len() == b.view.len()) {
        let view = &responders[0].view;
        // Never empty: the first view holds its own pair, a later one is strictly
        // larger than the one before it.
        interval.push_invocations(
            view.difference(previous)
                .map(|pair| (pair.process, pair.op_id, pair.operation.clone()))
                .collect(),
        );
        interval.push_responses(
            responders
                .iter()
                .map(|t| (t.pair.process, t.pair.op_id, t.response.clone()))
                .collect(),
        );
        previous = view;
    }
    Ok(interval)
}

/// Builds the canonical flattened history of the sketch `X(λ)`.
///
/// # Errors
///
/// Returns [`SketchError::ViewProperty`] when the tuples violate Remark 7.2.
pub fn sketch_history(tuples: &TupleSet) -> Result<History, SketchError> {
    if linrv_obs::enabled() {
        crate::metrics::verifier_tuples().record(tuples.len() as u64);
    }
    linrv_obs::time(crate::metrics::sketch_ns(), || {
        Ok(sketch_interval(tuples)?.flatten())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{InvocationPair, ViewTuple};
    use linrv_history::{OpId, OpValue, Operation, ProcessId};
    use linrv_spec::ops::{queue, stack};

    fn pair(p: u32, id: u64, op: Operation) -> InvocationPair {
        InvocationPair {
            process: ProcessId::new(p),
            op_id: OpId::new(id),
            operation: op,
        }
    }

    fn view_of(pairs: &[&InvocationPair]) -> crate::view::View {
        pairs.iter().map(|p| (*p).clone()).collect()
    }

    /// Figure 9 of the paper: three processes, four operations, nested views.
    #[test]
    fn figure9_reconstruction() {
        let op1 = pair(0, 0, Operation::new("Apply", OpValue::Int(1)));
        let op1b = pair(0, 1, Operation::new("Apply", OpValue::Int(2)));
        let op2 = pair(1, 2, Operation::new("Apply", OpValue::Int(3)));
        let op3 = pair(2, 3, Operation::new("Apply", OpValue::Int(4)));

        let view = view_of(&[&op1]);
        let view_p = view_of(&[&op1, &op1b, &op2]);
        let view_pp = view_of(&[&op1, &op1b, &op2, &op3]);

        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(op1.clone(), OpValue::Str("a".into()), view));
        tuples.insert(ViewTuple::new(
            op1b.clone(),
            OpValue::Str("b".into()),
            view_p,
        ));
        tuples.insert(ViewTuple::new(
            op3.clone(),
            OpValue::Str("d".into()),
            view_pp,
        ));
        // (p2, op2) has no tuple: its operation is pending (as in the figure, where only
        // λ_E's three tuples appear).

        let interval = sketch_interval(&tuples).expect("valid views");
        // Steps: {op1} / resp a / {op1', op2} / resp b / {op3} / resp d
        assert_eq!(interval.len(), 6);
        let history = interval.flatten();
        assert!(history.is_well_formed());
        assert_eq!(history.complete_operations().count(), 3);
        assert_eq!(history.pending_operations().count(), 1);

        // Real-time order encoded by the views: op1 precedes op1', op1 precedes op3,
        // op1' precedes op3, while op2 is concurrent with op1' (same invocation step).
        use linrv_history::precedes_all;
        assert!(precedes_all(&history, OpId::new(0), OpId::new(1)));
        assert!(precedes_all(&history, OpId::new(0), OpId::new(3)));
        assert!(precedes_all(&history, OpId::new(1), OpId::new(3)));
        assert!(!precedes_all(&history, OpId::new(2), OpId::new(1)));
        assert!(!precedes_all(&history, OpId::new(1), OpId::new(2)));
    }

    /// Sequential announcements produce a sequential sketch.
    #[test]
    fn sequential_views_produce_sequential_history() {
        let a = pair(0, 0, queue::enqueue(1));
        let b = pair(1, 1, queue::dequeue());
        let va = view_of(&[&a]);
        let vb = view_of(&[&a, &b]);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(a.clone(), OpValue::Bool(true), va));
        tuples.insert(ViewTuple::new(b.clone(), OpValue::Int(1), vb));
        let history = sketch_history(&tuples).unwrap();
        assert!(history.is_sequential());
        assert_eq!(history.len(), 4);
    }

    /// Operations whose views are equal overlap in the sketch.
    #[test]
    fn equal_views_yield_concurrent_operations() {
        let a = pair(0, 0, stack::push(1));
        let b = pair(1, 1, stack::pop());
        let shared = view_of(&[&a, &b]);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(
            a.clone(),
            OpValue::Bool(true),
            shared.clone(),
        ));
        tuples.insert(ViewTuple::new(b.clone(), OpValue::Int(1), shared));
        let history = sketch_history(&tuples).unwrap();
        let order = linrv_history::RealTimeOrder::complete_order(&history);
        assert!(order.concurrent(OpId::new(0), OpId::new(1)));
    }

    #[test]
    fn empty_tuple_set_produces_empty_history() {
        let history = sketch_history(&TupleSet::new()).unwrap();
        assert!(history.is_empty());
    }

    #[test]
    fn invalid_views_are_rejected() {
        let a = pair(0, 0, queue::enqueue(1));
        let b = pair(1, 1, queue::enqueue(2));
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(
            a.clone(),
            OpValue::Bool(true),
            view_of(&[&a]),
        ));
        tuples.insert(ViewTuple::new(
            b.clone(),
            OpValue::Bool(true),
            view_of(&[&b]),
        ));
        let err = sketch_history(&tuples).unwrap_err();
        assert!(err.to_string().contains("incomparable"));
    }

    /// The flattened sketch is always a well-formed history (given valid views).
    #[test]
    fn sketches_are_well_formed() {
        let a = pair(0, 0, queue::enqueue(1));
        let b = pair(1, 1, queue::dequeue());
        let c = pair(2, 2, queue::dequeue());
        let v1 = view_of(&[&a, &b]);
        let v2 = view_of(&[&a, &b, &c]);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(a.clone(), OpValue::Bool(true), v1.clone()));
        tuples.insert(ViewTuple::new(b.clone(), OpValue::Empty, v1));
        tuples.insert(ViewTuple::new(c.clone(), OpValue::Int(1), v2));
        let history = sketch_history(&tuples).unwrap();
        assert!(history.is_well_formed());
        assert_eq!(history.complete_operations().count(), 3);
    }
}
