//! The real-time order over the operations of a history.
//!
//! The paper uses two closely related orders: `<_E` (Definition 4.2) over the
//! *complete* operations of `E`, where `op <_E op'` iff `res(op)` precedes `inv(op')`
//! in `E`, and `≺_E` (Section 7.1), the same relation extended to *all* operations,
//! complete and pending. Only `≺_E` is materialised: similarity (Definition 7.1)
//! compares it, and on a history with no pending operation it is `<_E`.
//!
//! It is an irreflexive strict partial order. Two operations unrelated by the order
//! are *concurrent*.

use crate::history::History;
use crate::op::OpId;
use std::collections::BTreeSet;

/// A materialised real-time order over the operations of a history.
///
/// The order is represented as the set of ordered pairs `(a, b)` with `a` before `b`;
/// this makes the subset test `≺_{E'} ⊆ ≺_F` of similarity (Definition 7.1) direct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealTimeOrder {
    pairs: BTreeSet<(OpId, OpId)>,
    ops: BTreeSet<OpId>,
}

impl RealTimeOrder {
    /// Builds `≺_E` over all (complete and pending) operations of `history`.
    pub fn full_order(history: &History) -> Self {
        let records = history.operations();
        let ops = records.iter().map(|r| r.id).collect();
        let mut pairs = BTreeSet::new();
        for a in &records {
            let Some(res_a) = a.response_index else {
                continue;
            };
            for b in &records {
                if a.id != b.id && res_a < b.invocation_index {
                    pairs.insert((a.id, b.id));
                }
            }
        }
        RealTimeOrder { pairs, ops }
    }

    /// Returns `true` when `a` is ordered before `b`.
    pub fn before(&self, a: OpId, b: OpId) -> bool {
        self.pairs.contains(&(a, b))
    }

    /// Returns `true` when the two operations are concurrent (unordered and distinct).
    pub fn concurrent(&self, a: OpId, b: OpId) -> bool {
        a != b && !self.before(a, b) && !self.before(b, a)
    }

    /// The ordered pairs of the relation.
    pub fn pairs(&self) -> &BTreeSet<(OpId, OpId)> {
        &self.pairs
    }

    /// The operations over which the relation is defined.
    pub fn operations(&self) -> &BTreeSet<OpId> {
        &self.ops
    }

    /// Returns `true` when every pair of `self` is also a pair of `other`
    /// (i.e. `self ⊆ other` as relations).
    pub fn subset_of(&self, other: &RealTimeOrder) -> bool {
        self.pairs.is_subset(&other.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::op::{OpValue, Operation};
    use crate::process::ProcessId;

    /// p1: |--A--|      |--C--|
    /// p2:      |-----B-----|
    fn overlapping() -> (History, OpId, OpId, OpId) {
        let p1 = ProcessId::new(0);
        let p2 = ProcessId::new(1);
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p1, Operation::new("Push", OpValue::Int(1)));
        b.respond(a, OpValue::Bool(true));
        let bb = b.invoke(p2, Operation::nullary("Pop"));
        let c = b.invoke(p1, Operation::new("Push", OpValue::Int(2)));
        b.respond(bb, OpValue::Int(1));
        b.respond(c, OpValue::Bool(true));
        (b.build(), a, bb, c)
    }

    #[test]
    fn precedence_and_concurrency() {
        let (h, a, b, c) = overlapping();
        let order = RealTimeOrder::full_order(&h);
        assert!(order.before(a, b));
        assert!(order.before(a, c));
        assert!(!order.before(b, c));
        assert!(!order.before(c, b));
        assert!(order.concurrent(b, c));
    }

    #[test]
    fn pending_operations_related_only_by_full_order() {
        let p1 = ProcessId::new(0);
        let p2 = ProcessId::new(1);
        let mut builder = HistoryBuilder::new();
        let a = builder.invoke(p1, Operation::new("Push", OpValue::Int(1)));
        builder.respond(a, OpValue::Bool(true));
        let pending = builder.invoke(p2, Operation::nullary("Pop"));
        let h = builder.build();

        let full = RealTimeOrder::full_order(&h);
        assert!(full.before(a, pending));
        assert!(full.operations().contains(&pending));
    }

    #[test]
    fn sequential_history_is_total() {
        let p = ProcessId::new(0);
        let mut b = HistoryBuilder::new();
        let x = b.complete(p, Operation::new("Inc", OpValue::Unit), OpValue::Int(1));
        let y = b.complete(p, Operation::new("Inc", OpValue::Unit), OpValue::Int(2));
        let z = b.complete(p, Operation::nullary("Read"), OpValue::Int(2));
        let order = RealTimeOrder::full_order(&b.build());
        assert!(order.before(x, y) && order.before(y, z) && order.before(x, z));
    }

    #[test]
    fn unknown_operations_are_unrelated() {
        let (h, a, _, _) = overlapping();
        let order = RealTimeOrder::full_order(&h);
        assert!(!order.before(a, OpId::new(999)));
        assert!(!order.before(OpId::new(999), a));
    }
}
