//! Similarity between histories (Definition 7.1).
//!
//! A finite history `E` is *similar to* a finite history `F` when there is a history
//! `E'` such that
//!
//! 1. `E'` is obtained from `E` by appending responses to some pending operations and
//!    removing the invocations of some (other) pending operations,
//! 2. `E'` and `F` are equivalent, and
//! 3. `≺_{E'} ⊆ ≺_F`.
//!
//! Similarity closure (together with prefix closure) is what defines the `GenLin`
//! family of objects (Definition 7.2), and it is the property that makes the views
//! mechanism a faithful sketch of tight executions (Lemma 7.4).

use crate::event::Event;
use crate::history::History;
use crate::op::{OpId, OpValue};
use crate::order::RealTimeOrder;
use crate::process::ProcessId;
use std::collections::{BTreeMap, BTreeSet};

/// Evidence that a history `E` is similar to a history `F`: the modifications applied
/// to `E` to obtain the intermediate history `E'` of Definition 7.1.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimilarityWitness {
    /// Responses appended to pending operations of `E` (values taken from `F`).
    pub appended_responses: BTreeMap<OpId, OpValue>,
    /// Pending operations of `E` whose invocations were removed.
    pub removed_invocations: BTreeSet<OpId>,
}

/// Decides whether `e` is similar to `f` (Definition 7.1) and, if so, returns the
/// witness describing how `E'` is obtained from `e`.
///
/// Similarity is *not* symmetric: `similar(e, f)` may hold while `similar(f, e)` does
/// not (operations of `e` may only "shrink" relative to `f`).
pub fn similar(e: &History, f: &History) -> Option<SimilarityWitness> {
    let mut witness = SimilarityWitness::default();

    // Per-process reconciliation. Each process is sequential, so at most one of its
    // operations is pending in `e`; the only allowed edits are appending a response to
    // that operation or dropping its invocation.
    let processes: BTreeSet<ProcessId> = e.processes().union(&f.processes()).copied().collect();
    for &p in &processes {
        let ep = e.project(p);
        let fp = f.project(p);
        if ep.events() == fp.events() {
            continue;
        }
        // The pending operation of `p` in `e`: without one no edit is available, yet
        // the projections differ.
        let rec = ep.pending_operations().next()?;
        // Option A: drop the pending invocation.
        if ep
            .events()
            .iter()
            .filter(|ev| ev.op_id != rec.id)
            .eq(fp.events())
        {
            witness.removed_invocations.insert(rec.id);
            continue;
        }
        // Option B: append the response that `f` gives to the same operation.
        let value = fp
            .operations()
            .into_iter()
            .find(|r| r.id == rec.id)
            .and_then(|r| r.response);
        if let Some(value) = value {
            let response = Event::response(rec.process, rec.id, value.clone());
            if fp.events().split_last() == Some((&response, ep.events())) {
                witness.appended_responses.insert(rec.id, value);
                continue;
            }
        }
        return None;
    }

    // Build E' explicitly and check the remaining conditions.
    let e_prime = apply_witness(e, &witness)?;
    if !e_prime.equivalent(f) {
        return None;
    }
    let order_e_prime = RealTimeOrder::full_order(&e_prime);
    let order_f = RealTimeOrder::full_order(f);
    if !order_e_prime.subset_of(&order_f) {
        return None;
    }
    Some(witness)
}

/// Applies a similarity witness to `e`, producing the intermediate history `E'` of
/// Definition 7.1. Returns `None` if the witness refers to operations that are not
/// pending in `e`.
pub fn apply_witness(e: &History, witness: &SimilarityWitness) -> Option<History> {
    let pending: BTreeMap<OpId, ProcessId> =
        e.pending_operations().map(|r| (r.id, r.process)).collect();
    let removed = &witness.removed_invocations;
    let appended = &witness.appended_responses;
    if removed.iter().any(|id| !pending.contains_key(id))
        || appended
            .keys()
            .any(|id| !pending.contains_key(id) || removed.contains(id))
    {
        return None;
    }
    let mut e_prime: History = e
        .events()
        .iter()
        .filter(|ev| !removed.contains(&ev.op_id))
        .cloned()
        .collect();
    for (id, value) in appended {
        e_prime.push(Event::response(pending[id], *id, value.clone()));
    }
    Some(e_prime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::op::Operation;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn history_is_similar_to_itself() {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), Operation::new("Push", OpValue::Int(1)));
        b.respond(a, OpValue::Bool(true));
        let h = b.build();
        let w = similar(&h, &h).expect("reflexive");
        assert!(w.appended_responses.is_empty());
        assert!(w.removed_invocations.is_empty());
    }

    #[test]
    fn pending_operation_can_be_completed() {
        // E: p1 has a pending Pop.  F: the same Pop completed with value 3.
        let mut be = HistoryBuilder::new();
        let pop = be.invoke(p(0), Operation::nullary("Pop"));
        let e = be.build();

        let mut bf = HistoryBuilder::new();
        bf.invoke_with_id(p(0), pop, Operation::nullary("Pop"));
        bf.respond(pop, OpValue::Int(3));
        let f = bf.build();

        let w = similar(&e, &f).expect("similar by appending the response");
        assert_eq!(w.appended_responses.get(&pop), Some(&OpValue::Int(3)));
    }

    #[test]
    fn pending_operation_can_be_dropped() {
        // E: p1 completes Push, p2 has a pending Pop.  F: only the Push.
        let mut be = HistoryBuilder::new();
        let push = be.invoke(p(0), Operation::new("Push", OpValue::Int(1)));
        be.respond(push, OpValue::Bool(true));
        let _pop = be.invoke(p(1), Operation::nullary("Pop"));
        let e = be.build();

        let mut bf = HistoryBuilder::new();
        bf.invoke_with_id(p(0), push, Operation::new("Push", OpValue::Int(1)));
        bf.respond(push, OpValue::Bool(true));
        let f = bf.build();

        let w = similar(&e, &f).expect("similar by dropping the pending invocation");
        assert_eq!(w.removed_invocations.len(), 1);
    }

    #[test]
    fn order_violation_is_rejected() {
        // E: A completes before B is invoked (A ≺_E B).
        // F: A and B overlap (A not before B). Then ≺_{E'} ⊄ ≺_F fails.
        let mut be = HistoryBuilder::new();
        let a = be.invoke(p(0), Operation::new("Push", OpValue::Int(1)));
        be.respond(a, OpValue::Bool(true));
        let bb = be.invoke(p(1), Operation::nullary("Pop"));
        be.respond(bb, OpValue::Int(1));
        let e = be.build();

        let mut bf = HistoryBuilder::new();
        bf.invoke_with_id(p(0), a, Operation::new("Push", OpValue::Int(1)));
        bf.invoke_with_id(p(1), bb, Operation::nullary("Pop"));
        bf.respond(a, OpValue::Bool(true));
        bf.respond(bb, OpValue::Int(1));
        let f = bf.build();

        // F is similar to E?  ≺_F is empty so F is similar to E only if ≺_F ⊆ ≺_E, which
        // holds trivially; but equivalence also holds, so F similar to E.
        assert!(similar(&f, &e).is_some());
        // E similar to F requires ≺_E ⊆ ≺_F, which fails (A before B only in E).
        assert!(similar(&e, &f).is_none());
    }

    #[test]
    fn differing_responses_are_not_similar() {
        let mut be = HistoryBuilder::new();
        let a = be.invoke(p(0), Operation::nullary("Pop"));
        be.respond(a, OpValue::Int(1));
        let e = be.build();

        let mut bf = HistoryBuilder::new();
        bf.invoke_with_id(p(0), a, Operation::nullary("Pop"));
        bf.respond(a, OpValue::Int(2));
        let f = bf.build();

        assert!(similar(&e, &f).is_none());
    }

    #[test]
    fn operations_absent_from_f_cannot_be_complete_in_e() {
        let mut be = HistoryBuilder::new();
        let a = be.invoke(p(0), Operation::nullary("Pop"));
        be.respond(a, OpValue::Int(1));
        let e = be.build();
        let f = History::new();
        assert!(similar(&e, &f).is_none());
    }

    #[test]
    fn apply_witness_rejects_non_pending_operations() {
        let mut be = HistoryBuilder::new();
        let a = be.invoke(p(0), Operation::nullary("Pop"));
        be.respond(a, OpValue::Int(1));
        let e = be.build();
        let mut w = SimilarityWitness::default();
        w.removed_invocations.insert(a);
        assert!(apply_witness(&e, &w).is_none());
    }
}
