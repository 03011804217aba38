//! Nearest-linearization diff: the smallest single edit that makes a minimal
//! witness pass.
//!
//! A minimal witness says *what* cannot be linearized; the nearest fix says
//! *how close* the history came. Three edit families are tried in order of
//! increasing violence, each enumerated deterministically, first success
//! wins:
//!
//! 1. **Relax one real-time edge** — pick a precedence edge `A ≺ B` (the
//!    response of `A` precedes the invocation of `B`) and delay `A`'s
//!    response until just after `B`'s invocation, making the two operations
//!    concurrent. This is exactly the similarity relation of Definition 7.1
//!    read backwards: the repaired history's order is a subset of the
//!    witness's, every value untouched. When this fixes the history, the bug
//!    is a pure *ordering* bug.
//! 2. **Rewrite one response** — replace a single response value with another
//!    value observed in the witness (or `empty`). When this fixes the
//!    history, the bug is a *value* bug: one operation answered wrongly.
//! 3. **Remove one operation** — drop a complete pair outright. On a locally
//!    minimal witness (the output of [`mod@crate::shrink`]) every single removal
//!    passes, so this fallback always succeeds and the diff is total on the
//!    pipeline's own witnesses.

use crate::check::check_history;
use linrv_history::{Event, History, OpId, OpValue};
use linrv_spec::ObjectKind;
use std::collections::BTreeSet;
use std::fmt;

/// The smallest single edit found that makes the witness linearizable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NearestFix {
    /// Relaxing the real-time edge `first ≺ second` (delaying `first`'s
    /// response past `second`'s invocation) makes the history pass.
    RelaxEdge {
        /// The earlier operation of the relaxed edge.
        first: OpId,
        /// The later operation of the relaxed edge.
        second: OpId,
    },
    /// Rewriting one response makes the history pass.
    RewriteResponse {
        /// The operation whose response is rewritten.
        op: OpId,
        /// The recorded (wrong) response.
        from: OpValue,
        /// A response under which the history linearizes.
        to: OpValue,
    },
    /// Removing one complete operation makes the history pass.
    RemoveOp {
        /// The removed operation.
        op: OpId,
    },
}

impl fmt::Display for NearestFix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NearestFix::RelaxEdge { first, second } => write!(
                f,
                "relax one real-time edge: the history linearizes if {first}'s response \
                 is delayed past {second}'s invocation (ordering bug)"
            ),
            NearestFix::RewriteResponse { op, from, to } => write!(
                f,
                "rewrite one response: the history linearizes if {op} returns {to} \
                 instead of {from} (value bug)"
            ),
            NearestFix::RemoveOp { op } => {
                write!(
                    f,
                    "remove one operation: without {op} the history linearizes"
                )
            }
        }
    }
}

/// An ill-formed candidate never passes: the checker rejects it.
fn passes(kind: ObjectKind, history: &History) -> bool {
    !check_history(kind, history).is_violation()
}

/// Tries relaxing each real-time edge `a ≺ b` by moving `a`'s response event
/// to just after `b`'s invocation event.
fn try_relax_edges(kind: ObjectKind, history: &History) -> Option<NearestFix> {
    let records = history.operations();
    let mut edges: Vec<(usize, usize, OpId, OpId)> = Vec::new();
    for a in records.iter().filter(|r| r.is_complete()) {
        let res_a = a.response_index.expect("complete");
        for b in records.iter().filter(|r| res_a < r.invocation_index) {
            edges.push((res_a, b.invocation_index, a.id, b.id));
        }
    }
    edges.sort();
    for (res_a, inv_b, a, b) in edges {
        let mut events: Vec<Event> = history.events().to_vec();
        let response = events.remove(res_a);
        // After the removal `b`'s invocation sits at `inv_b - 1`; inserting at
        // `inv_b` places the response immediately after it.
        events.insert(inv_b, response);
        if passes(kind, &History::from_events(events)) {
            return Some(NearestFix::RelaxEdge {
                first: a,
                second: b,
            });
        }
    }
    None
}

/// Tries rewriting each response to each other value observed in the witness.
fn try_rewrite_responses(kind: ObjectKind, history: &History) -> Option<NearestFix> {
    let records = history.operations();
    let mut domain: BTreeSet<OpValue> = BTreeSet::new();
    for record in &records {
        domain.insert(record.operation.arg.clone());
        if let Some(response) = &record.response {
            domain.insert(response.clone());
        }
    }
    domain.insert(OpValue::Empty);
    domain.remove(&OpValue::Unit);
    for record in records.iter().filter(|r| r.is_complete()) {
        let from = record.response.clone().expect("complete");
        let res_index = record.response_index.expect("complete");
        for to in &domain {
            if *to == from {
                continue;
            }
            let mut events: Vec<Event> = history.events().to_vec();
            events[res_index] = Event::response(record.process, record.id, to.clone());
            if passes(kind, &History::from_events(events)) {
                return Some(NearestFix::RewriteResponse {
                    op: record.id,
                    from,
                    to: to.clone(),
                });
            }
        }
    }
    None
}

/// Tries removing each complete operation outright.
fn try_remove_ops(kind: ObjectKind, history: &History) -> Option<NearestFix> {
    for record in history.complete_operations() {
        let events: Vec<Event> = history
            .events()
            .iter()
            .filter(|event| event.op_id != record.id)
            .cloned()
            .collect();
        if passes(kind, &History::from_events(events)) {
            return Some(NearestFix::RemoveOp { op: record.id });
        }
    }
    None
}

/// Finds the nearest single-edit fix for a violating history, or `None` when
/// no single edit repairs it (impossible for locally minimal witnesses, where
/// removing any one operation passes).
pub fn nearest_fix(kind: ObjectKind, history: &History) -> Option<NearestFix> {
    try_relax_edges(kind, history)
        .or_else(|| try_rewrite_responses(kind, history))
        .or_else(|| try_remove_ops(kind, history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{HistoryBuilder, ProcessId};
    use linrv_spec::ops::queue;

    #[test]
    fn pure_ordering_bugs_diff_to_a_relaxed_edge() {
        // Enq(1); Enq(2); Deq():2 — sequential FIFO inversion. Delaying
        // Enq(1)'s response past Enq(2)'s invocation makes them concurrent
        // and the history passes. The enqueues run on different processes so
        // the relaxed history stays well formed (a process cannot have two
        // operations in flight).
        let mut b = HistoryBuilder::new();
        let p0 = ProcessId::new(0);
        let e1 = b.complete(p0, queue::enqueue(1), OpValue::Bool(true));
        b.complete(ProcessId::new(1), queue::enqueue(2), OpValue::Bool(true));
        b.complete(p0, queue::dequeue(), OpValue::Int(2));
        let history = b.build();
        let fix = nearest_fix(ObjectKind::Queue, &history).expect("single edit fixes");
        match fix {
            NearestFix::RelaxEdge { first, .. } => assert_eq!(first, e1),
            other => panic!("expected RelaxEdge, got {other:?}"),
        }
    }

    #[test]
    fn value_bugs_diff_to_a_rewritten_response() {
        // Enq(1); Deq():7 — no reordering helps, but Deq returning 1 would.
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        b.complete(p, queue::enqueue(1), OpValue::Bool(true));
        let d = b.complete(p, queue::dequeue(), OpValue::Int(7));
        let history = b.build();
        let fix = nearest_fix(ObjectKind::Queue, &history).expect("single edit fixes");
        assert_eq!(
            fix,
            NearestFix::RewriteResponse {
                op: d,
                from: OpValue::Int(7),
                to: OpValue::Int(1),
            }
        );
        assert!(fix.to_string().contains("value bug"));
    }

    #[test]
    fn locally_minimal_witnesses_always_have_a_fix() {
        // Deq():7 with nothing else: only removal helps.
        let mut b = HistoryBuilder::new();
        let d = b.complete(ProcessId::new(0), queue::dequeue(), OpValue::Int(7));
        let history = b.build();
        let fix = nearest_fix(ObjectKind::Queue, &history);
        // Rewriting Deq's response to `empty` also linearizes, and rewrites
        // are tried before removals.
        assert!(matches!(
            fix,
            Some(NearestFix::RewriteResponse { op, to: OpValue::Empty, .. }) if op == d
        ));
    }

    #[test]
    fn members_need_no_fix_search_to_terminate() {
        let mut b = HistoryBuilder::new();
        b.complete(ProcessId::new(0), queue::enqueue(1), OpValue::Bool(true));
        let history = b.build();
        // Not a violation: any "fix" is vacuous, but the search still returns
        // a (trivial) first success deterministically.
        assert!(nearest_fix(ObjectKind::Queue, &history).is_some());
    }
}
