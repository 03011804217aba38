//! Ergonomic construction of histories for tests, examples and recorders.

use crate::event::Event;
use crate::history::History;
use crate::op::{OpId, OpValue, Operation};
use crate::process::ProcessId;
use std::collections::HashMap;

/// Incremental builder of well-formed histories.
///
/// The builder assigns fresh [`OpId`]s on invocation and appends events in call order,
/// which makes it convenient for writing down the interleavings in the paper's figures
/// as well as for recording real executions.
///
/// ```
/// use linrv_history::{HistoryBuilder, Operation, OpValue, ProcessId};
/// let p1 = ProcessId::new(0);
/// let mut b = HistoryBuilder::new();
/// let op = b.invoke(p1, Operation::new("Push", OpValue::Int(7)));
/// b.respond(op, OpValue::Bool(true));
/// let h = b.build();
/// assert!(h.is_well_formed());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryBuilder {
    history: History,
    next_op: u64,
    /// Invoking process per operation, so `respond` stays O(1) instead of
    /// re-scanning the event vector (which would make building an n-operation
    /// history quadratic — ruinous for the benchmark-sized traces).
    invoked: HashMap<OpId, ProcessId>,
}

impl HistoryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        HistoryBuilder::default()
    }

    /// Appends an invocation event by `process` and returns the fresh operation
    /// identifier.
    pub fn invoke(&mut self, process: ProcessId, operation: Operation) -> OpId {
        let id = OpId::new(self.next_op);
        self.next_op += 1;
        self.invoked.insert(id, process);
        self.history.push(Event::invocation(process, id, operation));
        id
    }

    /// Appends an invocation event with an explicit operation identifier.
    pub fn invoke_with_id(&mut self, process: ProcessId, id: OpId, operation: Operation) {
        self.next_op = self.next_op.max(id.raw() + 1);
        self.invoked.insert(id, process);
        self.history.push(Event::invocation(process, id, operation));
    }

    /// Appends a response event for operation `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not previously invoked through this builder, since the
    /// resulting history could not be well formed.
    pub fn respond(&mut self, id: OpId, value: OpValue) {
        let process = *self
            .invoked
            .get(&id)
            .unwrap_or_else(|| panic!("respond: operation {id} was never invoked"));
        self.history.push(Event::response(process, id, value));
    }

    /// Appends a complete operation (invocation immediately followed by its response).
    pub fn complete(
        &mut self,
        process: ProcessId,
        operation: Operation,
        response: OpValue,
    ) -> OpId {
        let id = self.invoke(process, operation);
        self.respond(id, response);
        id
    }

    /// Number of events appended so far.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Returns `true` when no event has been appended.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// A snapshot of the history built so far.
    pub fn current(&self) -> &History {
        &self.history
    }

    /// Finishes the builder and returns the history.
    pub fn build(self) -> History {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_well_formed_histories() {
        let p1 = ProcessId::new(0);
        let p2 = ProcessId::new(1);
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p1, Operation::new("Push", OpValue::Int(1)));
        let c = b.invoke(p2, Operation::nullary("Pop"));
        b.respond(c, OpValue::Int(1));
        b.respond(a, OpValue::Bool(true));
        // An explicit identifier moves the counter past it.
        b.invoke_with_id(p1, OpId::new(20), Operation::nullary("Pop"));
        assert_eq!(b.invoke(p2, Operation::nullary("Pop")), OpId::new(21));
        let h = b.build();
        assert!(h.is_well_formed());
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn complete_appends_two_events() {
        let mut b = HistoryBuilder::new();
        b.complete(
            ProcessId::new(0),
            Operation::new("Inc", OpValue::Unit),
            OpValue::Int(1),
        );
        assert_eq!(b.len(), 2);
        assert!(b.current().is_sequential());
    }

    #[test]
    #[should_panic(expected = "never invoked")]
    fn responding_to_unknown_operation_panics() {
        let mut b = HistoryBuilder::new();
        b.respond(OpId::new(42), OpValue::Unit);
    }
}
