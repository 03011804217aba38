//! Invocation and response events.

use crate::op::{OpId, OpValue, Operation};
use crate::process::ProcessId;
use std::fmt;

/// The two kinds of history events.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Invocation of `Apply(op)`.
    Invocation {
        /// Description of the invoked operation.
        op: Operation,
    },
    /// Response from `Apply(op)` with the returned value.
    Response {
        /// Value returned by the operation.
        value: OpValue,
    },
}

/// A single event of a history: an invocation of or a response from a high-level
/// operation, performed by a process (Section 2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Event {
    /// Process performing the event.
    pub process: ProcessId,
    /// Identifier of the operation instance this event belongs to.
    pub op_id: OpId,
    /// Whether this is an invocation or a response, and its payload.
    pub kind: EventKind,
}

impl Event {
    /// Creates an invocation event.
    pub fn invocation(process: ProcessId, op_id: OpId, op: Operation) -> Self {
        Event {
            process,
            op_id,
            kind: EventKind::Invocation { op },
        }
    }

    /// Creates a response event.
    pub fn response(process: ProcessId, op_id: OpId, value: OpValue) -> Self {
        Event {
            process,
            op_id,
            kind: EventKind::Response { value },
        }
    }

    /// Returns `true` when this is an invocation event.
    pub fn is_invocation(&self) -> bool {
        matches!(self.kind, EventKind::Invocation { .. })
    }

    /// Returns `true` when this is a response event.
    pub fn is_response(&self) -> bool {
        matches!(self.kind, EventKind::Response { .. })
    }

    /// The operation description, when this is an invocation.
    pub fn operation(&self) -> Option<&Operation> {
        match &self.kind {
            EventKind::Invocation { op } => Some(op),
            EventKind::Response { .. } => None,
        }
    }

    /// The response value, when this is a response.
    pub fn value(&self) -> Option<&OpValue> {
        match &self.kind {
            EventKind::Invocation { .. } => None,
            EventKind::Response { value } => Some(value),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::Invocation { op } => {
                write!(f, "inv[{}: {} #{}]", self.process, op, self.op_id)
            }
            EventKind::Response { value } => {
                write!(f, "res[{}: {} #{}]", self.process, value, self.op_id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let p = ProcessId::new(0);
        let inv = Event::invocation(p, OpId::new(1), Operation::new("Enqueue", OpValue::Int(1)));
        let res = Event::response(p, OpId::new(1), OpValue::Bool(true));
        assert!(inv.is_invocation());
        assert!(!inv.is_response());
        assert!(res.is_response());
        assert_eq!(inv.operation().unwrap().kind, "Enqueue");
        assert_eq!(res.value().unwrap(), &OpValue::Bool(true));
        assert!(inv.value().is_none());
        assert!(res.operation().is_none());
    }

    #[test]
    fn display() {
        let p = ProcessId::new(1);
        let inv = Event::invocation(p, OpId::new(7), Operation::nullary("Pop"));
        assert!(inv.to_string().contains("Pop()"));
        assert!(inv.to_string().contains("p2"));
    }
}
