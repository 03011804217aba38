//! The [`SequentialSpec`] trait: sequential specifications as state machines.

use linrv_history::{History, OpValue, Operation};
use std::fmt;

/// The kinds of sequential objects shipped with this crate. Used by the runtime crate
/// to pair concurrent implementations with the specification they are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// FIFO queue.
    Queue,
    /// LIFO stack.
    Stack,
    /// Integer set with add/remove/contains.
    Set,
    /// Min-priority queue.
    PriorityQueue,
    /// Fetch-and-increment / read counter.
    Counter,
    /// Read/write register.
    Register,
    /// Consensus modelled as a sequential object with a repeatable `Decide` operation.
    Consensus,
}

impl ObjectKind {
    /// Every shipped object kind, in a stable order (useful for CLIs and tests
    /// that sweep all objects).
    pub const ALL: [ObjectKind; 7] = [
        ObjectKind::Queue,
        ObjectKind::Stack,
        ObjectKind::Set,
        ObjectKind::PriorityQueue,
        ObjectKind::Counter,
        ObjectKind::Register,
        ObjectKind::Consensus,
    ];
}

/// Evaluates `body` with `spec` bound to the sequential specification of an
/// [`ObjectKind`]: the one place that pairs each kind with its specification
/// type. `body` is compiled once per kind, so it may be generic in the
/// specification but must have the same type in every arm.
///
/// ```
/// use linrv_spec::{with_spec, ObjectKind, SequentialSpec};
///
/// for kind in ObjectKind::ALL {
///     assert_eq!(with_spec!(kind, |spec| spec.kind()), kind);
/// }
/// ```
#[macro_export]
macro_rules! with_spec {
    ($kind:expr, |$spec:ident| $body:expr) => {
        match $kind {
            $crate::ObjectKind::Queue => {
                let $spec = $crate::QueueSpec::new();
                $body
            }
            $crate::ObjectKind::Stack => {
                let $spec = $crate::StackSpec::new();
                $body
            }
            $crate::ObjectKind::Set => {
                let $spec = $crate::SetSpec::new();
                $body
            }
            $crate::ObjectKind::PriorityQueue => {
                let $spec = $crate::PriorityQueueSpec::new();
                $body
            }
            $crate::ObjectKind::Counter => {
                let $spec = $crate::CounterSpec::new();
                $body
            }
            $crate::ObjectKind::Register => {
                let $spec = $crate::RegisterSpec::new();
                $body
            }
            $crate::ObjectKind::Consensus => {
                let $spec = $crate::ConsensusSpec::new();
                $body
            }
        }
    };
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ObjectKind::Queue => "queue",
            ObjectKind::Stack => "stack",
            ObjectKind::Set => "set",
            ObjectKind::PriorityQueue => "priority-queue",
            ObjectKind::Counter => "counter",
            ObjectKind::Register => "register",
            ObjectKind::Consensus => "consensus",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for ObjectKind {
    type Err = String;

    /// Parses the kebab-case names produced by [`fmt::Display`] (plus the
    /// common aliases `pq` and `priority_queue`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "queue" => Ok(ObjectKind::Queue),
            "stack" => Ok(ObjectKind::Stack),
            "set" => Ok(ObjectKind::Set),
            "priority-queue" | "priority_queue" | "pq" => Ok(ObjectKind::PriorityQueue),
            "counter" => Ok(ObjectKind::Counter),
            "register" => Ok(ObjectKind::Register),
            "consensus" => Ok(ObjectKind::Consensus),
            other => Err(format!(
                "unknown object kind {other:?} (expected one of: queue, stack, set, \
                 priority-queue, counter, register, consensus)"
            )),
        }
    }
}

/// Errors raised when a specification is asked to take an impossible step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The operation kind is not part of the object's interface.
    UnknownOperation(String),
    /// The operation's argument has the wrong shape.
    InvalidArgument {
        /// Operation that received the bad argument.
        operation: String,
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownOperation(op) => write!(f, "unknown operation {op:?}"),
            SpecError::InvalidArgument { operation, reason } => {
                write!(f, "invalid argument for {operation:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A sequential specification: a (possibly non-deterministic) state machine whose
/// transition function `δ(q, op)` returns the allowed `(q', response)` pairs
/// (Definition 4.1).
///
/// Implementations must be *total* over their interface: `δ` never rejects an enabled
/// operation of the object (e.g. `Dequeue` on an empty queue returns the distinguished
/// `empty` value rather than being undefined). Operations outside the interface return
/// [`SpecError::UnknownOperation`].
pub trait SequentialSpec: Send + Sync {
    /// The state type of the machine.
    type State: Clone + Eq + std::hash::Hash + fmt::Debug + Send + Sync;

    /// Which object this specification describes. Contract: a spec whose kind
    /// names a shipped object has that object's canonical semantics, because
    /// the specialized monitors of `linrv-check` dispatch on it.
    fn kind(&self) -> ObjectKind;

    /// The initial state of the machine.
    fn initial_state(&self) -> Self::State;

    /// The transition function `δ`: all `(next_state, response)` pairs allowed when
    /// applying `operation` in `state`.
    ///
    /// Deterministic objects return exactly one pair.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the operation is not part of the object's
    /// interface or its argument is malformed.
    fn step(
        &self,
        state: &Self::State,
        operation: &Operation,
    ) -> Result<Vec<(Self::State, OpValue)>, SpecError>;

    /// Convenience wrapper for deterministic specifications: the unique successor.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`]s from [`SequentialSpec::step`].
    fn step_deterministic(
        &self,
        state: &Self::State,
        operation: &Operation,
    ) -> Result<(Self::State, OpValue), SpecError> {
        let mut successors = self.step(state, operation)?;
        debug_assert_eq!(
            successors.len(),
            1,
            "step_deterministic called on a non-deterministic transition"
        );
        Ok(successors.remove(0))
    }

    /// Returns `true` when applying `operation` in `state` may produce `response`,
    /// together with the successor state witnessing it.
    fn accepts(
        &self,
        state: &Self::State,
        operation: &Operation,
        response: &OpValue,
    ) -> Option<Self::State> {
        self.step(state, operation)
            .ok()?
            .into_iter()
            .find(|(_, r)| r == response)
            .map(|(s, _)| s)
    }

    /// Returns `true` when `history` is a *sequential history of the object*
    /// (Definition 4.1): it is sequential, and replaying its operations from the
    /// initial state yields exactly the recorded responses.
    fn accepts_sequential_history(&self, history: &History) -> bool {
        if !history.is_sequential() {
            return false;
        }
        let mut state = self.initial_state();
        for record in history.complete_operations() {
            let response = record.response.as_ref().expect("complete operation");
            match self.accepts(&state, &record.operation, response) {
                Some(next) => state = next,
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_kind_display() {
        assert_eq!(ObjectKind::Queue.to_string(), "queue");
        assert_eq!(ObjectKind::PriorityQueue.to_string(), "priority-queue");
    }

    #[test]
    fn object_kind_display_round_trips_through_from_str() {
        for kind in ObjectKind::ALL {
            assert_eq!(kind.to_string().parse::<ObjectKind>(), Ok(kind));
        }
        assert_eq!("pq".parse::<ObjectKind>(), Ok(ObjectKind::PriorityQueue));
        assert!("blob".parse::<ObjectKind>().unwrap_err().contains("blob"));
    }

    #[test]
    fn spec_error_display() {
        let e = SpecError::UnknownOperation("Frobnicate".into());
        assert!(e.to_string().contains("Frobnicate"));
        let e = SpecError::InvalidArgument {
            operation: "Enqueue".into(),
            reason: "expected an integer".into(),
        };
        assert!(e.to_string().contains("Enqueue"));
    }
}
