//! Operation descriptors and values.

use std::fmt;

/// Globally unique identifier of a high-level operation instance.
///
/// The paper assumes every `Apply(op)` is invoked with a distinct input (Section 2), so
/// each operation instance can be identified unambiguously. `OpId` plays that role: it
/// is assigned by the [`HistoryBuilder`](crate::HistoryBuilder) or by the runtime when
/// the operation is invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u64);

impl OpId {
    /// Creates an operation identifier from a raw value.
    pub fn new(raw: u64) -> Self {
        OpId(raw)
    }

    /// Raw numeric value of the identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A value exchanged with a concurrent object: an operation argument or a response.
///
/// Values are deliberately dynamic (rather than generic) so that histories of different
/// object types can be manipulated, compared and serialised uniformly by the verifier,
/// which treats the implementation under inspection as a black box.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpValue {
    /// No value (e.g. the argument of `Pop()`).
    Unit,
    /// Boolean value (e.g. the `true` acknowledgement of `Push`).
    Bool(bool),
    /// Signed integer value.
    Int(i64),
    /// Text value.
    Str(String),
    /// The distinguished `empty` response of queues, stacks and priority queues.
    Empty,
    /// An ERROR response produced by a self-enforced implementation.
    Error,
    /// A pair of values.
    Pair(Box<OpValue>, Box<OpValue>),
    /// A list of values.
    List(Vec<OpValue>),
}

impl OpValue {
    /// Convenience constructor for a pair.
    pub fn pair(a: OpValue, b: OpValue) -> Self {
        OpValue::Pair(Box::new(a), Box::new(b))
    }

    /// Returns the integer payload, if this value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            OpValue::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for OpValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpValue::Unit => write!(f, "()"),
            OpValue::Bool(b) => write!(f, "{b}"),
            OpValue::Int(i) => write!(f, "{i}"),
            OpValue::Str(s) => write!(f, "{s:?}"),
            OpValue::Empty => write!(f, "empty"),
            OpValue::Error => write!(f, "ERROR"),
            OpValue::Pair(a, b) => write!(f, "({a}, {b})"),
            OpValue::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for OpValue {
    fn from(value: i64) -> Self {
        OpValue::Int(value)
    }
}

impl From<bool> for OpValue {
    fn from(value: bool) -> Self {
        OpValue::Bool(value)
    }
}

impl From<&str> for OpValue {
    fn from(value: &str) -> Self {
        OpValue::Str(value.to_owned())
    }
}

/// Description of a high-level operation: its name (e.g. `"Enqueue"`) and its argument.
///
/// Following the paper's convention (Section 2), every object exports a single
/// `Apply(op)` entry point, where `op` describes the actual operation being applied.
/// `Operation` is that description.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Operation {
    /// Name of the operation (e.g. `"Enqueue"`, `"Pop"`, `"Read"`).
    pub kind: String,
    /// Argument of the operation.
    pub arg: OpValue,
}

impl Operation {
    /// Creates an operation description with the given kind and argument.
    pub fn new(kind: impl Into<String>, arg: OpValue) -> Self {
        Operation {
            kind: kind.into(),
            arg,
        }
    }

    /// Creates an operation with no argument.
    pub fn nullary(kind: impl Into<String>) -> Self {
        Operation::new(kind, OpValue::Unit)
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            OpValue::Unit => write!(f, "{}()", self.kind),
            arg => write!(f, "{}({})", self.kind, arg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_of_values() {
        assert_eq!(OpValue::Int(5).to_string(), "5");
        assert_eq!(OpValue::Empty.to_string(), "empty");
        assert_eq!(
            OpValue::pair(OpValue::Int(1), OpValue::Bool(true)).to_string(),
            "(1, true)"
        );
        assert_eq!(
            OpValue::List(vec![OpValue::Int(1), OpValue::Int(2)]).to_string(),
            "[1, 2]"
        );
    }

    #[test]
    fn display_of_operations() {
        assert_eq!(Operation::nullary("Pop").to_string(), "Pop()");
        assert_eq!(
            Operation::new("Enqueue", OpValue::Int(1)).to_string(),
            "Enqueue(1)"
        );
    }

    #[test]
    fn value_accessors() {
        assert_eq!(OpValue::Int(7).as_int(), Some(7));
        assert_eq!(OpValue::Unit.as_int(), None);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(OpValue::from(3i64), OpValue::Int(3));
        assert_eq!(OpValue::from(true), OpValue::Bool(true));
        assert_eq!(OpValue::from("x"), OpValue::Str("x".into()));
    }

    #[test]
    fn op_ids_are_ordered() {
        assert!(OpId::new(1) < OpId::new(2));
        assert_eq!(OpId::new(3).raw(), 3);
        assert_eq!(OpId::new(3).to_string(), "op3");
    }
}
