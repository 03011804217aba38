//! Per-object verdicts reported by the pool.

use linrv_history::History;
use std::fmt;

/// The pool's verdict for one object.
///
/// Mirrors the single-monitor `linrv::Verdict`, with the object id attached:
/// the differential property tests in `tests-integration` pin that the two
/// agree object-for-object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolVerdict {
    /// Every checked prefix of the object's history is linearizable.
    Correct,
    /// The object's history is not linearizable; the violation says why.
    Violation(PoolViolation),
}

impl PoolVerdict {
    /// `true` when no violation has been found for the object.
    pub fn is_correct(&self) -> bool {
        matches!(self, PoolVerdict::Correct)
    }

    /// The violation, when there is one.
    pub fn violation(&self) -> Option<&PoolViolation> {
        match self {
            PoolVerdict::Correct => None,
            PoolVerdict::Violation(violation) => Some(violation),
        }
    }
}

/// A linearizability violation localised to one object of the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolViolation {
    /// The object whose history is not linearizable.
    pub object: u64,
    /// The violating prefix the checker rejected: the object's events since
    /// its last settle point, judged from the state the events dropped before
    /// it ([`gced_events`](Self::gced_events)) settled in.
    pub witness: History,
    /// The checker's explanation of why the witness is rejected.
    pub explanation: String,
    /// Events of this object dropped at settle points before the violation
    /// (a verified linearizable prefix preceding the witness).
    pub gced_events: u64,
}

impl fmt::Display for PoolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "object {}: {} ({} events in the violating prefix",
            self.object,
            self.explanation,
            self.witness.len()
        )?;
        if self.gced_events > 0 {
            write!(f, ", after {} verified and GC'd events", self.gced_events)?;
        }
        f.write_str(")")
    }
}
