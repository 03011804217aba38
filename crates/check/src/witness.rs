//! Verdicts and violation witnesses produced by the membership checkers.

use crate::pattern::BadPattern;
use linrv_history::{History, OpId};
use std::fmt;

/// The deepest state the general Wing–Gong search reached before concluding
/// that no linearization exists.
///
/// When the search dies, the longest linearizable prefix it built is genuine
/// forensic evidence: the operations *not* in `linearized` are the ones no
/// specification-respecting order could absorb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchFrontier {
    /// Operations of the deepest linearized prefix, in the order the search
    /// placed them.
    pub linearized: Vec<OpId>,
    /// Complete operations the search had to place in total.
    pub total_complete: usize,
    /// Search nodes explored before exhaustion.
    pub explored: usize,
}

impl fmt::Display for SearchFrontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "search exhausted after {} states; deepest prefix linearized {} of {} complete operations",
            self.explored,
            self.linearized.len(),
            self.total_complete
        )
    }
}

/// Why a history was judged not to belong to an abstract object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending history (returned to the client as the ERROR witness, in the
    /// sense of Definition 3.1's "witness").
    pub history: History,
    /// Human-readable explanation of the failure.
    pub explanation: String,
    /// The named bad pattern behind the verdict, when a specialized monitor
    /// produced it.
    pub pattern: Option<BadPattern>,
    /// The state where the general search died, when the general search
    /// produced the verdict by exhaustion.
    pub frontier: Option<SearchFrontier>,
}

impl Violation {
    /// A violation with no structured evidence attached.
    pub fn new(history: History, explanation: impl Into<String>) -> Self {
        Violation {
            history,
            explanation: explanation.into(),
            pattern: None,
            frontier: None,
        }
    }

    /// Attaches the named bad pattern that witnessed the violation.
    #[must_use]
    pub fn with_pattern(mut self, pattern: BadPattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Attaches the frontier where the general search died.
    #[must_use]
    pub fn with_frontier(mut self, frontier: SearchFrontier) -> Self {
        self.frontier = Some(frontier);
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.explanation)?;
        write!(f, "{}", self.history)
    }
}

/// Result of checking a history against an abstract object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The history is a member; for linearizability, a linearization is attached.
    Member {
        /// A sequential (or interval-sequential, flattened) history witnessing
        /// membership, when the checker produces one.
        linearization: Option<History>,
    },
    /// The history is not a member.
    NotMember {
        /// Evidence of the violation.
        violation: Violation,
    },
}

impl Verdict {
    /// `true` when the verdict is [`Verdict::Member`].
    pub fn is_member(&self) -> bool {
        matches!(self, Verdict::Member { .. })
    }

    /// `true` when the verdict is [`Verdict::NotMember`].
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::NotMember { .. })
    }

    /// The linearization witness, when membership was established with one.
    pub fn linearization(&self) -> Option<&History> {
        match self {
            Verdict::Member { linearization } => linearization.as_ref(),
            _ => None,
        }
    }

    /// The violation, when membership was refuted.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::NotMember { violation } => Some(violation),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Member {
                linearization: Some(lin),
            } => {
                writeln!(f, "member; linearization:")?;
                write!(f, "{lin}")
            }
            Verdict::Member {
                linearization: None,
            } => write!(f, "member"),
            Verdict::NotMember { violation } => {
                writeln!(f, "NOT a member:")?;
                write!(f, "{violation}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let member = Verdict::Member {
            linearization: None,
        };
        assert!(member.is_member());
        assert!(!member.is_violation());
        assert!(member.linearization().is_none());

        let violation = Verdict::NotMember {
            violation: Violation::new(History::new(), "no linearization exists"),
        };
        assert!(violation.is_violation());
        assert!(violation.violation().is_some());
    }

    #[test]
    fn display_is_informative() {
        let v = Verdict::NotMember {
            violation: Violation::new(History::new(), "boom"),
        };
        assert!(v.to_string().contains("boom"));
    }

    #[test]
    fn structured_evidence_rides_along() {
        let violation = Violation::new(History::new(), "specialized queue monitor: boom")
            .with_pattern(BadPattern::new("never-added", "boom").with_values(vec![3]));
        assert_eq!(violation.pattern.as_ref().unwrap().name, "never-added");
        assert!(violation.frontier.is_none());

        let frontier = SearchFrontier {
            linearized: vec![OpId::new(0)],
            total_complete: 3,
            explored: 17,
        };
        assert!(frontier.to_string().contains("1 of 3 complete operations"));
        let violation = Violation::new(History::new(), "dead end").with_frontier(frontier);
        assert_eq!(violation.frontier.as_ref().unwrap().explored, 17);
    }
}
