//! Execution certificates for accountability and forensics (Section 8.3).

use crate::view::TupleSet;
use linrv_history::History;
use std::fmt;

/// A certificate of the computation performed so far by a self-enforced implementation
/// (Theorem 8.2 (3)): the exchanged view tuples, the sketch history they encode, and
/// whether that history is a member of the verified object.
///
/// Section 8.3 has a client keep certificates for a later forensic stage: once an
/// incorrect response is detected at runtime, the certificate names the offending
/// implementation and contains a history witnessing the violation. Nothing serialises
/// a certificate; its `Display` form is a human-readable report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Description of the abstract object the implementation claims to implement.
    pub object: String,
    /// Name of the wrapped implementation.
    pub implementation: String,
    /// The view tuples visible at certification time.
    pub tuples: TupleSet,
    /// The sketch history `X(τ)` rebuilt from the tuples — similar to the actual
    /// history of the self-enforced implementation at the moment of the request.
    pub sketch: History,
    /// Whether the sketch is a member of the object (i.e. whether all responses so far
    /// are certified correct).
    pub correct: bool,
}

impl Certificate {
    /// Returns `true` when the certificate attests that all responses so far are
    /// correct.
    pub fn is_correct(&self) -> bool {
        self.correct
    }

    /// Number of completed operations covered by the certificate.
    pub fn operations(&self) -> usize {
        self.tuples.len()
    }

    /// Renders the certificate as a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "certificate for {} (object: {})\n",
            self.implementation, self.object
        ));
        out.push_str(&format!(
            "verdict: {}\n",
            if self.correct { "CORRECT" } else { "VIOLATION" }
        ));
        out.push_str(&format!("operations covered: {}\n", self.operations()));
        out.push_str("sketch history:\n");
        out.push_str(&self.sketch.to_string());
        out
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_mentions_verdict_and_counts() {
        let cert = Certificate {
            object: "queue".into(),
            implementation: "test".into(),
            tuples: TupleSet::new(),
            sketch: History::new(),
            correct: true,
        };
        assert!(cert.is_correct());
        assert_eq!(cert.operations(), 0);
        assert!(cert.render().contains("CORRECT"));
        assert!(cert.to_string().contains("queue"));
    }
}
