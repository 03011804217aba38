//! ASCII rendering of an [`Explanation`]: a one-screen violation report with
//! a process-lane timeline, culprit operations highlighted
//! ([`render_marked_timeline`]).

use crate::explain::Explanation;
use linrv_history::display::render_marked_timeline;
use std::fmt::Write as _;

/// Renders the full ASCII report: verdict, diagnosis, minimization summary,
/// timeline and nearest fix. Byte-deterministic for a given explanation.
pub fn render_report(explanation: &Explanation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "violation ({}): {}",
        explanation.kind, explanation.explanation
    );
    if let Some(pattern) = &explanation.pattern {
        let values = if pattern.values.is_empty() {
            String::new()
        } else {
            format!(
                " [{}]",
                pattern
                    .values
                    .iter()
                    .map(i64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let _ = writeln!(
            out,
            "bad pattern: {}{values} — {}",
            pattern.name, pattern.message
        );
    }
    if let Some(frontier) = &explanation.frontier {
        let _ = writeln!(out, "general search: {frontier}");
    }
    let kept = explanation.witness.complete_operations().count();
    let _ = writeln!(
        out,
        "witness: {kept} of {} complete operations kept ({} removed, {} shrink checks, \
         {} narrowing steps)",
        explanation.original_ops,
        explanation.removed,
        explanation.shrink_checks,
        explanation.narrow_steps
    );
    out.push('\n');
    out.push_str(&render_marked_timeline(
        &explanation.witness,
        &explanation.culprits(),
    ));
    if let Some(fix) = &explanation.fix {
        let _ = writeln!(out, "\nnearest fix: {fix}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::explain;
    use linrv_history::{HistoryBuilder, OpValue, ProcessId};
    use linrv_spec::{ops::queue, ObjectKind};

    fn never_added() -> Explanation {
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        b.complete(p, queue::enqueue(1), OpValue::Bool(true));
        b.complete(p, queue::dequeue(), OpValue::Int(1));
        b.complete(p, queue::dequeue(), OpValue::Int(7));
        explain(ObjectKind::Queue, &b.build()).expect("violating")
    }

    #[test]
    fn reports_name_the_pattern_and_highlight_culprits() {
        let report = render_report(&never_added());
        assert!(report.starts_with("violation (queue):"));
        assert!(report.contains("bad pattern: never-added [7]"));
        assert!(report.contains("nearest fix:"));
        assert!(report.contains('#'), "culprit bars use # ends:\n{report}");
        assert!(report.contains("Dequeue():7"));
    }

    #[test]
    fn plain_operations_keep_plain_bars() {
        let mut b = HistoryBuilder::new();
        let p0 = ProcessId::new(0);
        // Keep an innocent op in the witness: two dequeues of the same value
        // are both load-bearing, the enqueue of 5 is matched but innocent…
        b.complete(p0, queue::enqueue(5), OpValue::Bool(true));
        b.complete(p0, queue::dequeue(), OpValue::Int(5));
        b.complete(ProcessId::new(1), queue::dequeue(), OpValue::Int(5));
        let explanation = explain(ObjectKind::Queue, &b.build()).expect("violating");
        let timeline = render_marked_timeline(&explanation.witness, &explanation.culprits());
        assert!(timeline.contains('#'));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_report(&never_added());
        let b = render_report(&never_added());
        assert_eq!(a, b);
    }
}
