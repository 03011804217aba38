//! The `linrv-cert/1` machine-readable violation certificate.
//!
//! A schema-versioned JSON document carrying everything a downstream tool
//! needs to re-validate or display the finding: the minimal witness events,
//! the named bad pattern (or the general search's frontier), the
//! minimization statistics and the nearest single-edit fix. The full field
//! reference lives in the repository's `CERT.md`.
//!
//! The document is hand-rendered (the workspace vendors no JSON serializer)
//! with a stable field order and two-space indentation, so certificates are
//! byte-deterministic and diff cleanly under version control.

use crate::diff::NearestFix;
use crate::explain::Explanation;
use linrv_history::EventKind;
use linrv_trace::json::write_escaped;
use std::fmt::Write as _;

/// `text` as a JSON string literal, quotes included.
fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    write_escaped(&mut out, text);
    out
}

fn int_list(values: &[i64]) -> String {
    let items: Vec<String> = values.iter().map(i64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Renders the explanation as a `linrv-cert/1` JSON certificate (see
/// `CERT.md` for the schema).
pub fn render_cert(explanation: &Explanation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"linrv-cert/1\",");
    let _ = writeln!(out, "  \"kind\": \"{}\",", explanation.kind);
    let _ = writeln!(
        out,
        "  \"explanation\": {},",
        quoted(&explanation.explanation)
    );
    match &explanation.pattern {
        Some(pattern) => {
            let _ = writeln!(out, "  \"pattern\": {{");
            let _ = writeln!(out, "    \"name\": {},", quoted(pattern.name));
            let _ = writeln!(out, "    \"message\": {},", quoted(&pattern.message));
            let _ = writeln!(out, "    \"values\": {}", int_list(&pattern.values));
            let _ = writeln!(out, "  }},");
        }
        None => {
            let _ = writeln!(out, "  \"pattern\": null,");
        }
    }
    match &explanation.frontier {
        Some(frontier) => {
            let ids: Vec<i64> = frontier
                .linearized
                .iter()
                .map(|id| id.raw() as i64)
                .collect();
            let _ = writeln!(out, "  \"frontier\": {{");
            let _ = writeln!(out, "    \"linearized\": {},", int_list(&ids));
            let _ = writeln!(out, "    \"total_complete\": {},", frontier.total_complete);
            let _ = writeln!(out, "    \"explored\": {}", frontier.explored);
            let _ = writeln!(out, "  }},");
        }
        None => {
            let _ = writeln!(out, "  \"frontier\": null,");
        }
    }
    let _ = writeln!(out, "  \"minimization\": {{");
    let _ = writeln!(out, "    \"original_ops\": {},", explanation.original_ops);
    let _ = writeln!(out, "    \"removed\": {},", explanation.removed);
    let _ = writeln!(out, "    \"shrink_checks\": {},", explanation.shrink_checks);
    let _ = writeln!(out, "    \"narrow_steps\": {}", explanation.narrow_steps);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"witness\": [");
    let events = explanation.witness.events();
    for (index, event) in events.iter().enumerate() {
        let comma = if index + 1 < events.len() { "," } else { "" };
        match &event.kind {
            EventKind::Invocation { op } => {
                let _ = writeln!(
                    out,
                    "    {{\"type\": \"inv\", \"process\": {}, \"op\": {}, \
                     \"operation\": {}, \"arg\": {}}}{comma}",
                    event.process.index(),
                    event.op_id.raw(),
                    quoted(&op.kind),
                    quoted(&op.arg.to_string())
                );
            }
            EventKind::Response { value } => {
                let _ = writeln!(
                    out,
                    "    {{\"type\": \"res\", \"process\": {}, \"op\": {}, \
                     \"value\": {}}}{comma}",
                    event.process.index(),
                    event.op_id.raw(),
                    quoted(&value.to_string())
                );
            }
        }
    }
    let _ = writeln!(out, "  ],");
    match &explanation.fix {
        Some(NearestFix::RelaxEdge { first, second }) => {
            let _ = writeln!(out, "  \"fix\": {{");
            let _ = writeln!(out, "    \"type\": \"relax-edge\",");
            let _ = writeln!(out, "    \"first\": {},", first.raw());
            let _ = writeln!(out, "    \"second\": {}", second.raw());
            let _ = writeln!(out, "  }}");
        }
        Some(NearestFix::RewriteResponse { op, from, to }) => {
            let _ = writeln!(out, "  \"fix\": {{");
            let _ = writeln!(out, "    \"type\": \"rewrite-response\",");
            let _ = writeln!(out, "    \"op\": {},", op.raw());
            let _ = writeln!(out, "    \"from\": {},", quoted(&from.to_string()));
            let _ = writeln!(out, "    \"to\": {}", quoted(&to.to_string()));
            let _ = writeln!(out, "  }}");
        }
        Some(NearestFix::RemoveOp { op }) => {
            let _ = writeln!(out, "  \"fix\": {{");
            let _ = writeln!(out, "    \"type\": \"remove-op\",");
            let _ = writeln!(out, "    \"op\": {}", op.raw());
            let _ = writeln!(out, "  }}");
        }
        None => {
            let _ = writeln!(out, "  \"fix\": null");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::explain;
    use linrv_history::{HistoryBuilder, OpValue, ProcessId};
    use linrv_spec::{ops::queue, ObjectKind};

    fn example() -> Explanation {
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        b.complete(p, queue::enqueue(1), OpValue::Bool(true));
        b.complete(p, queue::dequeue(), OpValue::Int(7));
        explain(ObjectKind::Queue, &b.build()).expect("violating")
    }

    #[test]
    fn certificates_carry_schema_pattern_witness_and_fix() {
        let cert = render_cert(&example());
        assert!(cert.contains("\"schema\": \"linrv-cert/1\""));
        assert!(cert.contains("\"kind\": \"queue\""));
        assert!(cert.contains("\"name\": \"never-added\""));
        assert!(cert.contains("\"type\": \"inv\""));
        assert!(cert.contains("\"type\": \"res\""));
        assert!(cert.contains("\"fix\""));
    }

    #[test]
    fn certificates_are_deterministic_and_balanced() {
        let a = render_cert(&example());
        let b = render_cert(&example());
        assert_eq!(a, b);
        // A cheap well-formedness smoke: balanced braces/brackets outside
        // string literals (no literal here contains any).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
