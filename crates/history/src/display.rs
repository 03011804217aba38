//! ASCII timeline rendering of histories, in the style of the paper's figures.
//!
//! Each process gets one bar line; each operation is drawn as an interval
//! `|--- Op(arg):resp ---|` positioned by the indices of its invocation and response
//! events, one cell per event. Pending operations are drawn with an open right end,
//! marked operations (a forensics report's culprits) with `#===#`. Below the bar
//! line, each operation's label starts one column right of its bar's left end; a
//! label that would run into an earlier one moves to a further label row.

use crate::history::History;
use crate::op::OpId;
use std::collections::BTreeSet;

/// Renders a history as an ASCII timeline, one bar line (plus label rows) per
/// process.
///
/// ```
/// use linrv_history::{HistoryBuilder, Operation, OpValue, ProcessId, display};
/// let mut b = HistoryBuilder::new();
/// let a = b.invoke(ProcessId::new(0), Operation::new("Push", OpValue::Int(1)));
/// b.respond(a, OpValue::Bool(true));
/// let text = display::render_timeline(&b.build());
/// assert!(text.contains("Push(1):true"));
/// ```
pub fn render_timeline(history: &History) -> String {
    render_marked_timeline(history, &BTreeSet::new())
}

/// [`render_timeline`], drawing the operations in `marked` with `#===#` bars
/// (the others keep `|---|`).
pub fn render_marked_timeline(history: &History, marked: &BTreeSet<OpId>) -> String {
    const CELL: usize = 4;
    let records = history.operations();
    let n_events = history.len().max(1);
    let width = n_events * CELL + 2;

    let mut processes: Vec<_> = history.processes().into_iter().collect();
    processes.sort();

    let mut out = String::new();
    for p in processes {
        let mut line: Vec<char> = vec![' '; width];
        // Label rows, each with the number of columns it already fills.
        let mut rows: Vec<(String, usize)> = Vec::new();
        // Records come in invocation order, so each row fills left to right.
        for r in records.iter().filter(|r| r.process == p) {
            let (end_mark, fill) = if marked.contains(&r.id) {
                ('#', '=')
            } else {
                ('|', '-')
            };
            let start = r.invocation_index * CELL;
            let end = match r.response_index {
                Some(idx) => idx * CELL + CELL - 1,
                None => width - 1,
            };
            line[start] = end_mark;
            for cell in line.iter_mut().take(end.min(width - 1)).skip(start + 1) {
                *cell = fill;
            }
            if r.response_index.is_some() {
                line[end.min(width - 1)] = end_mark;
            } else {
                line[width - 1] = '>';
            }
            let label = match &r.response {
                Some(v) => format!("{}:{}", r.operation, v),
                None => format!("{}:…", r.operation),
            };
            let column = start + 1;
            let row = match rows.iter().position(|(_, filled)| *filled < column) {
                Some(row) => row,
                None => {
                    rows.push((String::new(), 0));
                    rows.len() - 1
                }
            };
            let (text, filled) = &mut rows[row];
            text.extend(std::iter::repeat(' ').take(column - *filled));
            text.push_str(&label);
            *filled = column + label.chars().count();
        }
        out.push_str(&format!("{p}: "));
        out.push_str(line.iter().collect::<String>().trim_end());
        out.push('\n');
        for (text, _) in rows {
            out.push_str("    ");
            out.push_str(&text);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::op::{OpValue, Operation};
    use crate::process::ProcessId;

    #[test]
    fn renders_each_process_on_its_own_line() {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(ProcessId::new(0), Operation::new("Push", OpValue::Int(1)));
        let c = b.invoke(ProcessId::new(1), Operation::nullary("Pop"));
        b.respond(c, OpValue::Int(1));
        b.respond(a, OpValue::Bool(true));
        let text = render_timeline(&b.build());
        assert!(text.contains("p1:"));
        assert!(text.contains("p2:"));
        assert!(text.contains("Push(1):true"));
        assert!(text.contains("Pop():1"));
    }

    #[test]
    fn pending_operations_render_with_open_end() {
        let mut b = HistoryBuilder::new();
        b.invoke(ProcessId::new(0), Operation::nullary("Pop"));
        let text = render_timeline(&b.build());
        assert!(text.contains('>'));
        assert!(text.contains("Pop():…"));
    }

    #[test]
    fn back_to_back_labels_do_not_overwrite_each_other() {
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        b.complete(
            p,
            Operation::new("Enqueue", OpValue::Int(1)),
            OpValue::Bool(true),
        );
        b.complete(
            p,
            Operation::new("Enqueue", OpValue::Int(2)),
            OpValue::Bool(true),
        );
        let text = render_timeline(&b.build());
        assert_eq!(
            text,
            "p1: |------||------|\n     Enqueue(1):true\n             Enqueue(2):true\n"
        );
    }

    #[test]
    fn marked_operations_use_hash_bars() {
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        let a = b.complete(p, Operation::nullary("Pop"), OpValue::Int(1));
        b.complete(p, Operation::nullary("Pop"), OpValue::Int(2));
        let text = render_marked_timeline(&b.build(), &BTreeSet::from([a]));
        assert!(text.starts_with("p1: #======#|------|\n"), "{text}");
    }

    #[test]
    fn empty_history_renders_empty_string() {
        assert_eq!(render_timeline(&History::new()), "");
    }
}
