//! The `explain` subcommand: turn a violating trace into a forensic report.
//!
//! Reads a trace (file or stdin), runs the full forensics pipeline on every
//! object it contains — ddmin shrink to a locally minimal witness, interval
//! narrowing, bad-pattern diagnosis, nearest-linearization diff — and prints
//! the ASCII report to stdout. `--html FILE` and `--cert FILE` additionally
//! write the standalone HTML timeline and the `linrv-cert/1` JSON
//! certificate for the first violating object.
//!
//! Exit status mirrors `check`: `0` when the trace is linearizable (nothing
//! to explain), `1` with the report when it is not, `2` on malformed input.

use crate::args::Parsed;
use crate::io::{describe, open_input};
use crate::Failure;
use linrv_forensics::{explain, render_cert, render_html, render_report, Explanation};
use linrv_history::History;
use linrv_trace::read_tagged_history;
use std::collections::BTreeMap;
use std::process::ExitCode;

pub(crate) fn run(parsed: &Parsed) -> Result<ExitCode, Failure> {
    if parsed.positionals().len() > 1 {
        return Err(Failure::usage("explain takes at most one trace file"));
    }
    let path = parsed.positionals().first().map(String::as_str);
    let quiet = parsed.has("quiet");
    let stats = crate::stats::init(parsed);
    let input = open_input(path)?;
    let source = describe(path, "stdin");
    let (header, tagged) =
        read_tagged_history(input).map_err(|err| format!("cannot read {source}: {err}"))?;

    // Multi-object traces explain per object, like `check` verifies per
    // object; untagged events all share the `None` bucket.
    let mut objects: BTreeMap<Option<u64>, History> = BTreeMap::new();
    for (object, event) in tagged {
        objects.entry(object).or_default().push(event);
    }

    let mut explanations: Vec<(Option<u64>, Explanation)> = Vec::new();
    for (object, history) in &objects {
        if let Some(explanation) = explain(header.kind, history) {
            explanations.push((*object, explanation));
        }
    }

    if explanations.is_empty() {
        if !quiet {
            eprintln!(
                "linrv: {source}: OK — trace is linearizable w.r.t. the {} specification; \
                 nothing to explain",
                header.kind
            );
        }
        if let Some(stats) = &stats {
            stats.emit()?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    for (object, explanation) in &explanations {
        if let Some(id) = object {
            println!("=== object {id} ===");
        }
        print!("{}", render_report(explanation));
    }
    let (_, first) = &explanations[0];
    if let Some(html_path) = parsed.get("html") {
        std::fs::write(html_path, render_html(first))
            .map_err(|err| format!("cannot write {html_path}: {err}"))?;
        eprintln!("linrv: HTML timeline written to {html_path}");
    }
    if let Some(cert_path) = parsed.get("cert") {
        std::fs::write(cert_path, render_cert(first))
            .map_err(|err| format!("cannot write {cert_path}: {err}"))?;
        eprintln!("linrv: certificate written to {cert_path}");
    }
    if let Some(stats) = &stats {
        stats.emit()?;
    }
    Ok(ExitCode::from(1))
}
