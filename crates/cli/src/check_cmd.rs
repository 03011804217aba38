//! The `check` subcommand: stream a trace into the linearizability checker.
//!
//! Exit status is the verdict: `0` when the recorded history is linearizable
//! with respect to the specification named by the trace header, `1` with a
//! violation certificate on stderr when it is not, `2` on malformed input.
//!
//! Multi-object traces (events tagged with object ids, as produced by
//! `linrv-pool`'s tagged trace sink) are verified by projection: each object's
//! events stream into that object's own checker, and the first violating
//! object is reported with its id.

use crate::args::Parsed;
use crate::io::{describe, open_input};
use crate::Failure;
use linrv_check::stream::StreamingChecker;
use linrv_check::Verdict;
use linrv_spec::{with_spec, SequentialSpec};
use linrv_trace::TraceReader;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

pub(crate) fn run(parsed: &Parsed) -> Result<ExitCode, Failure> {
    if parsed.positionals().len() > 1 {
        return Err(Failure::usage("check takes at most one trace file"));
    }
    let path = parsed.positionals().first().map(String::as_str);
    let quiet = parsed.has("quiet");
    let explain = parsed.has("explain");
    let stats = crate::stats::init(parsed);
    let input = open_input(path)?;
    let reader = TraceReader::new(input)
        .map_err(|err| format!("cannot read {}: {err}", describe(path, "stdin")))?;
    let source = describe(path, "stdin");
    let code = with_spec!(reader.header().kind, |spec| check(
        spec, reader, quiet, explain, &source
    ))?;
    if let Some(stats) = &stats {
        stats.emit()?;
    }
    Ok(code)
}

/// Renders `Some(id)` as ` of object {id}` and `None` (untagged events) as
/// nothing, so single-object traces keep their historical output.
fn describe_object(object: Option<u64>) -> String {
    match object {
        Some(id) => format!(" of object {id}"),
        None => String::new(),
    }
}

fn check<S: SequentialSpec + Clone>(
    spec: S,
    mut reader: TraceReader<impl Read>,
    quiet: bool,
    explain: bool,
    source: &str,
) -> Result<ExitCode, String> {
    let kind = reader.header().kind;
    // One streaming checker per object; untagged events all share the `None`
    // bucket, so a single-object trace behaves exactly as before.
    let mut checkers: BTreeMap<Option<u64>, StreamingChecker<S>> = BTreeMap::new();
    let mut events = 0u64;
    while let Some(item) = reader.next_tagged() {
        let (object, event) = item.map_err(|err| format!("cannot read {source}: {err}"))?;
        events += 1;
        let checker = checkers
            .entry(object)
            .or_insert_with(|| StreamingChecker::new(spec.clone()));
        if checker.push(event).is_some() {
            // Prefix closure: this object's violation is final, stop reading.
            break;
        }
    }
    let objects = checkers.len();
    for (object, checker) in checkers {
        let (_, verdict) = checker.finish();
        if let Verdict::NotMember { violation } = verdict {
            let which = describe_object(object);
            eprintln!(
                "linrv: {source}: VIOLATION after {events} events — history{which} is \
                 not linearizable w.r.t. the {kind} specification"
            );
            eprintln!("certificate (violating prefix{which}):");
            eprintln!("{violation}");
            if explain {
                // The violating prefix is itself a failing history; the
                // forensics pipeline upgrades the certificate into a
                // minimal-witness report.
                if let Some(explanation) = linrv_forensics::explain(kind, &violation.history) {
                    eprintln!();
                    eprint!("{}", linrv_forensics::render_report(&explanation));
                }
            }
            return Ok(ExitCode::from(1));
        }
    }
    if !quiet {
        let spread = if objects > 1 {
            format!(" across {objects} objects")
        } else {
            String::new()
        };
        eprintln!(
            "linrv: {source}: OK — {events} events{spread} linearizable w.r.t. the {kind} \
             specification"
        );
    }
    Ok(ExitCode::SUCCESS)
}
