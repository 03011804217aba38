//! The `convert` subcommand: re-encode a trace (jsonl ↔ binary), streaming.

use crate::args::Parsed;
use crate::io::{describe, open_input, open_output, write_failure};
use crate::Failure;
use linrv_trace::{TraceFormat, TraceReader, TraceWriter};
use std::process::ExitCode;

pub(crate) fn run(parsed: &Parsed) -> Result<ExitCode, Failure> {
    if !parsed.positionals().is_empty() {
        return Err(Failure::usage(
            "convert takes no positional arguments (use --in/--out)",
        ));
    }
    let to: TraceFormat = parsed.require("to")?;
    let in_path = parsed.get("in");
    let out_path = parsed.get("out");
    let input = open_input(in_path)?;
    let in_name = describe(in_path, "stdin");
    let reader = TraceReader::new(input).map_err(|err| format!("cannot read {in_name}: {err}"))?;
    let out = open_output(out_path)?;
    let mut writer = TraceWriter::new(out, to, reader.header())
        .map_err(write_failure("cannot write trace header"))?;
    let mut reader = reader;
    while let Some(item) = reader.next_tagged() {
        // Multi-object traces round-trip: object tags survive the re-encode.
        let (object, event) = item.map_err(|err| format!("cannot read {in_name}: {err}"))?;
        match object {
            Some(object) => writer.tagged_event(object, &event),
            None => writer.event(&event),
        }
        .map_err(write_failure("cannot write event"))?;
    }
    let events = writer.events_written();
    writer
        .finish()
        .map_err(write_failure("cannot finish trace"))?;
    eprintln!(
        "linrv: converted {events} events from {in_name} to {} ({to})",
        describe(out_path, "stdout"),
    );
    Ok(ExitCode::SUCCESS)
}
