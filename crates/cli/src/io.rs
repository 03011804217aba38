//! Input/output plumbing shared by the subcommands.

use crate::Failure;
use linrv_trace::TraceError;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Opens the trace input: a file path, or stdin for `None` / `"-"`.
pub(crate) fn open_input(path: Option<&str>) -> Result<Box<dyn Read>, String> {
    match path {
        None | Some("-") => Ok(Box::new(io::stdin())),
        Some(path) => File::open(path)
            .map(|f| Box::new(f) as Box<dyn Read>)
            .map_err(|err| format!("cannot open {path}: {err}")),
    }
}

/// Opens the trace output: a file path, or stdout for `None` / `"-"`. Buffered
/// either way — the trace writers perform many small writes.
pub(crate) fn open_output(path: Option<&str>) -> Result<Box<dyn Write + Send>, String> {
    match path {
        None | Some("-") => Ok(Box::new(BufWriter::new(io::stdout()))),
        Some(path) => File::create(path)
            .map(|f| Box::new(BufWriter::new(f)) as Box<dyn Write + Send>)
            .map_err(|err| format!("cannot create {path}: {err}")),
    }
}

/// Human-readable name for a maybe-path, for status messages.
pub(crate) fn describe(path: Option<&str>, fallback: &str) -> String {
    match path {
        None | Some("-") => fallback.to_string(),
        Some(path) => Path::new(path).display().to_string(),
    }
}

/// The [`Failure`] of a trace write that failed with `error`: `ReaderGone`
/// when the output's reader closed the pipe, otherwise the error after
/// `context`.
pub(crate) fn write_failure(context: &'static str) -> impl FnOnce(TraceError) -> Failure {
    move |error| match &error {
        TraceError::Io(io) if io.kind() == io::ErrorKind::BrokenPipe => Failure::ReaderGone,
        _ => Failure::Error(format!("{context}: {error}")),
    }
}
