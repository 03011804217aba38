//! # linrv-trace
//!
//! Portable, versioned history traces: the durable artifact between a run and
//! its verification.
//!
//! The paper's verifier consumes histories, but a `linrv_history::History` only
//! exists inside one process. This crate makes histories **first-class
//! artifacts**: a recorded run can be written to disk, shipped elsewhere and
//! re-checked later — the record / replay / offline-check workflow of the
//! `linrv` CLI, the golden-trace regression corpus and every cross-process
//! verification scenario.
//!
//! Two encodings of the same logical content (format version
//! [`FORMAT_VERSION`], full layout in `FORMAT.md`):
//!
//! * **JSONL** ([`TraceFormat::Jsonl`]) — one JSON object per line; readable,
//!   diffable, greppable. Hand-rolled codec (the workspace has no
//!   serialisation dependency).
//! * **Binary** ([`TraceFormat::Binary`]) — magic + version + length-framed
//!   records; denser and faster for large recorded runs.
//!
//! Both are **streaming**: [`TraceWriter`] emits events as they happen and
//! [`TraceReader`] yields them one at a time, so traces larger than memory are
//! fine in both directions. [`SharedTraceWriter`] adapts a writer into the
//! [`EventSink`] tap accepted by the runtime recorder and the `linrv` facade's
//! `MonitorBuilder::trace_to`.
//!
//! Multi-object producers (the `linrv-pool` monitor pool) additionally tag
//! every event with the object it belongs to — [`TaggedEventSink`],
//! [`TraceWriter::tagged_event`], [`TraceReader::next_tagged`] — so one trace
//! interleaves many objects and `linrv check` verifies it by per-object
//! projection. Tagging is an additive extension of format version 1: untagged
//! readers decode tagged JSONL traces unchanged (unknown fields are ignored)
//! and the binary encoding gives tagged events their own frame tags.
//!
//! ```
//! use linrv_history::{Event, History, OpId, OpValue, Operation, ProcessId};
//! use linrv_spec::ObjectKind;
//! use linrv_trace::{read_history, write_history, TraceFormat, TraceHeader};
//!
//! let p = ProcessId::new(0);
//! let history = History::from_events(vec![
//!     Event::invocation(p, OpId::new(0), Operation::new("Enqueue", OpValue::Int(7))),
//!     Event::response(p, OpId::new(0), OpValue::Bool(true)),
//! ]);
//! let header = TraceHeader::new(ObjectKind::Queue).with_seed(42);
//!
//! let mut bytes = Vec::new();
//! write_history(&mut bytes, TraceFormat::Binary, &header, &history)?;
//! let (decoded_header, decoded) = read_history(bytes.as_slice())?;
//! assert_eq!(decoded_header, header);
//! assert_eq!(decoded, history);
//! # Ok::<(), linrv_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod error;
mod header;
pub mod json;
mod jsonl;
mod reader;
mod sink;
mod writer;

pub use error::TraceError;
pub use header::{Provenance, TraceFormat, TraceHeader};
pub use reader::{read_history, read_tagged_history, TraceReader};
pub use sink::{EventSink, NullSink, TaggedEventSink};
pub use writer::{write_history, SharedTraceWriter, TraceWriter};

/// The trace format version this build reads and writes.
///
/// Readers reject other versions with [`TraceError::UnsupportedVersion`];
/// the layout of every version is documented in `FORMAT.md`.
pub const FORMAT_VERSION: u16 = 1;
