//! Streaming trace writers.

use crate::error::TraceError;
use crate::header::{TraceFormat, TraceHeader};
use crate::sink::{EventSink, TaggedEventSink};
use crate::{binary, jsonl};
use linrv_history::{Event, History};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A streaming trace writer: the header is written on construction, events are
/// written one at a time and never buffered beyond the current record.
///
/// `TraceWriter` performs many small writes, so wrap slow sinks (files, pipes)
/// in a [`std::io::BufWriter`].
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    format: TraceFormat,
    /// Scratch buffers reused across events, so the per-event hot path
    /// performs no steady-state allocation.
    scratch: Vec<u8>,
    line: String,
    events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the preamble and header for a new trace in `format`.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the underlying writer fails.
    pub fn new(mut out: W, format: TraceFormat, header: &TraceHeader) -> Result<Self, TraceError> {
        match format {
            TraceFormat::Jsonl => {
                let mut line = jsonl::encode_header(header);
                line.push('\n');
                out.write_all(line.as_bytes())?;
            }
            TraceFormat::Binary => {
                let mut bytes = Vec::new();
                binary::encode_preamble(&mut bytes);
                binary::encode_header(&mut bytes, header)?;
                out.write_all(&bytes)?;
            }
        }
        Ok(TraceWriter {
            out,
            format,
            scratch: Vec::new(),
            line: String::new(),
            events: 0,
        })
    }

    /// Appends one event to the trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the underlying writer fails, or when a
    /// binary event frame would exceed the format's 16 MiB cap (readers would
    /// reject it, so writing it is refused up front).
    pub fn event(&mut self, event: &Event) -> Result<(), TraceError> {
        self.write_tagged(None, event)
    }

    /// Appends one event tagged with the object it belongs to, for multi-object
    /// traces (see `FORMAT.md`).
    ///
    /// # Errors
    ///
    /// See [`TraceWriter::event`].
    pub fn tagged_event(&mut self, object: u64, event: &Event) -> Result<(), TraceError> {
        self.write_tagged(Some(object), event)
    }

    fn write_tagged(&mut self, object: Option<u64>, event: &Event) -> Result<(), TraceError> {
        match self.format {
            TraceFormat::Jsonl => {
                self.line.clear();
                jsonl::encode_tagged_event(&mut self.line, object, event);
                self.line.push('\n');
                self.out.write_all(self.line.as_bytes())?;
            }
            TraceFormat::Binary => {
                self.scratch.clear();
                binary::encode_tagged_event(&mut self.scratch, object, event)?;
                self.out.write_all(&self.scratch)?;
            }
        }
        self.events += 1;
        Ok(())
    }

    /// Number of events written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// The encoding this writer produces.
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the flush fails.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes a complete in-memory [`History`] as one trace, returning the number
/// of events written.
///
/// # Errors
///
/// Returns a [`TraceError`] when the underlying writer fails.
pub fn write_history<W: Write>(
    out: W,
    format: TraceFormat,
    header: &TraceHeader,
    history: &History,
) -> Result<u64, TraceError> {
    let mut writer = TraceWriter::new(out, format, header)?;
    for event in history.events() {
        writer.event(event)?;
    }
    let events = writer.events_written();
    writer.finish()?;
    Ok(events)
}

/// A cloneable, thread-safe handle around a [`TraceWriter`], usable as the
/// [`EventSink`] of a recorder or monitor.
///
/// Events arriving from several threads are serialised through an internal
/// mutex, so the trace's event order is the order in which the sink was called.
/// The first write error is latched — later events are dropped — and surfaces
/// from [`SharedTraceWriter::finish`].
pub struct SharedTraceWriter<W: Write + Send> {
    inner: Arc<Mutex<SharedState<W>>>,
}

struct SharedState<W: Write + Send> {
    writer: Option<TraceWriter<W>>,
    error: Option<TraceError>,
}

impl<W: Write + Send> Clone for SharedTraceWriter<W> {
    fn clone(&self) -> Self {
        SharedTraceWriter {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<W: Write + Send> SharedTraceWriter<W> {
    /// Starts a shared trace (see [`TraceWriter::new`]).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when writing the header fails.
    pub fn new(out: W, format: TraceFormat, header: &TraceHeader) -> Result<Self, TraceError> {
        let writer = TraceWriter::new(out, format, header)?;
        Ok(SharedTraceWriter {
            inner: Arc::new(Mutex::new(SharedState {
                writer: Some(writer),
                error: None,
            })),
        })
    }

    /// Number of events successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.lock()
            .writer
            .as_ref()
            .map_or(0, TraceWriter::events_written)
    }

    /// Whether a write has failed. The error stays latched until
    /// [`SharedTraceWriter::finish`] returns it, and every event until then is
    /// dropped, so a producer may stop early.
    pub fn has_failed(&self) -> bool {
        self.lock().error.is_some()
    }

    /// Finishes the trace: flushes and returns the underlying writer.
    ///
    /// Any handle may call this once; subsequent calls (and events) fail with
    /// [`TraceError::AlreadyFinished`].
    ///
    /// # Errors
    ///
    /// Returns the first latched write error, or the flush error.
    pub fn finish(&self) -> Result<W, TraceError> {
        let mut state = self.lock();
        if let Some(error) = state.error.take() {
            return Err(error);
        }
        match state.writer.take() {
            Some(writer) => writer.finish(),
            None => Err(TraceError::AlreadyFinished),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SharedState<W>> {
        // Mirror parking_lot semantics: a panic while holding the lock (only
        // possible inside TraceWriter, which does not panic) must not wedge
        // every later event.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<W: Write + Send> EventSink for SharedTraceWriter<W> {
    fn event(&self, event: &Event) {
        self.sink(None, event);
    }
}

impl<W: Write + Send> TaggedEventSink for SharedTraceWriter<W> {
    fn tagged_event(&self, object: u64, event: &Event) {
        self.sink(Some(object), event);
    }
}

impl<W: Write + Send> SharedTraceWriter<W> {
    fn sink(&self, object: Option<u64>, event: &Event) {
        let mut state = self.lock();
        if state.error.is_some() {
            return;
        }
        if let Some(writer) = state.writer.as_mut() {
            if let Err(error) = writer.write_tagged(object, event) {
                state.error = Some(error);
                state.writer = None;
            }
        }
    }
}

impl<W: Write + Send> std::fmt::Debug for SharedTraceWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTraceWriter")
            .field("events_written", &self.events_written())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_history;
    use linrv_history::{OpId, OpValue, Operation, ProcessId};
    use linrv_spec::ObjectKind;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::invocation(
                ProcessId::new(0),
                OpId::new(0),
                Operation::new("Enqueue", OpValue::Int(1)),
            ),
            Event::response(ProcessId::new(0), OpId::new(0), OpValue::Bool(true)),
        ]
    }

    #[test]
    fn write_history_round_trips_both_formats() {
        let history = History::from_events(sample_events());
        let header = TraceHeader::new(ObjectKind::Queue).with_seed(7);
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let mut bytes = Vec::new();
            let written = write_history(&mut bytes, format, &header, &history).unwrap();
            assert_eq!(written, 2);
            let (decoded_header, decoded) = read_history(bytes.as_slice()).unwrap();
            assert_eq!(decoded_header, header);
            assert_eq!(decoded, history);
        }
    }

    #[test]
    fn shared_writer_serialises_concurrent_events() {
        let shared = SharedTraceWriter::new(
            Vec::new(),
            TraceFormat::Binary,
            &TraceHeader::new(ObjectKind::Counter),
        )
        .unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let sink = shared.clone();
                scope.spawn(move || {
                    for i in 0..25 {
                        sink.event(&Event::response(
                            ProcessId::new(t),
                            OpId::new(u64::from(t) * 100 + i),
                            OpValue::Int(i64::from(t)),
                        ));
                    }
                });
            }
        });
        assert_eq!(shared.events_written(), 100);
        let bytes = shared.finish().unwrap();
        let (_, history) = read_history(bytes.as_slice()).unwrap();
        assert_eq!(history.len(), 100);
        assert!(matches!(shared.finish(), Err(TraceError::AlreadyFinished)));
    }

    #[test]
    fn shared_writer_latches_the_first_io_error() {
        /// A writer that fails after the header.
        #[derive(Debug)]
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    Err(std::io::Error::other("disk full"))
                } else {
                    self.0 = self.0.saturating_sub(1);
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = SharedTraceWriter::new(
            FailAfter(1),
            TraceFormat::Jsonl,
            &TraceHeader::new(ObjectKind::Queue),
        )
        .unwrap();
        assert!(!shared.has_failed());
        for event in sample_events() {
            shared.event(&event); // first fails and latches, second is dropped
        }
        assert!(shared.has_failed());
        let err = shared.finish().unwrap_err();
        assert!(err.to_string().contains("disk full"));
    }
}
