//! The [`EventSink`] tap: where live executions hand events to a trace.

use linrv_history::Event;

/// A destination for history events produced by a live execution.
///
/// Implemented by [`SharedTraceWriter`](crate::SharedTraceWriter); accepted by
/// the runtime recorder's seeded scheduler (`record_scheduled_traced`) and by
/// the `linrv` facade's `MonitorBuilder::trace_to`, so one trait wires every
/// producer to every trace format.
///
/// Sinks are called from the producer's hot path, potentially from many
/// threads, so implementations must be cheap and must not panic. Errors are the
/// sink's own business (e.g. latched and reported when the trace is finished):
/// a failing trace must never abort the execution being traced.
pub trait EventSink: Send + Sync {
    /// Records one event. Invocations and responses arrive in the order the
    /// producer serialised them — for a well-formed producer, the resulting
    /// event sequence is a well-formed history.
    fn event(&self, event: &Event);
}

/// A destination for history events tagged with the object they belong to.
///
/// Multi-object producers — `linrv-pool`'s `MonitorPool` foremost — interleave
/// the events of many independent objects into one stream; the tag is what lets
/// an offline checker verify the stream by per-object projection. Implemented
/// by [`SharedTraceWriter`](crate::SharedTraceWriter) (the tag is encoded into
/// the trace, see `FORMAT.md`).
///
/// The same hot-path contract as [`EventSink`] applies: cheap, thread-safe,
/// never panics, never aborts the traced execution.
pub trait TaggedEventSink: Send + Sync {
    /// Records one event of the object identified by `object`.
    fn tagged_event(&self, object: u64, event: &Event);
}

/// A sink that drops every event; useful as a default and in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn event(&self, _event: &Event) {}
}

impl TaggedEventSink for NullSink {
    fn tagged_event(&self, _object: u64, _event: &Event) {}
}

/// Forwarding through references, so `&sink` can be passed without cloning.
impl<S: EventSink + ?Sized> EventSink for &S {
    fn event(&self, event: &Event) {
        (**self).event(event);
    }
}

impl<S: EventSink + ?Sized> EventSink for std::sync::Arc<S> {
    fn event(&self, event: &Event) {
        (**self).event(event);
    }
}

impl<S: TaggedEventSink + ?Sized> TaggedEventSink for &S {
    fn tagged_event(&self, object: u64, event: &Event) {
        (**self).tagged_event(object, event);
    }
}

impl<S: TaggedEventSink + ?Sized> TaggedEventSink for std::sync::Arc<S> {
    fn tagged_event(&self, object: u64, event: &Event) {
        (**self).tagged_event(object, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{OpId, OpValue, ProcessId};
    use std::sync::Arc;

    #[test]
    fn null_sink_and_adapters_compile_and_run() {
        let event = Event::response(ProcessId::new(0), OpId::new(0), OpValue::Unit);
        let sink = NullSink;
        sink.event(&event);
        let by_ref: &dyn EventSink = &&sink;
        by_ref.event(&event);
        let arced: Arc<dyn EventSink> = Arc::new(NullSink);
        arced.event(&event);
        let tagged: Arc<dyn TaggedEventSink> = Arc::new(NullSink);
        tagged.tagged_event(7, &event);
        (&NullSink as &dyn TaggedEventSink).tagged_event(7, &event);
    }
}
