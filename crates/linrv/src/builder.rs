//! The fluent [`MonitorBuilder`]: spec, capacity, snapshot backend, mode and
//! trace tap in one chain.

use crate::monitor::{Monitor, MonitorInner};
use linrv_check::StrategyChecker;
pub use linrv_core::enforce::Mode;
use linrv_core::enforce::SelfEnforced;
use linrv_core::view::{TupleSet, View};
use linrv_runtime::ConcurrentObject;
use linrv_snapshot::{AfekSnapshot, LockedSnapshot, Snapshot};
use linrv_spec::TypedObject;
use linrv_trace::EventSink;
use std::fmt;
use std::sync::Arc;

/// Which atomic-snapshot construction the monitor's base objects use.
///
/// The paper's constructions only require a linearizable snapshot object
/// (Definition 7.3); the facade offers the wait-free one the paper assumes and a
/// blocking oracle. The lock-free double-collect construction stays in
/// [`linrv_snapshot`] for the raw API ([`SelfEnforced::with_snapshots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotBackend {
    /// The wait-free helping construction of Afek et al. — the paper's reference
    /// base object. `O(n²)` reads per operation. The default.
    #[default]
    Afek,
    /// A mutex-protected array: trivially linearizable but blocking. The
    /// differential-testing oracle; not wait-free.
    Locked,
}

/// Fluent configuration of a [`Monitor`].
///
/// ```
/// use linrv::prelude::*;
/// use linrv::runtime::impls::MsQueue;
///
/// let monitor = Monitor::builder(QueueSpec::new())
///     .processes(4)
///     .snapshot(SnapshotBackend::Locked)
///     .mode(Mode::Observe)
///     .build(MsQueue::new());
/// assert_eq!(monitor.capacity(), 4);
/// ```
#[derive(Clone)]
pub struct MonitorBuilder<S> {
    spec: S,
    capacity: usize,
    backend: SnapshotBackend,
    mode: Mode,
    sink: Option<Arc<dyn EventSink>>,
}

impl SnapshotBackend {
    /// An `n`-entry snapshot object of this construction, every entry `initial`.
    fn base_object<T: Clone + Send + Sync + 'static>(
        self,
        n: usize,
        initial: T,
    ) -> Arc<dyn Snapshot<T>> {
        match self {
            SnapshotBackend::Afek => Arc::new(AfekSnapshot::new(n, initial)),
            SnapshotBackend::Locked => Arc::new(LockedSnapshot::new(n, initial)),
        }
    }
}

impl<S: fmt::Debug> fmt::Debug for MonitorBuilder<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorBuilder")
            .field("spec", &self.spec)
            .field("capacity", &self.capacity)
            .field("backend", &self.backend)
            .field("mode", &self.mode)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

/// Default number of process slots when [`MonitorBuilder::processes`] is not
/// called.
pub const DEFAULT_CAPACITY: usize = 8;

impl<S: TypedObject> MonitorBuilder<S> {
    /// Starts a builder for monitors verifying against `spec`.
    pub fn new(spec: S) -> Self {
        MonitorBuilder {
            spec,
            capacity: DEFAULT_CAPACITY,
            backend: SnapshotBackend::default(),
            mode: Mode::default(),
            sink: None,
        }
    }

    /// Sets the maximum number of concurrently registered sessions (the `n` of the
    /// paper's constructions; the snapshot base objects have one entry each).
    /// Defaults to [`DEFAULT_CAPACITY`].
    pub fn processes(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Selects the snapshot construction used by the DRV wrapper and the verifier.
    /// Defaults to [`SnapshotBackend::Afek`].
    pub fn snapshot(mut self, backend: SnapshotBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects whether verification gates responses ([`Mode::Enforce`]) or runs
    /// off the critical path ([`Mode::Observe`]). Defaults to [`Mode::Enforce`].
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Streams every session operation into `sink` as a pair of history
    /// events — the invocation when it is announced, the response (the
    /// *underlying* implementation's value, before any Enforce-mode gating)
    /// when its view is collected. With a
    /// [`SharedTraceWriter`](linrv_trace::SharedTraceWriter) sink this captures
    /// live monitor traffic as a portable trace that `linrv check` can re-verify
    /// offline.
    ///
    /// The recorded order is the order in which the sink is reached, which can
    /// differ from the true real-time order by at most the paper's
    /// stretching/shrinking of intervals (Figures 5–6) — exactly the slack the
    /// verifier is proven sound against.
    pub fn trace_to(mut self, sink: impl EventSink + 'static) -> Self {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// Wraps the black-box implementation `inner` and finishes the monitor.
    pub fn build<A: ConcurrentObject>(self, inner: A) -> Monitor<A, S> {
        let enforced = SelfEnforced::with_snapshots(
            inner,
            StrategyChecker::new(self.spec),
            self.backend.base_object(self.capacity, View::new()),
            self.backend.base_object(self.capacity, TupleSet::new()),
        );
        Monitor::from_inner(MonitorInner {
            enforced,
            mode: self.mode,
            sink: self.sink,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_runtime::impls::MsQueue;
    use linrv_spec::QueueSpec;

    #[test]
    fn defaults_are_documented() {
        let builder = MonitorBuilder::new(QueueSpec::new());
        let monitor = builder.build(MsQueue::new());
        assert_eq!(monitor.capacity(), DEFAULT_CAPACITY);
        assert_eq!(monitor.mode(), Mode::Enforce);
        assert_eq!(SnapshotBackend::default(), SnapshotBackend::Afek);
    }

    #[test]
    fn trace_to_captures_live_session_traffic() {
        use linrv_history::Operation;
        use linrv_trace::{read_history, SharedTraceWriter, TraceFormat, TraceHeader};
        let sink = SharedTraceWriter::new(
            Vec::new(),
            TraceFormat::Jsonl,
            &TraceHeader::new(linrv_spec::ObjectKind::Queue),
        )
        .unwrap();
        let monitor = crate::Monitor::builder(QueueSpec::new())
            .processes(1)
            .trace_to(sink.clone())
            .build(MsQueue::new());
        let session = monitor.register().unwrap();
        session.enqueue(1).unwrap();
        assert_eq!(session.dequeue().unwrap(), Some(1));
        // The raw escape hatch is traced too.
        let raw = session.apply_raw(&Operation::nullary("Dequeue"));
        assert!(raw.is_verified());
        drop(session);
        let bytes = sink.finish().unwrap();
        let (header, history) = read_history(bytes.as_slice()).unwrap();
        assert_eq!(header.kind, linrv_spec::ObjectKind::Queue);
        assert_eq!(history.len(), 6, "three operations, two events each");
        assert!(history.is_well_formed());
        assert!(crate::is_linearizable(QueueSpec::new(), &history));
    }

    #[test]
    fn trace_records_the_underlying_value_of_rejected_responses() {
        use linrv_history::OpValue;
        use linrv_runtime::faulty::LossyQueue;
        use linrv_trace::{read_history, SharedTraceWriter, TraceFormat, TraceHeader};
        let sink = SharedTraceWriter::new(
            Vec::new(),
            TraceFormat::Binary,
            &TraceHeader::new(linrv_spec::ObjectKind::Queue),
        )
        .unwrap();
        let monitor = crate::Monitor::builder(QueueSpec::new())
            .processes(1)
            .trace_to(sink.clone())
            .build(LossyQueue::new(2));
        let session = monitor.register().unwrap();
        for i in 0..6 {
            let _ = session.enqueue(i);
        }
        let mut rejected = false;
        for _ in 0..6 {
            if session.dequeue().is_err() {
                rejected = true;
            }
        }
        assert!(rejected, "the lossy queue must be caught");
        drop(session);
        let bytes = sink.finish().unwrap();
        let (_, history) = read_history(bytes.as_slice()).unwrap();
        assert_eq!(history.len(), 24);
        // The trace documents what the implementation did, not the ERROR the
        // session returned: no Error values appear.
        assert!(history
            .events()
            .iter()
            .all(|e| e.value() != Some(&OpValue::Error)));
        // Offline re-checking the trace finds the violation again.
        assert!(!crate::is_linearizable(QueueSpec::new(), &history));
    }

    #[test]
    fn every_backend_builds() {
        for backend in [SnapshotBackend::Afek, SnapshotBackend::Locked] {
            let monitor = MonitorBuilder::new(QueueSpec::new())
                .processes(2)
                .snapshot(backend)
                .build(MsQueue::new());
            let session = monitor.register().unwrap();
            session.enqueue(1).unwrap();
            assert_eq!(session.dequeue().unwrap(), Some(1));
        }
    }
}
