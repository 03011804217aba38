//! The fluent [`PoolBuilder`]: sharding, checker threads and per-object
//! monitor configuration in one chain.

use crate::pool::{MonitorPool, PoolConfig, QUEUE_CAPACITY};
use linrv::{SnapshotBackend, DEFAULT_CAPACITY};
use linrv_runtime::ConcurrentObject;
use linrv_spec::TypedObject;
use linrv_trace::TaggedEventSink;
use std::fmt;
use std::sync::Arc;

/// Default number of shards when [`PoolBuilder::shards`] is not called.
pub const DEFAULT_SHARDS: usize = 16;

/// Fluent configuration of a [`MonitorPool`].
///
/// Every per-object monitor runs in [`Mode::Observe`](linrv::Mode::Observe):
/// the pool's own checkers verify off the critical path, which is the point of
/// pooling. Each shard's event queue holds 1024 events (producers block when
/// it is full) and a checker drains at most 256 at a time.
///
/// ```
/// use linrv_pool::prelude::*;
/// use linrv::runtime::impls::AtomicIntRegister;
///
/// let pool = PoolBuilder::new(RegisterSpec::new())
///     .shards(4)
///     .workers(2)
///     .build(|_object| AtomicIntRegister::new());
/// let session = pool.session(7).unwrap();
/// session.write(42).unwrap();
/// assert_eq!(session.read().unwrap(), 42);
/// assert!(pool.check_all().values().all(|verdict| verdict.is_correct()));
/// ```
pub struct PoolBuilder<S> {
    spec: S,
    shards: usize,
    workers: usize,
    sessions_per_object: usize,
    backend: SnapshotBackend,
    sink: Option<Arc<dyn TaggedEventSink>>,
}

impl<S: fmt::Debug> fmt::Debug for PoolBuilder<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolBuilder")
            .field("spec", &self.spec)
            .field("shards", &self.shards)
            .field("workers", &self.workers)
            .field("sessions_per_object", &self.sessions_per_object)
            .field("backend", &self.backend)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

impl<S: TypedObject + Clone + Send + Sync + 'static> PoolBuilder<S> {
    /// Starts a builder for pools verifying every object against `spec`.
    pub fn new(spec: S) -> Self {
        PoolBuilder {
            spec,
            shards: DEFAULT_SHARDS,
            workers: default_workers(),
            sessions_per_object: DEFAULT_CAPACITY,
            backend: SnapshotBackend::default(),
            sink: None,
        }
    }

    /// Number of shards object ids are hashed across. Each shard has its own
    /// bounded event queue and object registry. Defaults to
    /// [`DEFAULT_SHARDS`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Number of checker threads draining the shards. Defaults to the
    /// machine's available parallelism, clamped to `2..=8`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Maximum concurrently registered sessions per object (the per-object
    /// monitor's process capacity). Defaults to
    /// [`DEFAULT_CAPACITY`].
    pub fn sessions_per_object(mut self, sessions: usize) -> Self {
        self.sessions_per_object = sessions.max(1);
        self
    }

    /// Snapshot construction of every per-object monitor. Defaults to
    /// [`SnapshotBackend::Afek`].
    pub fn snapshot(mut self, backend: SnapshotBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Streams every ingested event, tagged with its object id, into `sink` —
    /// with a [`SharedTraceWriter`](linrv_trace::SharedTraceWriter) this
    /// captures a multi-object trace that `linrv check` re-verifies offline by
    /// per-object projection.
    pub fn trace_to(mut self, sink: impl TaggedEventSink + 'static) -> Self {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// Finishes the pool. `factory` builds the black-box implementation
    /// instance of each object on first use.
    pub fn build<A, F>(self, factory: F) -> MonitorPool<A, S>
    where
        A: ConcurrentObject + 'static,
        F: Fn(u64) -> A + Send + Sync + 'static,
    {
        MonitorPool::start(
            self.spec,
            Box::new(factory),
            self.shards,
            self.workers,
            QUEUE_CAPACITY,
            PoolConfig {
                sessions_per_object: self.sessions_per_object,
                backend: self.backend,
            },
            self.sink,
        )
    }
}
