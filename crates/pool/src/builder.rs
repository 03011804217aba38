//! The fluent [`PoolBuilder`]: sharding, checker threads, queueing and
//! per-object monitor configuration in one chain.

use crate::pool::{MonitorPool, PoolConfig};
use linrv::{Mode, SnapshotBackend, DEFAULT_CAPACITY};
use linrv_runtime::ConcurrentObject;
use linrv_spec::TypedObject;
use linrv_trace::TaggedEventSink;
use std::fmt;
use std::sync::Arc;

/// Default number of shards when [`PoolBuilder::shards`] is not called.
pub const DEFAULT_SHARDS: usize = 16;

/// Default bound of each shard's event queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Default batch size of one drain.
pub const DEFAULT_BATCH: usize = 256;

/// Fluent configuration of a [`MonitorPool`].
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
    queue_capacity: usize,
    batch: usize,
    sessions_per_object: usize,
    backend: SnapshotBackend,
    mode: Mode,
    sink: Option<Arc<dyn TaggedEventSink>>,
}

impl<S: fmt::Debug> fmt::Debug for PoolBuilder<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolBuilder")
            .field("spec", &self.spec)
            .field("shards", &self.shards)
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("batch", &self.batch)
            .field("sessions_per_object", &self.sessions_per_object)
            .field("backend", &self.backend)
            .field("mode", &self.mode)
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
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            batch: DEFAULT_BATCH,
            sessions_per_object: DEFAULT_CAPACITY,
            backend: SnapshotBackend::default(),
            mode: Mode::Observe,
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

    /// Bound of each shard's event queue: producers block (back-pressure) when
    /// their shard's queue is full. Defaults to [`DEFAULT_QUEUE_CAPACITY`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Maximum events one drain takes from a shard — and the queue depth at
    /// which a producer wakes a parked checker thread (events below it wait
    /// for the checker's next look, at most 20 ms). Defaults to
    /// [`DEFAULT_BATCH`].
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Maximum concurrently registered sessions per object (the per-object
    /// monitor's process capacity). Defaults to
    /// [`DEFAULT_CAPACITY`](linrv::DEFAULT_CAPACITY).
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

    /// Verification mode of every per-object monitor. Defaults to
    /// [`Mode::Observe`] — the pool's own incremental checkers already verify
    /// off the critical path, which is the point of pooling; select
    /// [`Mode::Enforce`] to additionally gate every response.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
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
            self.queue_capacity,
            PoolConfig {
                sessions_per_object: self.sessions_per_object,
                backend: self.backend,
                mode: self.mode,
                batch: self.batch,
            },
            self.sink,
        )
    }
}
