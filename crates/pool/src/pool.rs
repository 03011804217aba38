//! The [`MonitorPool`]: many per-object monitors behind sharded ingestion and
//! a work-stealing pool of checker threads.

use crate::metrics::PoolMetrics;
use crate::queue::BoundedQueue;
use crate::state::ObjectState;
use crate::verdict::{PoolVerdict, PoolViolation};
use linrv::{Mode, Monitor, MonitorBuilder, RegistryFull, Session, SnapshotBackend};
use linrv_history::Event;
use linrv_runtime::ConcurrentObject;
use linrv_spec::TypedObject;
use linrv_trace::TaggedEventSink;
use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How long a worker that found nothing to do sleeps before looking again:
/// the bound on how stale an event below the wake threshold can get.
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// Bound of each shard's event queue: producers block (back-pressure) when
/// their shard's queue is full.
pub(crate) const QUEUE_CAPACITY: usize = 1024;

/// Maximum events one drain takes from a shard — and the queue depth at which
/// a producer wakes a parked checker thread.
const BATCH: usize = 256;

/// Non-generic ingestion state shared by sessions (producers) and checker
/// threads (consumers): the per-shard queues and the drain/shutdown signalling.
/// Draining these queues is a checker thread's only work.
///
/// # The wake protocol
///
/// Checking is off the producers' critical path, so producers do not pay a
/// signal per event; they wake *by count*.
///
/// * **Who parks.** A worker whose scan found nothing it could take — every
///   queue empty or being drained by another worker — takes the `parked`
///   mutex, looks again, and only if there is still nothing bumps the count
///   and waits on `work_cv`: count and second look under the one mutex every
///   signaller takes.
/// * **Who signals, when.** A producer signals when its push brings its
///   shard's queue to exactly `wake_at` events ([`BATCH`], capped by the
///   queue capacity so that a queue cannot fill up without passing it): one
///   drain's worth. [`Ingest::quiesce`] (so `check_all`) and shutdown signal
///   unconditionally. These three are the only signallers. A signal is
///   `lock(parked)`, read the count, unlock, and `notify_all` only if a worker
///   is parked.
/// * **Why no wake-up is lost.** A signaller publishes its work (the push,
///   the shutdown flag) *before* taking the mutex. Its critical section
///   either precedes the worker's — then the worker's second look
///   sees the work and does not park — or follows it — then the worker is
///   already waiting (the wait released the mutex) and is notified. A queue
///   a worker left non-empty when it parked is held by a worker that is awake
///   and looks again after its batch, so every queue climbs to `wake_at` from
///   a drained state and the push that gets it there signals.
/// * **What bounds staleness.** Events that never add up to `wake_at` wait
///   for the parked worker's [`PARK_TIMEOUT`], or for the next `quiesce`.
pub(crate) struct Ingest {
    queues: Vec<BoundedQueue>,
    /// Queue depth at which a producer signals a parked worker.
    wake_at: usize,
    shutdown: AtomicBool,
    /// Events handed to the pool (counted *before* enqueueing, so quiesce never
    /// declares victory while a push is in flight).
    ingested: AtomicU64,
    /// Events fed to a per-object check state.
    processed: AtomicU64,
    /// Events dropped because the pool shut down while a producer was blocked.
    dropped: AtomicU64,
    /// This pool's registry-backed series; the atomics above are mirrored
    /// into it at their increment sites, everything else records here only.
    metrics: Arc<PoolMetrics>,
    /// Workers parked on `work_cv` (see the wake protocol above).
    parked: Mutex<usize>,
    work_cv: Condvar,
    /// Wakes `quiesce` when processed/dropped catch up with ingested.
    quiesce_mutex: Mutex<()>,
    quiesce_cv: Condvar,
    /// The user's trace tap: every ingested event is forwarded here, tagged
    /// with its object id, before it enters the shard queue.
    sink: Option<Arc<dyn TaggedEventSink>>,
}

impl Ingest {
    fn new(
        shards: usize,
        queue_capacity: usize,
        sink: Option<Arc<dyn TaggedEventSink>>,
        metrics: Arc<PoolMetrics>,
    ) -> Self {
        Ingest {
            wake_at: BATCH.min(queue_capacity).max(1),
            queues: (0..shards)
                .map(|shard| {
                    BoundedQueue::new(
                        queue_capacity,
                        metrics.queue_depth[shard].clone(),
                        metrics.producer_block_ns.clone(),
                    )
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            ingested: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            metrics,
            parked: Mutex::new(0),
            work_cv: Condvar::new(),
            quiesce_mutex: Mutex::new(()),
            quiesce_cv: Condvar::new(),
            sink,
        }
    }

    /// Signals the parked workers, if any. Callers publish their work first.
    fn wake_workers(&self) {
        let parked = *lock(&self.parked);
        if parked > 0 {
            self.metrics.wakeups.inc();
            self.work_cv.notify_all();
        }
    }

    /// Parks the calling worker until signalled or [`PARK_TIMEOUT`] — unless
    /// `still_needed`, evaluated under the mutex every signaller takes, says
    /// something was published since the worker last looked.
    fn park(&self, still_needed: impl FnOnce() -> bool) {
        let mut parked = lock(&self.parked);
        if still_needed() {
            return;
        }
        *parked += 1;
        let (mut parked, _) = self
            .work_cv
            .wait_timeout(parked, PARK_TIMEOUT)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *parked -= 1;
    }

    fn notify_quiesce(&self) {
        drop(lock(&self.quiesce_mutex));
        self.quiesce_cv.notify_all();
    }

    fn backlog(&self) -> bool {
        self.queues.iter().any(|q| q.len() > 0)
    }

    /// Whether a worker with nothing left to take should exit.
    fn drained_for_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) && !self.backlog()
    }

    /// Blocks until every event handed to the pool so far has been processed
    /// (or dropped by shutdown).
    fn quiesce(&self) {
        let caught_up = || {
            let done =
                self.processed.load(Ordering::Acquire) + self.dropped.load(Ordering::Acquire);
            done >= self.ingested.load(Ordering::Acquire)
        };
        while !caught_up() {
            self.wake_workers();
            let guard = lock(&self.quiesce_mutex);
            // Looked at again under the mutex `notify_quiesce` takes, so the
            // worker's signal cannot fall between the look and the wait.
            if caught_up() {
                return;
            }
            let _ = self
                .quiesce_cv
                .wait_timeout(guard, Duration::from_millis(5))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// The per-session trace tap: forwards each event of one object into its
/// shard's queue (and to the user's tagged sink, when installed).
struct ObjectSink {
    object: u64,
    shard: usize,
    ingest: Arc<Ingest>,
}

impl linrv_trace::EventSink for ObjectSink {
    fn event(&self, event: &Event) {
        if let Some(sink) = &self.ingest.sink {
            sink.tagged_event(self.object, event);
        }
        // Mirror into the registry before the control increment: the control
        // atomic's release/acquire pair then publishes the mirror too.
        self.ingest.metrics.ingested.inc();
        self.ingest.metrics.shard_ingested[self.shard].inc();
        // Count before pushing: quiesce must not observe ingested < queued.
        self.ingest.ingested.fetch_add(1, Ordering::Release);
        let depth = self.ingest.queues[self.shard]
            .push((self.object, event.clone()), &self.ingest.shutdown);
        match depth {
            Some(depth) if depth == self.ingest.wake_at => self.ingest.wake_workers(),
            Some(_) => {}
            None => {
                self.ingest.metrics.dropped.inc();
                self.ingest.dropped.fetch_add(1, Ordering::Release);
                self.ingest.notify_quiesce();
            }
        }
    }
}

/// One shard: its lazily-populated object registry and the drain lock that
/// serialises consumers (whoever holds it owns the shard's event order).
struct Shard<A, S: TypedObject> {
    registry: Mutex<HashMap<u64, Arc<ObjectEntry<A, S>>>>,
    drain: Mutex<()>,
}

/// One monitored object: its DRV monitor and its check state.
struct ObjectEntry<A, S: TypedObject> {
    monitor: Monitor<A, S>,
    state: Mutex<ObjectState<S>>,
}

/// Per-object monitor configuration frozen at build time (see `PoolBuilder`).
pub(crate) struct PoolConfig {
    pub(crate) sessions_per_object: usize,
    pub(crate) backend: SnapshotBackend,
}

/// State shared between the pool handle and its checker threads.
struct Shared<A, S: TypedObject> {
    ingest: Arc<Ingest>,
    shards: Vec<Shard<A, S>>,
    spec: S,
    factory: Box<dyn Fn(u64) -> A + Send + Sync>,
    config: PoolConfig,
}

fn shard_of(object: u64, shards: usize) -> usize {
    // splitmix64 finaliser: cheap, stateless, and spreads sequential ids.
    let mut x = object.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as usize % shards
}

impl<A, S> Shared<A, S>
where
    A: ConcurrentObject + 'static,
    S: TypedObject + Clone + Send + Sync + 'static,
{
    fn entry(&self, object: u64) -> Arc<ObjectEntry<A, S>> {
        let shard = shard_of(object, self.shards.len());
        let mut registry = lock(&self.shards[shard].registry);
        Arc::clone(registry.entry(object).or_insert_with(|| {
            let sink = ObjectSink {
                object,
                shard,
                ingest: Arc::clone(&self.ingest),
            };
            let monitor = MonitorBuilder::new(self.spec.clone())
                .processes(self.config.sessions_per_object)
                .snapshot(self.config.backend)
                .mode(Mode::Observe)
                .trace_to(sink)
                .build((self.factory)(object));
            Arc::new(ObjectEntry {
                monitor,
                state: Mutex::new(ObjectState::new(self.spec.clone())),
            })
        }))
    }

    fn lookup(&self, object: u64) -> Option<Arc<ObjectEntry<A, S>>> {
        let shard = shard_of(object, self.shards.len());
        lock(&self.shards[shard].registry).get(&object).cloned()
    }

    /// One worker's main loop: drain the home shard, else steal from the
    /// others, one batch at a time; park when nothing is takeable. `workers`
    /// is the pool's worker count: worker `i`'s home is shard `i % shards`.
    fn worker(&self, home: usize, workers: usize) {
        let shards = self.shards.len();
        let mut batch: Vec<(u64, Event)> = Vec::with_capacity(BATCH);
        // Consecutive events usually belong to few objects; cache the last hit.
        let mut cached: Option<(u64, Arc<ObjectEntry<A, S>>)> = None;
        'scan: loop {
            for k in 0..shards {
                let shard = (home + k) % shards;
                if self.ingest.queues[shard].len() == 0 {
                    continue;
                }
                // One drainer per shard at a time: holding the guard through
                // batch processing keeps every object's event order intact.
                let _guard = match self.shards[shard].drain.try_lock() {
                    Ok(guard) => guard,
                    Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => continue,
                };
                let n = self.ingest.queues[shard].drain_into(&mut batch, BATCH);
                if n == 0 {
                    continue;
                }
                // A steal takes work from under another worker: draining a
                // shard that is nobody's home is this worker's own job.
                if shard != home && shard < workers.min(shards) {
                    self.ingest.metrics.steals.inc();
                }
                for (object, event) in batch.drain(..) {
                    let entry = match &cached {
                        Some((id, entry)) if *id == object => Arc::clone(entry),
                        _ => {
                            let entry = self
                                .lookup(object)
                                .expect("events only come from registered objects");
                            cached = Some((object, Arc::clone(&entry)));
                            entry
                        }
                    };
                    lock(&entry.state).on_event(object, event, &self.ingest.metrics.counters);
                }
                self.ingest.metrics.processed.add(n as u64);
                self.ingest.processed.fetch_add(n as u64, Ordering::Release);
                self.ingest.notify_quiesce();
                continue 'scan; // back to the home shard between batches
            }
            if self.ingest.drained_for_shutdown() {
                return;
            }
            self.ingest
                .park(|| self.takeable() || self.ingest.drained_for_shutdown());
        }
    }

    /// Whether a worker's scan would find something: a non-empty queue no
    /// other worker is draining (that worker looks again itself).
    fn takeable(&self) -> bool {
        let free = |shard: &Shard<A, S>| {
            !matches!(
                shard.drain.try_lock(),
                Err(std::sync::TryLockError::WouldBlock)
            )
        };
        (self.shards.iter().zip(&self.ingest.queues))
            .any(|(shard, queue)| queue.len() > 0 && free(shard))
    }

    /// Every registered object, ordered by id: a snapshot taken one shard
    /// lock at a time, so callers read object state outside the registry
    /// locks and sessions on new objects are not held up behind them.
    fn entries(&self) -> Vec<(u64, Arc<ObjectEntry<A, S>>)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let registry = lock(&shard.registry);
            all.extend(registry.iter().map(|(id, entry)| (*id, Arc::clone(entry))));
        }
        all.sort_by_key(|(id, _)| *id);
        all
    }
}

/// Aggregate counters of a [`MonitorPool`] (see [`MonitorPool::stats`]).
///
/// `gced_events > 0` with a small `retained_events` shows the checkers'
/// bound at work: at a settle point an object's events so far are verified
/// and summarised by one state; only what followed its last settle point is
/// retained. It bounds the checkers' events, not the pool's memory: each
/// pooled object's monitor keeps its arrays `N` and `M` for life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Objects with a live monitor.
    pub objects: u64,
    /// Events handed to the pool by sessions.
    pub ingested: u64,
    /// Events fed into per-object incremental checks.
    pub processed: u64,
    /// Events dropped during shutdown.
    pub dropped: u64,
    /// Whole-window decisions across all objects (confirmations, re-checks
    /// after a frontier fell back, final decisions); the frontier needs none.
    pub checks: u64,
    /// Events verified and dropped at settle points.
    pub gced_events: u64,
    /// Events since each object's last settle point, summed over objects.
    pub retained_events: u64,
    /// Objects with a latched violation.
    pub violations: u64,
    /// Batches a worker drained from the home shard of *another* worker
    /// (always 0 with one worker: draining a shard that is nobody's home is
    /// not a steal).
    pub steals: u64,
    /// Signals that found a worker parked: producers send one when a shard's
    /// queue reaches a batch, `quiesce` (so `check_all`) and shutdown whenever
    /// they run. Orders of magnitude below `ingested` under load.
    pub wakeups: u64,
}

/// Per-object counters (see [`MonitorPool::object_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObjectStats {
    /// The object id.
    pub object: u64,
    /// Events since the object's last settle point.
    pub retained_events: u64,
    /// Events of this object verified and dropped at settle points.
    pub gced_events: u64,
    /// Whole-window decisions for this object.
    pub checks: u64,
    /// Whether a violation has been latched for this object.
    pub violating: bool,
}

/// Per-shard counters (see [`MonitorPool::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Objects registered in this shard.
    pub objects: u64,
    /// Events ingested through this shard's queue.
    pub ingested: u64,
    /// Events currently waiting in this shard's queue.
    pub queued: u64,
}

/// A sharded pool of per-object monitors with asynchronous incremental
/// checking.
///
/// Events flow: each object's [`Monitor`] taps its session traffic into the
/// object's shard queue; a work-stealing pool of checker threads, woken once
/// per batch, drains the shards and feeds each object's streaming checker,
/// which decides every event on arrival and drops the object's history at
/// each settle point — whenever nothing of the object is open and one state
/// is reachable.
///
/// Build one with [`PoolBuilder`](crate::PoolBuilder); obtain per-object typed
/// session handles with [`MonitorPool::session`].
pub struct MonitorPool<A, S: TypedObject> {
    shared: Arc<Shared<A, S>>,
    workers: Vec<JoinHandle<()>>,
}

/// A typed session on one object of a [`MonitorPool`].
///
/// Dereferences to the underlying [`Session`], so every typed operation
/// (`enqueue`, `write`, …) and the raw escape hatch work unchanged.
///
/// # Per-object operation cost
///
/// The pool's GC bounds how much *history* each object retains, but the
/// monitor underneath follows Figures 7 and 10 of the paper: its announcement
/// and result logs grow with the object's total operation count, and so does
/// the view each tuple holds. An operation's work does not: announce, collect
/// and record each cost `O(n)` plus a walk of `O(log k)` log chunks on an
/// object that has served `k` operations, and none copies an earlier pair or
/// tuple. Memory, though, stays linear in `k` per object (Section 9.1
/// discusses bounded-size representations): spreading load across many
/// objects is cheap, while funnelling millions of operations through a single
/// object grows its logs without bound — at the monitor layer, independently
/// of this crate.
pub struct PoolSession<A: ConcurrentObject, S: TypedObject> {
    object: u64,
    session: Session<A, S>,
}

impl<A: ConcurrentObject, S: TypedObject> PoolSession<A, S> {
    /// The object this session operates on.
    pub fn object(&self) -> u64 {
        self.object
    }
}

impl<A: ConcurrentObject, S: TypedObject> Deref for PoolSession<A, S> {
    type Target = Session<A, S>;

    fn deref(&self) -> &Session<A, S> {
        &self.session
    }
}

impl<A, S> MonitorPool<A, S>
where
    A: ConcurrentObject + 'static,
    S: TypedObject + Clone + Send + Sync + 'static,
{
    pub(crate) fn start(
        spec: S,
        factory: Box<dyn Fn(u64) -> A + Send + Sync>,
        shards: usize,
        workers: usize,
        queue_capacity: usize,
        config: PoolConfig,
        sink: Option<Arc<dyn TaggedEventSink>>,
    ) -> Self {
        let shards = shards.max(1);
        let metrics = Arc::new(PoolMetrics::register(shards));
        let ingest = Arc::new(Ingest::new(shards, queue_capacity, sink, metrics));
        let shared = Arc::new(Shared {
            ingest,
            shards: (0..shards)
                .map(|_| Shard {
                    registry: Mutex::new(HashMap::new()),
                    drain: Mutex::new(()),
                })
                .collect(),
            spec,
            factory,
            config,
        });
        let count = workers.max(1);
        let workers = (0..count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let home = index % shards;
                std::thread::Builder::new()
                    .name(format!("linrv-pool-{index}"))
                    .spawn(move || shared.worker(home, count))
                    .expect("spawning a checker thread")
            })
            .collect();
        MonitorPool { shared, workers }
    }

    /// Registers a typed session on `object`, creating the object's monitor
    /// (and its implementation instance, via the factory) on first use.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryFull`] when the object already has
    /// `sessions_per_object` live sessions.
    pub fn session(&self, object: u64) -> Result<PoolSession<A, S>, RegistryFull> {
        let entry = self.shared.entry(object);
        Ok(PoolSession {
            object,
            session: entry.monitor.register()?,
        })
    }

    /// Blocks until every event ingested so far has been fed through the
    /// incremental checkers.
    pub fn quiesce(&self) {
        self.shared.ingest.quiesce();
    }

    /// Quiesces, finishes every object and returns the per-object verdicts.
    ///
    /// The final decisions run on the calling thread, one object after
    /// another; checker threads only drain shard queues. An object whose
    /// frontier decided every event only reports. One whose frontier fell back
    /// (past its bound, or on an ill-formed event) gets a whole-window decision
    /// here, so such objects are decided one after another, not in parallel.
    /// The benchmark's pool workload (`pool-short`) has no such object.
    pub fn check_all(&self) -> BTreeMap<u64, PoolVerdict> {
        self.quiesce();
        let counters = &self.shared.ingest.metrics.counters;
        self.shared
            .entries()
            .into_iter()
            .map(|(object, entry)| (object, lock(&entry.state).finalize(object, counters)))
            .collect()
    }

    /// The violations latched so far, ordered by object id. Unlike
    /// [`check_all`](Self::check_all) this does not quiesce or run final
    /// checks — it reports what the asynchronous checkers have already found.
    pub fn violations(&self) -> Vec<PoolViolation> {
        self.shared
            .entries()
            .into_iter()
            .filter_map(|(_, entry)| lock(&entry.state).violation().cloned())
            .collect()
    }

    /// Aggregate counters: ingestion, checks, GC, retention, steals.
    ///
    /// A thin view over this pool's series in the global [`linrv_obs`]
    /// registry — a Prometheus or JSON export reads the same numbers. The
    /// retention and object-count gauges are refreshed here (they summarise
    /// per-object state too expensive to maintain on the hot path).
    pub fn stats(&self) -> PoolStats {
        let metrics = &self.shared.ingest.metrics;
        let mut objects = 0;
        let mut retained = 0;
        for (_, entry) in self.shared.entries() {
            objects += 1;
            retained += lock(&entry.state).retained() as u64;
        }
        metrics.objects.set(objects as i64);
        metrics.retained_events.set(retained as i64);
        PoolStats {
            objects,
            ingested: metrics.ingested.get(),
            processed: metrics.processed.get(),
            dropped: metrics.dropped.get(),
            checks: metrics.counters.checks.get(),
            gced_events: metrics.counters.gced.get(),
            retained_events: retained,
            violations: metrics.counters.violations.get(),
            steals: metrics.steals.get(),
            wakeups: metrics.wakeups.get(),
        }
    }

    /// Per-object counters of `object`, when the object has been touched.
    ///
    /// `gced_events` growing while `retained_events` stays small is the
    /// observable form of settle points: verified history is summarised away
    /// as it arrives.
    pub fn object_stats(&self, object: u64) -> Option<ObjectStats> {
        self.shared.lookup(object).map(|entry| {
            let state = lock(&entry.state);
            ObjectStats {
                object,
                retained_events: state.retained() as u64,
                gced_events: state.gced(),
                checks: state.checks(),
                violating: state.violation().is_some(),
            }
        })
    }

    /// Per-shard counters, one entry per shard — a thin view over this pool's
    /// `shard`-labeled registry series.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let metrics = &self.shared.ingest.metrics;
        self.shared
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardStats {
                shard: index,
                objects: lock(&shard.registry).len() as u64,
                ingested: metrics.shard_ingested[index].get(),
                queued: metrics.queue_depth[index].get().max(0) as u64,
            })
            .collect()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Number of checker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl<A, S: TypedObject> Drop for MonitorPool<A, S> {
    fn drop(&mut self) {
        self.shared.ingest.shutdown.store(true, Ordering::Release);
        self.shared.ingest.wake_workers();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_runtime::impls::AtomicCounter;
    use linrv_spec::CounterSpec;

    #[test]
    fn a_producer_blocked_on_a_full_queue_survives_the_pool_being_dropped() {
        // One shard, one worker, a 2-slot queue.
        let config = PoolConfig {
            sessions_per_object: 1,
            backend: SnapshotBackend::default(),
        };
        let factory = Box::new(|_| AtomicCounter::new());
        let pool = MonitorPool::start(CounterSpec::new(), factory, 1, 1, 2, config, None);
        let session = pool.session(0).unwrap();
        let ingest = Arc::clone(&pool.shared.ingest);
        let entry = pool.shared.lookup(0).unwrap();
        std::thread::scope(|scope| {
            // Wedge the only worker: it blocks on this object's check state.
            let wedge = lock(&entry.state);
            let producer = scope.spawn(move || {
                for _ in 0..4 {
                    session.inc().unwrap();
                }
            });
            // 8 events: 2 with the wedged worker at most, 2 in the queue, the
            // rest behind a push that blocks.
            while ingest.ingested.load(Ordering::Acquire) < 3 || ingest.queues[0].len() < 2 {
                std::thread::yield_now();
            }
            let dropper = scope.spawn(move || drop(pool));
            producer.join().expect("the blocked push returned");
            drop(wedge);
            dropper
                .join()
                .expect("the worker drained what was queued and left");
        });
        let ingested = ingest.ingested.load(Ordering::Acquire);
        let processed = ingest.processed.load(Ordering::Acquire);
        let dropped = ingest.dropped.load(Ordering::Acquire);
        assert_eq!(ingested, 8);
        assert!(dropped >= 1, "the blocked event was dropped, not lost");
        assert_eq!(
            processed + dropped,
            ingested,
            "every event is accounted for"
        );
        assert_eq!(ingest.metrics.dropped.get(), dropped);
    }
}
