//! Pool metrics: every [`MonitorPool`](crate::MonitorPool) counter lives in
//! the global [`linrv_obs`] registry, labeled `pool="<n>"` so concurrent pools
//! in one process (tests, multi-tenant hosts) never mix their series.
//!
//! The public stats API — [`MonitorPool::stats`](crate::MonitorPool::stats),
//! [`MonitorPool::shard_stats`](crate::MonitorPool::shard_stats) — reads these
//! handles back, so `stats()` and a Prometheus/JSON export of the registry
//! always agree. The only counters *not* sourced from here are the ingest
//! control atomics (`ingested`/`processed`/`dropped` with acquire/release
//! ordering) that `quiesce` synchronises on; those keep their roles and are
//! mirrored into the registry at the same increment sites.

use crate::state::Counters;
use linrv_obs::{Counter, Gauge, Histogram, MetricKind, Registry};
use std::sync::atomic::{AtomicU64, Ordering};

const INGESTED: &str = "linrv_pool_ingested_total";
const INGESTED_HELP: &str = "events handed to the pool by sessions";
const WAKEUPS: &str = "linrv_pool_wakeups_total";
const WAKEUPS_HELP: &str = "signals sent to a parked checker thread";
const PROCESSED: &str = "linrv_pool_processed_total";
const PROCESSED_HELP: &str = "events fed into per-object incremental checks";
const DROPPED: &str = "linrv_pool_dropped_total";
const DROPPED_HELP: &str = "events dropped because the pool shut down mid-push";
const CHECKS: &str = "linrv_pool_checks_total";
const CHECKS_HELP: &str = "whole-window decisions across all objects: confirmations of a \
     violation, re-checks after a frontier fell back, final decisions";
const GCED: &str = "linrv_pool_gced_events_total";
const GCED_HELP: &str = "events verified and dropped at a settle point (nothing open, one state)";
const VIOLATIONS: &str = "linrv_pool_violations_total";
const VIOLATIONS_HELP: &str = "objects with a latched linearizability violation";
const STEALS: &str = "linrv_pool_steals_total";
const STEALS_HELP: &str = "batches a worker drained from another worker's home shard";
const RETAINED: &str = "linrv_pool_retained_events";
const RETAINED_HELP: &str = "events since each object's last settle point, summed over objects";
const OBJECTS: &str = "linrv_pool_objects";
const OBJECTS_HELP: &str = "objects with a live monitor";
const SHARD_INGESTED: &str = "linrv_pool_shard_ingested_total";
const SHARD_INGESTED_HELP: &str = "events ingested through one shard's queue";
const QUEUE_DEPTH: &str = "linrv_pool_shard_queue_depth";
const QUEUE_DEPTH_HELP: &str = "events currently waiting in one shard's queue";
const BLOCK_NS: &str = "linrv_pool_producer_block_ns";
const BLOCK_NS_HELP: &str = "time a producer spent blocked on a full shard queue, nanoseconds";

/// Registry-backed handles of one pool, created once at pool start. Cloned
/// freely (each handle is `Arc`-backed); recording never touches the registry.
pub(crate) struct PoolMetrics {
    /// Check/GC counters threaded into every object's check state.
    pub(crate) counters: Counters,
    /// Mirror of the ingest control atomic of the same name.
    pub(crate) ingested: Counter,
    /// Signals that found a worker parked (see the wake protocol on `Ingest`).
    pub(crate) wakeups: Counter,
    /// Mirror of the ingest control atomic of the same name.
    pub(crate) processed: Counter,
    /// Mirror of the ingest control atomic of the same name.
    pub(crate) dropped: Counter,
    /// Batches drained from another worker's home shard.
    pub(crate) steals: Counter,
    /// Events since each object's last settle point, refreshed by `stats()`.
    pub(crate) retained_events: Gauge,
    /// Live objects, refreshed by `stats()`.
    pub(crate) objects: Gauge,
    /// Per-shard ingestion counters, indexed by shard.
    pub(crate) shard_ingested: Vec<Counter>,
    /// Per-shard queue depth gauges, updated by the queues themselves.
    pub(crate) queue_depth: Vec<Gauge>,
    /// Producer back-pressure: how long pushes into full queues blocked.
    pub(crate) producer_block_ns: Histogram,
}

impl PoolMetrics {
    /// Registers one pool's series under a fresh process-unique `pool` label.
    pub(crate) fn register(shards: usize) -> Self {
        static POOL_IDS: AtomicU64 = AtomicU64::new(0);
        let pool = POOL_IDS.fetch_add(1, Ordering::Relaxed).to_string();
        let registry = Registry::global();
        let labels: &[(&str, &str)] = &[("pool", &pool)];
        let per_shard = |shard: usize| {
            let shard = shard.to_string();
            [("pool", pool.clone()), ("shard", shard)]
        };
        PoolMetrics {
            counters: Counters {
                checks: registry.counter_with(CHECKS, CHECKS_HELP, labels),
                gced: registry.counter_with(GCED, GCED_HELP, labels),
                violations: registry.counter_with(VIOLATIONS, VIOLATIONS_HELP, labels),
            },
            ingested: registry.counter_with(INGESTED, INGESTED_HELP, labels),
            wakeups: registry.counter_with(WAKEUPS, WAKEUPS_HELP, labels),
            processed: registry.counter_with(PROCESSED, PROCESSED_HELP, labels),
            dropped: registry.counter_with(DROPPED, DROPPED_HELP, labels),
            steals: registry.counter_with(STEALS, STEALS_HELP, labels),
            retained_events: registry.gauge_with(RETAINED, RETAINED_HELP, labels),
            objects: registry.gauge_with(OBJECTS, OBJECTS_HELP, labels),
            shard_ingested: (0..shards)
                .map(|shard| {
                    let owned = per_shard(shard);
                    let labels: Vec<(&str, &str)> =
                        owned.iter().map(|(k, v)| (*k, v.as_str())).collect();
                    registry.counter_with(SHARD_INGESTED, SHARD_INGESTED_HELP, &labels)
                })
                .collect(),
            queue_depth: (0..shards)
                .map(|shard| {
                    let owned = per_shard(shard);
                    let labels: Vec<(&str, &str)> =
                        owned.iter().map(|(k, v)| (*k, v.as_str())).collect();
                    registry.gauge_with(QUEUE_DEPTH, QUEUE_DEPTH_HELP, &labels)
                })
                .collect(),
            producer_block_ns: registry.histogram_with(BLOCK_NS, BLOCK_NS_HELP, labels),
        }
    }
}

/// Declares every pool family in the global registry so exports (and
/// `linrv check --stats`, which hosts no pool) list them even before any
/// pool ran.
pub fn declare() {
    let registry = Registry::global();
    registry.declare(INGESTED, MetricKind::Counter, INGESTED_HELP);
    registry.declare(WAKEUPS, MetricKind::Counter, WAKEUPS_HELP);
    registry.declare(PROCESSED, MetricKind::Counter, PROCESSED_HELP);
    registry.declare(DROPPED, MetricKind::Counter, DROPPED_HELP);
    registry.declare(CHECKS, MetricKind::Counter, CHECKS_HELP);
    registry.declare(GCED, MetricKind::Counter, GCED_HELP);
    registry.declare(VIOLATIONS, MetricKind::Counter, VIOLATIONS_HELP);
    registry.declare(STEALS, MetricKind::Counter, STEALS_HELP);
    registry.declare(RETAINED, MetricKind::Gauge, RETAINED_HELP);
    registry.declare(OBJECTS, MetricKind::Gauge, OBJECTS_HELP);
    registry.declare(SHARD_INGESTED, MetricKind::Counter, SHARD_INGESTED_HELP);
    registry.declare(QUEUE_DEPTH, MetricKind::Gauge, QUEUE_DEPTH_HELP);
    registry.declare(BLOCK_NS, MetricKind::Histogram, BLOCK_NS_HELP);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_get_distinct_series_and_declare_is_idempotent() {
        declare();
        let a = PoolMetrics::register(2);
        let b = PoolMetrics::register(2);
        a.ingested.add(5);
        b.ingested.add(7);
        // Each pool reads back only its own series.
        assert_eq!(a.ingested.get(), 5);
        assert_eq!(b.ingested.get(), 7);
        assert_eq!(a.shard_ingested.len(), 2);
        declare(); // re-declaring over live series must not panic
        let snapshot = Registry::global().snapshot();
        let family = snapshot.family(INGESTED).expect("family exists");
        assert!(family.series.len() >= 2, "one series per pool");
    }
}
