//! Sharded multi-object monitoring on top of the `linrv` facade.
//!
//! A single [`Monitor`](linrv::Monitor) verifies one object. Real services
//! host *many* logical objects — one queue per tenant, one register per key —
//! and verifying each with its own dedicated checker thread does not scale.
//! This crate adds the missing layer: a [`MonitorPool`] that
//!
//! * **shards** object ids across a fixed number of shards (splitmix64 hash),
//!   creating each object's monitor — and, through a user factory, its
//!   implementation instance — lazily on first use;
//! * **ingests** events through per-shard bounded MPSC queues: every
//!   per-object monitor runs in [`Mode::Observe`](linrv::Mode::Observe) and
//!   taps its session traffic into its shard's queue, and full queues
//!   back-pressure producers instead of buffering without limit;
//! * **checks** asynchronously with a small work-stealing pool of checker
//!   threads that drain the shards in batches. Each object is one
//!   [`StreamingChecker`](linrv_check::StreamingChecker), the same per-event
//!   frontier `linrv check` runs, so a wrong response is latched the moment it
//!   is drained, overlapping or not. Producers wake a parked checker once per
//!   batch, not once per event. Draining is all a checker thread does:
//!   [`MonitorPool::check_all`] runs the final decisions on its caller;
//! * **bounds what its checkers retain**: at a *settle point* (nothing of an
//!   object open, its frontier one state) every linearization of every future
//!   extension passes through that state, so the events behind it are dropped
//!   (observable via [`MonitorPool::stats`]: `gced_events` vs
//!   `retained_events`). This bounds the checker, not the object: each pooled
//!   object's Observe-mode monitor keeps its announcement array `N` (Figure 7)
//!   and result array `M` (Figure 10) for life, both growing with its
//!   operations, and nothing reads `M`.
//!
//! Sessions keep the full typed API: [`MonitorPool::session`] returns a
//! [`PoolSession`] dereferencing to the ordinary [`Session`](linrv::Session).
//! Verdicts come per object — [`MonitorPool::check_all`] yields a
//! `BTreeMap<u64, PoolVerdict>`, and a faulty object is reported with its id
//! and violating prefix while every other object keeps verifying.
//!
//! ```
//! use linrv_pool::prelude::*;
//! use linrv::runtime::impls::AtomicCounter;
//!
//! let pool = PoolBuilder::new(CounterSpec::new())
//!     .shards(8)
//!     .workers(2)
//!     .build(|_object| AtomicCounter::new());
//! for object in 0..100 {
//!     let session = pool.session(object).unwrap();
//!     session.inc().unwrap();
//!     assert_eq!(session.read().unwrap(), 1);
//! }
//! let verdicts = pool.check_all();
//! assert_eq!(verdicts.len(), 100);
//! assert!(verdicts.values().all(|verdict| verdict.is_correct()));
//! ```
//!
//! For multi-object traces, [`PoolBuilder::trace_to`] streams every event
//! tagged with its object id into a
//! [`TaggedEventSink`](linrv_trace::TaggedEventSink) — with a
//! [`SharedTraceWriter`](linrv_trace::SharedTraceWriter) this produces a
//! portable trace that `linrv check` re-verifies offline per object.

mod builder;
pub mod metrics;
mod pool;
mod queue;
mod state;
mod verdict;

pub use builder::{PoolBuilder, DEFAULT_SHARDS};
pub use pool::{MonitorPool, ObjectStats, PoolSession, PoolStats, ShardStats};
pub use verdict::{PoolVerdict, PoolViolation};

/// Everything needed to build and drive a pool: the pool types plus the full
/// single-monitor prelude of [`linrv::prelude`].
pub mod prelude {
    pub use crate::{MonitorPool, PoolBuilder, PoolSession, PoolStats, PoolVerdict, PoolViolation};
    pub use linrv::prelude::*;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use linrv_runtime::faulty::{LossyQueue, StaleRegister};
    use linrv_runtime::impls::{AtomicCounter, AtomicIntRegister, MsQueue};
    use std::time::{Duration, Instant};

    #[test]
    fn pool_verifies_many_objects_and_reports_stats() {
        let pool = PoolBuilder::new(CounterSpec::new())
            .shards(4)
            .workers(2)
            .build(|_| AtomicCounter::new());
        for object in 0..50 {
            let session = pool.session(object).unwrap();
            for i in 0..10 {
                assert_eq!(session.inc().unwrap(), i);
            }
        }
        let verdicts = pool.check_all();
        assert_eq!(verdicts.len(), 50);
        assert!(verdicts.values().all(|verdict| verdict.is_correct()));
        let stats = pool.stats();
        assert_eq!(stats.objects, 50);
        assert_eq!(stats.ingested, 1000, "20 events per object");
        assert_eq!(stats.processed, 1000);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.gced_events, 1000, "sequential load is dropped");
        assert_eq!(stats.retained_events, 0);
        assert_eq!(stats.checks, 0, "and needs no checker invocation");
        assert_eq!(stats.violations, 0);
        let shard_stats = pool.shard_stats();
        assert_eq!(shard_stats.len(), 4);
        assert_eq!(shard_stats.iter().map(|s| s.objects).sum::<u64>(), 50);
        assert_eq!(shard_stats.iter().map(|s| s.ingested).sum::<u64>(), 1000);
    }

    #[test]
    fn faulty_object_is_isolated_with_its_id() {
        let bad = 13u64;
        let pool = PoolBuilder::new(RegisterSpec::new())
            .shards(4)
            .workers(2)
            .build(move |object| -> Box<dyn linrv::runtime::ConcurrentObject> {
                if object == bad {
                    // Serves reads from a stale snapshot of the register.
                    Box::new(StaleRegister::new(3))
                } else {
                    Box::new(AtomicIntRegister::new())
                }
            });
        for object in 0..20 {
            let session = pool.session(object).unwrap();
            for i in 1..=6 {
                let _ = session.write(i);
                let _ = session.read();
            }
        }
        let verdicts = pool.check_all();
        let violating: Vec<u64> = verdicts
            .iter()
            .filter(|(_, verdict)| !verdict.is_correct())
            .map(|(object, _)| *object)
            .collect();
        assert_eq!(violating, vec![bad], "exactly the faulty object is flagged");
        let violation = verdicts[&bad].violation().unwrap();
        assert_eq!(violation.object, bad);
        assert!(!violation.witness.is_empty());
        let violations = pool.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].object, bad);
    }

    /// Drives object 0 through a frontier that falls back: seven enqueues
    /// are open when a dequeue answers, more orders than the frontier's
    /// bound, then sequential dequeues drain the queue. No scheduled re-check
    /// comes before 64 completed operations, so only `check_all`'s final
    /// decision, on the calling thread, decides the object.
    fn queue_past_its_frontier_bound<A>(
        queue: impl Fn() -> A + Send + Sync + 'static,
    ) -> MonitorPool<A, QueueSpec>
    where
        A: linrv::runtime::ConcurrentObject + 'static,
    {
        use linrv_spec::typed::queue::{Dequeue, Enqueue};
        let pool = PoolBuilder::new(QueueSpec::new())
            .shards(1)
            .workers(1)
            .build(move |_| queue());
        let sessions: Vec<_> = (0..8).map(|_| pool.session(0).unwrap()).collect();
        let (consumer, producers) = sessions.split_last().unwrap();
        let enqueues: Vec<_> = producers
            .iter()
            .zip(0..)
            .map(|(session, value)| session.execute(session.stage(Enqueue(value))))
            .collect();
        let dequeue = consumer.execute(consumer.stage(Dequeue));
        consumer.commit(dequeue).unwrap();
        for (session, enqueue) in producers.iter().zip(enqueues) {
            session.commit(enqueue).unwrap();
        }
        while consumer.dequeue().unwrap().is_some() {}
        pool.quiesce();
        assert_eq!(pool.object_stats(0).unwrap().checks, 0);
        assert!(pool.violations().is_empty(), "undecided before check_all");
        pool
    }

    #[test]
    fn check_all_decides_a_correct_queue_whose_frontier_fell_back() {
        let pool = queue_past_its_frontier_bound(MsQueue::new);
        let verdicts = pool.check_all();
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[&0].is_correct());
        assert!(pool.stats().checks >= 1, "a whole-window decision ran");
    }

    #[test]
    fn check_all_catches_a_lossy_queue_whose_frontier_fell_back() {
        // Loses every second enqueue: a later dequeue finds the queue empty.
        let pool = queue_past_its_frontier_bound(|| LossyQueue::new(2));
        let verdicts = pool.check_all();
        let violation = verdicts[&0].violation().expect("the lost values");
        assert_eq!(violation.object, 0);
        assert!(!violation.witness.is_empty());
        assert!(pool.stats().checks >= 1);
        assert_eq!(pool.violations().len(), 1, "latched by check_all");
    }

    #[test]
    fn concurrent_sessions_per_object_are_checked() {
        let pool = std::sync::Arc::new(
            PoolBuilder::new(CounterSpec::new())
                .shards(2)
                .workers(2)
                .sessions_per_object(4)
                .build(|_| AtomicCounter::new()),
        );
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                scope.spawn(move || {
                    for object in 0..8 {
                        let session = pool.session(object).unwrap();
                        for _ in 0..25 {
                            session.inc().unwrap();
                        }
                    }
                });
            }
        });
        let verdicts = pool.check_all();
        assert_eq!(verdicts.len(), 8);
        assert!(verdicts.values().all(|verdict| verdict.is_correct()));
        let stats = pool.stats();
        assert_eq!(stats.ingested, 4 * 8 * 25 * 2);
        assert_eq!(stats.processed, stats.ingested);
    }

    #[test]
    fn one_worker_never_steals() {
        let pool = PoolBuilder::new(CounterSpec::new())
            .shards(4)
            .workers(1)
            .build(|_| AtomicCounter::new());
        for object in 0..64 {
            let session = pool.session(object).unwrap();
            for _ in 0..4 {
                session.inc().unwrap();
            }
        }
        pool.quiesce();
        let stats = pool.stats();
        assert_eq!(stats.processed, 64 * 8);
        assert_eq!(stats.steals, 0, "no other worker to steal from");
    }

    #[test]
    fn a_worker_starved_of_home_traffic_steals() {
        let pool = PoolBuilder::new(CounterSpec::new())
            .shards(2)
            .workers(2)
            .build(|_| AtomicCounter::new());
        // Only objects of shard 0, worker 0's home, get traffic: whatever
        // worker 1 drains it took from under worker 0.
        let sessions: Vec<_> = (0..64)
            .filter_map(|object| {
                let before = pool.shard_stats()[0].objects;
                let session = pool.session(object).unwrap();
                (pool.shard_stats()[0].objects > before).then_some(session)
            })
            .collect();
        assert!(!sessions.is_empty());
        let deadline = Instant::now() + Duration::from_secs(20);
        while pool.stats().steals == 0 {
            assert!(Instant::now() < deadline, "worker 1 never won a drain");
            for session in &sessions {
                session.inc().unwrap();
            }
            // Wakes both workers; they race for shard 0's drain lock.
            pool.quiesce();
        }
        assert!(pool
            .check_all()
            .values()
            .all(|verdict| verdict.is_correct()));
    }

    #[test]
    fn quiesce_after_every_operation_never_waits_out_a_park() {
        let pool = PoolBuilder::new(CounterSpec::new())
            .shards(4)
            .workers(1)
            .build(|_| AtomicCounter::new());
        const ROUNDS: u64 = 2_000;
        let started = Instant::now();
        std::thread::scope(|scope| {
            for thread in 0..2u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // A few operations per object: see `PoolSession`.
                        let session = pool.session(thread * ROUNDS + round / 8).unwrap();
                        session.inc().unwrap();
                        drop(session);
                        pool.quiesce();
                    }
                });
            }
        });
        // One event below the wake threshold per round: a signal lost between
        // a worker's last look and its wait costs the 20 ms park each time.
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(20) * ROUNDS as u32 / 4,
            "{ROUNDS} rounds took {elapsed:?}: wake-ups are being lost"
        );
        let stats = pool.stats();
        assert_eq!(stats.processed, 2 * ROUNDS * 2);
    }

    #[test]
    fn producers_wake_by_count_not_per_event() {
        let pool = PoolBuilder::new(CounterSpec::new())
            .shards(4)
            .workers(1)
            .build(|_| AtomicCounter::new());
        std::thread::scope(|scope| {
            for thread in 0..2u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for object in 0..500 {
                        let session = pool.session(thread * 500 + object).unwrap();
                        for _ in 0..10 {
                            session.inc().unwrap();
                        }
                    }
                });
            }
        });
        let verdicts = pool.check_all();
        assert!(verdicts.values().all(|verdict| verdict.is_correct()));
        let stats = pool.stats();
        assert_eq!(stats.ingested, 20_000);
        assert_eq!(stats.processed, 20_000);
        assert!(
            stats.wakeups * 10 <= stats.ingested,
            "{} wake-ups for {} events",
            stats.wakeups,
            stats.ingested
        );
    }

    #[test]
    fn tagged_trace_is_captured_per_object() {
        use linrv_trace::{read_tagged_history, SharedTraceWriter, TraceFormat, TraceHeader};
        let sink = SharedTraceWriter::new(
            Vec::new(),
            TraceFormat::Jsonl,
            &TraceHeader::new(linrv_spec::ObjectKind::Counter).with_objects(3),
        )
        .unwrap();
        let pool = PoolBuilder::new(CounterSpec::new())
            .shards(2)
            .workers(1)
            .trace_to(sink.clone())
            .build(|_| AtomicCounter::new());
        for object in [3, 5, 9] {
            let session = pool.session(object).unwrap();
            session.inc().unwrap();
        }
        pool.quiesce();
        drop(pool);
        let bytes = sink.finish().unwrap();
        let (header, tagged) = read_tagged_history(bytes.as_slice()).unwrap();
        assert_eq!(header.objects, Some(3));
        assert_eq!(tagged.len(), 6);
        let mut objects: Vec<Option<u64>> = tagged.iter().map(|(object, _)| *object).collect();
        objects.dedup();
        assert_eq!(objects, vec![Some(3), Some(5), Some(9)]);
    }
}
