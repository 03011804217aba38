//! Per-shard bounded MPSC batch queues.
//!
//! Every shard owns one [`BoundedQueue`]: sessions (many producers) push
//! `(object, event)` pairs, checker threads (one drainer at a time per shard,
//! enforced by the shard's drain lock) take them out in batches. The queue is
//! bounded so a slow checker pool back-pressures producers instead of letting
//! unchecked events pile up without limit.
//!
//! Built on `std::sync` primitives: the vendored `parking_lot` stub has no
//! `Condvar`, and the pool needs real blocking waits.

use linrv_history::Event;
use linrv_obs::{Gauge, Histogram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One shard's bounded event queue.
pub(crate) struct BoundedQueue {
    inner: Mutex<VecDeque<(u64, Event)>>,
    not_full: Condvar,
    capacity: usize,
    /// The queue's length, stored under the queue mutex and read without it:
    /// what the workers' idle polls look at instead of taking every shard's
    /// mutex per loop turn.
    len: AtomicUsize,
    /// Registry gauge mirroring the current queue length.
    depth: Gauge,
    /// How long producers spent blocked on this queue being full.
    blocked_ns: Histogram,
}

impl BoundedQueue {
    pub(crate) fn new(capacity: usize, depth: Gauge, blocked_ns: Histogram) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            len: AtomicUsize::new(0),
            depth,
            blocked_ns,
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(u64, Event)>> {
        // Checker threads do not panic while holding the lock; recover from
        // poisoning anyway rather than wedging every producer.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues one event, blocking while the queue is full, and returns the
    /// depth the push left the queue at.
    ///
    /// Returns `None` (the event is dropped) when `shutdown` is set — during
    /// teardown nothing will ever drain the queue again, so blocking would
    /// deadlock the producer against the dying pool.
    pub(crate) fn push(&self, item: (u64, Event), shutdown: &AtomicBool) -> Option<usize> {
        let mut queue = self.lock();
        // Only take a clock reading when the push actually blocks *and*
        // recording is on: the uncontended fast path stays timer-free.
        let mut blocked_at: Option<Instant> = None;
        while queue.len() >= self.capacity {
            if shutdown.load(Ordering::Acquire) {
                drop(queue);
                self.record_blocked(blocked_at);
                return None;
            }
            if blocked_at.is_none() && linrv_obs::enabled() {
                blocked_at = Some(Instant::now());
            }
            // A timed wait keeps the producer live across missed wakeups and
            // shutdown races without any elaborate signalling protocol.
            let (guard, _) = self
                .not_full
                .wait_timeout(queue, Duration::from_millis(10))
                .unwrap_or_else(|p| p.into_inner());
            queue = guard;
        }
        queue.push_back(item);
        let depth = queue.len();
        self.set_len(depth);
        drop(queue);
        self.record_blocked(blocked_at);
        Some(depth)
    }

    /// Publishes a new length; callers hold the queue mutex, so neither copy
    /// drifts from the queue.
    fn set_len(&self, len: usize) {
        self.len.store(len, Ordering::Release);
        self.depth.set(len as i64);
    }

    fn record_blocked(&self, blocked_at: Option<Instant>) {
        if let Some(start) = blocked_at {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.blocked_ns.record(ns);
        }
    }

    /// Moves up to `max` events into `out`, preserving order; returns how many.
    pub(crate) fn drain_into(&self, out: &mut Vec<(u64, Event)>, max: usize) -> usize {
        let mut queue = self.lock();
        let n = queue.len().min(max);
        out.extend(queue.drain(..n));
        self.set_len(queue.len());
        if n > 0 {
            self.not_full.notify_all();
        }
        n
    }

    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{OpId, OpValue, ProcessId};
    use std::sync::atomic::AtomicBool;

    fn ev(i: u64) -> (u64, Event) {
        (
            i,
            Event::response(ProcessId::new(0), OpId::new(i), OpValue::Unit),
        )
    }

    fn queue_of(capacity: usize) -> BoundedQueue {
        BoundedQueue::new(capacity, Gauge::standalone(), Histogram::standalone())
    }

    #[test]
    fn drains_in_fifo_order_and_respects_batch_size() {
        let queue = queue_of(16);
        let shutdown = AtomicBool::new(false);
        for i in 0..5 {
            assert_eq!(queue.push(ev(i), &shutdown), Some(i as usize + 1));
        }
        assert_eq!(queue.depth.get(), 5, "the gauge tracks the length");
        let mut out = Vec::new();
        assert_eq!(queue.drain_into(&mut out, 3), 3);
        assert_eq!(queue.depth.get(), 2);
        assert_eq!(queue.drain_into(&mut out, 100), 2);
        let objects: Vec<u64> = out.iter().map(|(o, _)| *o).collect();
        assert_eq!(objects, vec![0, 1, 2, 3, 4]);
        assert_eq!(queue.len(), 0);
        assert_eq!(queue.depth.get(), 0);
    }

    #[test]
    fn full_queue_blocks_until_drained_and_drops_on_shutdown() {
        let queue = std::sync::Arc::new(queue_of(2));
        let shutdown = AtomicBool::new(false);
        assert_eq!(queue.push(ev(0), &shutdown), Some(1));
        assert_eq!(queue.push(ev(1), &shutdown), Some(2));
        // A third push blocks until a concurrent drain frees a slot.
        std::thread::scope(|scope| {
            let q = std::sync::Arc::clone(&queue);
            let pusher = scope.spawn(move || {
                let shutdown = AtomicBool::new(false);
                q.push(ev(2), &shutdown)
            });
            std::thread::sleep(Duration::from_millis(20));
            let mut out = Vec::new();
            queue.drain_into(&mut out, 1);
            assert_eq!(pusher.join().unwrap(), Some(2));
        });
        // Once shut down, a push into a full queue drops instead of blocking.
        let mut out = Vec::new();
        queue.drain_into(&mut out, 100);
        let down = AtomicBool::new(true);
        assert_eq!(queue.push(ev(3), &down), Some(1));
        assert_eq!(queue.push(ev(4), &down), Some(2));
        assert_eq!(queue.push(ev(5), &down), None, "full + shutdown must drop");
    }
}
