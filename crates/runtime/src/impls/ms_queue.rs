//! A lock-free Michael–Scott queue built on atomic pointers with epoch reclamation.

use crate::object::ConcurrentObject;
use crossbeam::epoch::{self, Atomic, Owned};
use linrv_history::{OpValue, Operation, ProcessId};
use linrv_spec::ObjectKind;
use std::sync::atomic::Ordering;

struct Node {
    /// `None` for the sentinel node, `Some(v)` for real elements.
    value: Option<i64>,
    next: Atomic<Node>,
}

/// The classic Michael–Scott lock-free FIFO queue: a linked list with `head` and `tail`
/// pointers, a permanent sentinel node at the head, and helping on a lagging tail.
/// `Enqueue(v)` responds `true`; `Dequeue()` responds the oldest element or `empty`.
///
/// A successful dequeue retires the old sentinel node through crossbeam's epoch scheme:
/// it is freed once every thread that was inside an `enqueue`/`dequeue` at that moment
/// has left it, in batches (a thread attempts a collection every few dozen retirements),
/// so a long-lived queue holds its elements plus a bounded number of retired nodes per
/// thread. Operations pin only for their own duration, never across caller code.
#[derive(Debug)]
pub struct MsQueue {
    head: Atomic<Node>,
    tail: Atomic<Node>,
}

impl Default for MsQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl MsQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let sentinel = Owned::new(Node {
            value: None,
            next: Atomic::null(),
        });
        let guard = unsafe { epoch::unprotected() };
        let sentinel = sentinel.into_shared(guard);
        MsQueue {
            head: Atomic::from(sentinel),
            tail: Atomic::from(sentinel),
        }
    }

    fn enqueue(&self, value: i64) {
        let guard = epoch::pin();
        let node = Owned::new(Node {
            value: Some(value),
            next: Atomic::null(),
        })
        .into_shared(&guard);
        loop {
            let tail = self.tail.load(Ordering::Acquire, &guard);
            // SAFETY: `tail` is protected by the guard and queue nodes are only retired
            // after being unlinked from both head and tail paths.
            let tail_ref = unsafe { tail.deref() };
            let next = tail_ref.next.load(Ordering::Acquire, &guard);
            if !next.is_null() {
                // Tail is lagging: help advance it and retry.
                let _ = self.tail.compare_exchange(
                    tail,
                    next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    &guard,
                );
                continue;
            }
            if tail_ref
                .next
                .compare_exchange(
                    epoch::Shared::null(),
                    node,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    &guard,
                )
                .is_ok()
            {
                let _ = self.tail.compare_exchange(
                    tail,
                    node,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    &guard,
                );
                return;
            }
        }
    }

    fn dequeue(&self) -> Option<i64> {
        let guard = epoch::pin();
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: protected by the guard, as above.
            let head_ref = unsafe { head.deref() };
            let next = head_ref.next.load(Ordering::Acquire, &guard);
            let Some(next_ref) = (unsafe { next.as_ref() }) else {
                return None; // queue is empty (only the sentinel remains)
            };
            let tail = self.tail.load(Ordering::Acquire, &guard);
            if head == tail {
                // Tail is lagging behind a non-empty list: help it forward.
                let _ = self.tail.compare_exchange(
                    tail,
                    next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    &guard,
                );
                continue;
            }
            let value = next_ref.value;
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire, &guard)
                .is_ok()
            {
                // SAFETY: the old sentinel has been unlinked by the successful CAS.
                unsafe {
                    guard.defer_destroy(head);
                }
                return value;
            }
        }
    }
}

impl Drop for MsQueue {
    fn drop(&mut self) {
        while self.dequeue().is_some() {}
        // Free the remaining sentinel.
        let guard = unsafe { epoch::unprotected() };
        let head = self.head.load(Ordering::Relaxed, guard);
        if !head.is_null() {
            // SAFETY: the queue is being dropped; no concurrent access is possible.
            unsafe {
                let _ = head.into_owned();
            }
        }
    }
}

impl ConcurrentObject for MsQueue {
    fn kind(&self) -> ObjectKind {
        ObjectKind::Queue
    }

    fn apply(&self, _process: ProcessId, op: &Operation) -> OpValue {
        match op.kind.as_str() {
            "Enqueue" => match op.arg.as_int() {
                Some(v) => {
                    self.enqueue(v);
                    OpValue::Bool(true)
                }
                None => OpValue::Error,
            },
            "Dequeue" => match self.dequeue() {
                Some(v) => OpValue::Int(v),
                None => OpValue::Empty,
            },
            _ => OpValue::Error,
        }
    }

    fn name(&self) -> String {
        "Michael–Scott queue (lock-free)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_spec::ops::queue as ops;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let q = MsQueue::new();
        let p = ProcessId::new(0);
        assert_eq!(q.apply(p, &ops::dequeue()), OpValue::Empty);
        q.apply(p, &ops::enqueue(1));
        q.apply(p, &ops::enqueue(2));
        q.apply(p, &ops::enqueue(3));
        assert_eq!(q.apply(p, &ops::dequeue()), OpValue::Int(1));
        assert_eq!(q.apply(p, &ops::dequeue()), OpValue::Int(2));
        assert_eq!(q.apply(p, &ops::dequeue()), OpValue::Int(3));
        assert_eq!(q.apply(p, &ops::dequeue()), OpValue::Empty);
    }

    #[test]
    fn invalid_operations_return_error() {
        let q = MsQueue::new();
        let p = ProcessId::new(0);
        assert_eq!(q.apply(p, &Operation::nullary("Enqueue")), OpValue::Error);
        assert_eq!(q.apply(p, &Operation::nullary("Pop")), OpValue::Error);
        assert!(q.name().contains("Michael"));
    }

    #[test]
    fn per_producer_fifo_is_preserved_under_concurrency() {
        let q = Arc::new(MsQueue::new());
        let per_thread = 300i64;
        let producers = 2i64;
        let mut handles = Vec::new();
        for t in 0..producers {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                let p = ProcessId::new(t as u32);
                for i in 0..per_thread {
                    q.apply(p, &ops::enqueue(t * per_thread + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Drain sequentially: values of each producer must come out in order, and
        // nothing may be lost or duplicated.
        let p = ProcessId::new(2);
        let mut drained = Vec::new();
        while let OpValue::Int(v) = q.apply(p, &ops::dequeue()) {
            drained.push(v);
        }
        assert_eq!(drained.len() as i64, producers * per_thread);
        let unique: BTreeSet<i64> = drained.iter().copied().collect();
        assert_eq!(unique.len(), drained.len());
        for t in 0..producers {
            let of_t: Vec<i64> = drained
                .iter()
                .copied()
                .filter(|v| *v / per_thread == t)
                .collect();
            let mut sorted = of_t.clone();
            sorted.sort_unstable();
            assert_eq!(of_t, sorted, "per-producer FIFO violated");
        }
    }
}
