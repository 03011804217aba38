//! A lock-free Treiber stack built on atomic pointers with epoch reclamation.

use crate::object::ConcurrentObject;
use crossbeam::epoch::{self, Atomic, Owned, Shared};
use linrv_history::{OpValue, Operation, ProcessId};
use linrv_spec::ObjectKind;
use std::sync::atomic::Ordering;

struct Node {
    value: i64,
    next: Atomic<Node>,
}

/// The classic Treiber stack: a singly linked list whose head is swung with
/// compare-and-swap. `Push(v)` responds `true`; `Pop()` responds the popped value or
/// `empty`.
///
/// The stack is lock-free (not wait-free): an operation may retry its CAS when another
/// operation interferes, but some operation always completes. A popped node is retired
/// through crossbeam's epoch scheme and freed once every thread that was inside a
/// `push`/`pop` at that moment has left it, in batches (a thread attempts a collection
/// every few dozen retirements); operations pin only for their own duration.
#[derive(Debug, Default)]
pub struct TreiberStack {
    head: Atomic<Node>,
}

impl TreiberStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        TreiberStack {
            head: Atomic::null(),
        }
    }

    fn push(&self, value: i64) {
        let guard = epoch::pin();
        let mut node = Owned::new(Node {
            value,
            next: Atomic::null(),
        });
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            node.next.store(head, Ordering::Relaxed);
            match self.head.compare_exchange(
                head,
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(_) => return,
                Err(e) => node = e.new,
            }
        }
    }

    fn pop(&self) -> Option<i64> {
        let guard = epoch::pin();
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: `head` was loaded under the epoch guard; if non-null it points to
            // a node that cannot be freed before the guard is dropped.
            let node = unsafe { head.as_ref() }?;
            let next: Shared<'_, Node> = node.next.load(Ordering::Acquire, &guard);
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire, &guard)
                .is_ok()
            {
                let value = node.value;
                // SAFETY: the node has been unlinked by the successful CAS, so no new
                // reader can reach it; deferring destruction is safe.
                unsafe {
                    guard.defer_destroy(head);
                }
                return Some(value);
            }
        }
    }
}

impl Drop for TreiberStack {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

impl ConcurrentObject for TreiberStack {
    fn kind(&self) -> ObjectKind {
        ObjectKind::Stack
    }

    fn apply(&self, _process: ProcessId, op: &Operation) -> OpValue {
        match op.kind.as_str() {
            "Push" => match op.arg.as_int() {
                Some(v) => {
                    self.push(v);
                    OpValue::Bool(true)
                }
                None => OpValue::Error,
            },
            "Pop" => match self.pop() {
                Some(v) => OpValue::Int(v),
                None => OpValue::Empty,
            },
            _ => OpValue::Error,
        }
    }

    fn name(&self) -> String {
        "Treiber stack (lock-free)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_spec::ops::stack as ops;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lifo_order_single_thread() {
        let s = TreiberStack::new();
        let p = ProcessId::new(0);
        assert_eq!(s.apply(p, &ops::pop()), OpValue::Empty);
        s.apply(p, &ops::push(1));
        s.apply(p, &ops::push(2));
        assert_eq!(s.apply(p, &ops::pop()), OpValue::Int(2));
        assert_eq!(s.apply(p, &ops::pop()), OpValue::Int(1));
        assert_eq!(s.apply(p, &ops::pop()), OpValue::Empty);
    }

    #[test]
    fn invalid_operations_return_error() {
        let s = TreiberStack::new();
        let p = ProcessId::new(0);
        assert_eq!(s.apply(p, &Operation::nullary("Push")), OpValue::Error);
        assert_eq!(s.apply(p, &Operation::nullary("Dequeue")), OpValue::Error);
    }

    #[test]
    fn concurrent_pushes_and_pops_lose_nothing() {
        let s = Arc::new(TreiberStack::new());
        let per_thread = 200i64;
        let threads = 3i64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                let p = ProcessId::new(t as u32);
                let mut popped = Vec::new();
                for i in 0..per_thread {
                    s.apply(p, &ops::push(t * per_thread + i));
                    if let OpValue::Int(v) = s.apply(p, &ops::pop()) {
                        popped.push(v);
                    }
                }
                popped
            }));
        }
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // Drain what is left on the stack.
        let p = ProcessId::new(0);
        while let OpValue::Int(v) = s.apply(p, &ops::pop()) {
            all.push(v);
        }
        let unique: BTreeSet<i64> = all.iter().copied().collect();
        assert_eq!(
            all.len() as i64,
            threads * per_thread,
            "an element was lost or duplicated"
        );
        assert_eq!(unique.len() as i64, threads * per_thread);
    }
}
