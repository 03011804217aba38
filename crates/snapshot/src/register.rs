//! A multi-reader atomic register for arbitrary (cloneable) values.
//!
//! The paper's base objects are atomic read/write registers of unbounded size
//! (Section 2; Section 9.1 discusses how to bound them). Rust's `std::sync::atomic`
//! only covers word-sized values, so [`AtomicRegister`] provides a register of
//! arbitrary `T` by swapping reference-counted pointers: a write installs a new
//! `Arc<T>`, a read clones the current one. Both operations are single atomic pointer
//! instructions plus reference-count traffic — no locks and no waiting — so algorithms
//! built on top (the Afek et al. snapshot, the DRV transform's announcement array)
//! retain their wait-freedom.
//!
//! Memory reclamation uses crossbeam's epoch scheme. What a write retires is the
//! superseded `Arc<T>` *handle*: it is dropped two epochs later, once every reader that
//! could have loaded the pointer has un-pinned, and the value behind it is freed with
//! the last handle — readers clone the `Arc` *inside* the epoch-protected section and
//! leave with a handle of their own, so they never hold a bare reference past their pin.
//! Because a superseded value may be large (a whole view or tuple set), every write
//! ends with a collection attempt instead of waiting for the thread's next batch of
//! retirements: a register that is written in a loop by one thread keeps its current
//! value and at most the last two superseded ones alive. Neither call blocks; a thread
//! that stalls inside `read` or `write` delays reclamation, never another thread.

use crossbeam::epoch::{self, Atomic, Owned};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A multi-reader, multi-writer atomic register holding a value of type `T`.
///
/// ```
/// use linrv_snapshot::AtomicRegister;
/// let r = AtomicRegister::new(vec![1, 2, 3]);
/// assert_eq!(*r.read(), vec![1, 2, 3]);
/// r.write(vec![4]);
/// assert_eq!(*r.read(), vec![4]);
/// ```
#[derive(Debug)]
pub struct AtomicRegister<T> {
    cell: Atomic<Arc<T>>,
}

impl<T> AtomicRegister<T> {
    /// Creates a register holding `initial`.
    pub fn new(initial: T) -> Self {
        AtomicRegister {
            cell: Atomic::new(Arc::new(initial)),
        }
    }

    /// Atomically replaces the register's content with `value`.
    pub fn write(&self, value: T) {
        let guard = epoch::pin();
        let new = Owned::new(Arc::new(value));
        let old = self.cell.swap(new, Ordering::AcqRel, &guard);
        // SAFETY: `old` was the register's unique current pointer and has just been
        // unlinked by the swap; no new reader can reach it, and existing readers hold
        // their own `Arc` clone, so deferring destruction of the `Arc` handle (not the
        // payload they cloned) is safe.
        unsafe {
            guard.defer_destroy(old);
        }
        guard.flush();
    }

    /// Atomically reads the register's current content.
    pub fn read(&self) -> Arc<T> {
        let guard = epoch::pin();
        let shared = self.cell.load(Ordering::Acquire, &guard);
        // SAFETY: `shared` is protected by the epoch guard for the duration of this
        // call, so the `Arc` it points to has not been destroyed; cloning it gives us
        // an owned reference that outlives the guard.
        unsafe { Arc::clone(shared.deref()) }
    }
}

impl<T> Drop for AtomicRegister<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no other thread can reach the register, so nothing needs
        // protecting and the current handle (never null) can be destroyed at once.
        unsafe {
            let guard = epoch::unprotected();
            guard.defer_destroy(self.cell.load(Ordering::Relaxed, guard));
        }
        // One more attempt at what this thread's earlier writes retired, so that a
        // dropped monitor's last superseded values do not sit in the bag of a thread
        // that may never touch a register again.
        epoch::pin().flush();
    }
}

impl<T: Default> Default for AtomicRegister<T> {
    fn default() -> Self {
        AtomicRegister::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    #[test]
    fn read_returns_last_write() {
        let r = AtomicRegister::new(0u64);
        assert_eq!(*r.read(), 0);
        r.write(1);
        r.write(2);
        assert_eq!(*r.read(), 2);
    }

    #[test]
    fn default_uses_default_value() {
        let r: AtomicRegister<Vec<u8>> = AtomicRegister::default();
        assert!(r.read().is_empty());
    }

    #[test]
    fn concurrent_readers_see_monotone_values() {
        let r = Arc::new(AtomicRegister::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let r = Arc::clone(&r);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = *r.read();
                    assert!(v >= last, "register went backwards: {v} < {last}");
                    last = v;
                }
            }));
        }
        for v in 1..=1000u64 {
            r.write(v);
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*r.read(), 1000);
    }

    #[test]
    fn values_are_dropped_exactly_once() {
        // A register of Arcs: once the register is gone and the epoch has moved on, the
        // payload's strong count is back at the one handle we still own.
        let payload = Arc::new(42u8);
        {
            let r = AtomicRegister::new(Arc::clone(&payload));
            r.write(Arc::clone(&payload));
            r.write(Arc::clone(&payload));
            let _ = r.read();
            assert!(Arc::strong_count(&payload) >= 2);
        }
        // Dropping the register destroyed the current handle and made one collection
        // attempt; two more free both superseded ones. A flush advances the epoch only
        // if no thread of a test running beside this one is pinned in an older epoch at
        // that instant, so an attempt that found one is repeated.
        for _ in 0..100_000 {
            if Arc::strong_count(&payload) == 1 {
                break;
            }
            epoch::pin().flush();
            thread::yield_now();
        }
        assert_eq!(Arc::strong_count(&payload), 1);
    }
}
