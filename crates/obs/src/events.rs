//! A small bounded ring of recent trace events.
//!
//! Events are the qualitative side of the facade: "violation latched on
//! object 7", "GC reclaimed 1200 events". They are rare by construction, so
//! the ring is a plain `Mutex` — the wait-free discipline applies to the
//! per-operation metrics, not to once-per-incident notes. When recording is
//! disabled ([`crate::enabled`] is false) an event costs one load and a
//! branch; the detail closure is never run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the ring; older events are dropped first.
pub const EVENT_CAPACITY: usize = 256;

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Process-wide sequence number (total order over all events).
    pub seq: u64,
    /// Static event name, e.g. `pool.violation`.
    pub name: &'static str,
    /// Free-form detail, rendered lazily only when recording is enabled.
    pub detail: String,
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static RING: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());

fn ring() -> std::sync::MutexGuard<'static, VecDeque<Event>> {
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Records an event into the ring when recording is enabled. `detail` is
/// only evaluated (and only allocates) when it will actually be stored.
pub fn event(name: &'static str, detail: impl FnOnce() -> String) {
    if !crate::enabled() {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let detail = detail();
    let mut ring = ring();
    if ring.len() == EVENT_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(Event { seq, name, detail });
}

/// The current ring contents, oldest first.
#[must_use]
pub fn recent_events() -> Vec<Event> {
    ring().iter().cloned().collect()
}

/// Empties the ring (tests and long-lived dashboards).
pub fn clear_events() {
    ring().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_skips_the_detail_closure() {
        let _global = crate::global_state_lock();
        crate::set_enabled(false);
        clear_events();
        event("test.skip", || {
            unreachable!("detail must not run when disabled")
        });
        assert!(recent_events().is_empty());
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let _global = crate::global_state_lock();
        crate::set_enabled(true);
        clear_events();
        for i in 0..(EVENT_CAPACITY + 10) {
            event("test.fill", || format!("{i}"));
        }
        let events = recent_events();
        assert_eq!(events.len(), EVENT_CAPACITY);
        assert_eq!(
            events.last().unwrap().detail,
            format!("{}", EVENT_CAPACITY + 9)
        );
        crate::set_enabled(false);
        clear_events();
    }
}
