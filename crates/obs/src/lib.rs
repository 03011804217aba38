//! `linrv-obs` — a wait-free metrics core and tracing facade for the linrv
//! monitor stack.
//!
//! The paper's claim is that linearizability verification can run *online*,
//! next to production traffic. That only holds if the monitor itself is
//! observable without perturbing the wait-free hot path, so this crate is
//! built around one discipline:
//!
//! * **recording never blocks** — counters are striped across cache-padded
//!   atomics, histograms are log-bucketed arrays; a sample is a handful of
//!   `Relaxed` RMWs (see [`Counter`], [`Histogram`]);
//! * **disabled means free** — timing instrumentation is guarded by a
//!   process-wide [`enabled`] flag: one relaxed load and a predictable
//!   branch when off;
//! * **reads are eventually consistent** — snapshots sum over stripes while
//!   writers keep writing; each value is individually correct, cross-metric
//!   exactness is only guaranteed at quiescence.
//!
//! # Policy: what is gated, what is always on
//!
//! Counters and gauges that back first-class stats APIs (the pool's
//! [`stats()`] family) are recorded unconditionally — they cost the same
//! relaxed adds as the ad-hoc atomics they replaced. Everything that needs a
//! *clock* (latency histograms, spans) or allocates (trace events) is gated
//! on [`enabled`], which defaults to **off**: a production monitor pays for
//! observability only after someone asks for it (`--stats`, dashboards).
//!
//! # Example
//!
//! ```
//! use linrv_obs::{Registry, Span};
//!
//! let registry = Registry::new(); // or Registry::global()
//! let ops = registry.counter("myapp_ops_total", "operations applied");
//! let latency = registry.histogram("myapp_op_ns", "per-op latency");
//!
//! linrv_obs::set_enabled(true); // arm the timing instrumentation
//! for _ in 0..100 {
//!     let span = Span::start(&latency); // no-op (and clock-free) when disabled
//!     ops.inc();
//!     drop(span); // records the elapsed nanoseconds
//! }
//! linrv_obs::set_enabled(false);
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("myapp_ops_total"), Some(100));
//! assert_eq!(snapshot.histogram("myapp_op_ns").unwrap().count, 100);
//! print!("{}", snapshot.render_report()); // or .to_prometheus() / .to_json()
//! ```
//!
//! [`stats()`]: https://docs.rs/linrv-pool

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod export;
mod metric;
mod registry;

pub use events::{clear_events, event, recent_events, Event, EVENT_CAPACITY};
pub use export::{format_ns, JSON_SCHEMA};
pub use metric::{bucket_le, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{
    FamilySnapshot, MetricKind, MetricsSnapshot, Registry, SeriesSnapshot, SeriesValue,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether timing/tracing instrumentation records right now. One `Relaxed`
/// load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns timing/tracing instrumentation on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An RAII timing span: started against a [`Histogram`], records the elapsed
/// nanoseconds into it on drop (or [`Span::stop`]). When recording is
/// disabled the constructor takes no clock reading and the span is inert.
#[must_use = "a span records on drop; binding it to _ discards the timing"]
pub struct Span {
    live: Option<(Histogram, Instant)>,
}

impl Span {
    /// Starts a span recording into `target`, or an inert span when
    /// recording is disabled.
    pub fn start(target: &Histogram) -> Span {
        if enabled() {
            Span {
                live: Some((target.clone(), Instant::now())),
            }
        } else {
            Span { live: None }
        }
    }

    /// Stops the span early, returning the recorded nanoseconds (`None` for
    /// inert spans).
    pub fn stop(mut self) -> Option<u64> {
        self.finish()
    }

    fn finish(&mut self) -> Option<u64> {
        let (hist, start) = self.live.take()?;
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        hist.record(ns);
        Some(ns)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Times `f` into `target` (via [`Span`]) and returns its result.
pub fn time<R>(target: &Histogram, f: impl FnOnce() -> R) -> R {
    let _span = Span::start(target);
    f()
}

/// Serializes the unit tests that flip or read the process-global switch,
/// event ring or sequence: `cargo test` runs them on parallel threads, and
/// one test's `set_enabled(false)` otherwise lands inside another's
/// enabled section.
#[cfg(test)]
pub(crate) fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding the lock must not fail the others.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let _global = global_state_lock();
        set_enabled(false);
        let h = Histogram::standalone();
        let span = Span::start(&h);
        assert_eq!(span.stop(), None);
        assert_eq!(h.snapshot_values().count, 0);
    }

    #[test]
    fn enabled_spans_record_on_drop_and_stop() {
        let _global = global_state_lock();
        set_enabled(true);
        let h = Histogram::standalone();
        {
            let _span = Span::start(&h);
        }
        let ns = Span::start(&h).stop();
        assert!(ns.is_some());
        assert_eq!(h.snapshot_values().count, 2);
        let out = time(&h, || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(h.snapshot_values().count, 3);
        set_enabled(false);
    }

    #[test]
    fn counters_record_regardless_of_the_switch() {
        let _global = global_state_lock();
        set_enabled(false);
        let c = Counter::standalone();
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
