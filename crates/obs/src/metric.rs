//! The three metric primitives: striped counters, gauges, and log-bucketed
//! histograms.
//!
//! All three are wait-free on the recording side: a sample is a handful of
//! `Relaxed` atomic read-modify-writes, no locks, no allocation, no
//! retry loops. That matches the wait-free discipline of the DRV hot path
//! this crate instruments — a monitor that blocks its own producers would
//! falsify the very property it measures.
//!
//! Reads (`get`, [`Histogram::snapshot_values`]) sum over the stripes and are
//! only eventually consistent with concurrent writers; that is the usual and
//! documented trade for contention-free recording.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of stripes per counter. Threads are assigned round-robin, so up to
/// `LANES` recording threads never touch the same cache line.
const LANES: usize = 8;

/// Number of histogram buckets: bucket `i` holds values whose bit length is
/// `i` (bucket 0 holds exactly the value zero), so 65 covers all of `u64`.
pub const BUCKETS: usize = 65;

/// One cache line worth of counter stripe, padded so neighbouring stripes
/// never false-share.
#[repr(align(64))]
struct Stripe(AtomicU64);

static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

/// This thread's stripe index, assigned round-robin on first use.
fn lane() -> usize {
    use std::cell::Cell;
    thread_local! {
        static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    LANE.with(|cell| {
        let mut lane = cell.get();
        if lane == usize::MAX {
            lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed) % LANES;
            cell.set(lane);
        }
        lane
    })
}

struct CounterCore {
    stripes: [Stripe; LANES],
}

/// A monotonically increasing counter, striped across `LANES` cache-padded
/// atomics. Cloning yields another handle to the same counter.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// A counter not attached to any registry (used by benches and tests).
    #[must_use]
    pub fn standalone() -> Self {
        Counter {
            core: Arc::new(CounterCore {
                stripes: std::array::from_fn(|_| Stripe(AtomicU64::new(0))),
            }),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. One `Relaxed` `fetch_add` on this thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.core.stripes[lane()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all stripes.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.core
            .stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A signed instantaneous value (queue depth, watermark). A single atomic:
/// gauges are set far less often than counters are bumped.
#[derive(Clone)]
pub struct Gauge {
    core: Arc<AtomicI64>,
}

impl Gauge {
    /// A gauge not attached to any registry.
    #[must_use]
    pub fn standalone() -> Self {
        Gauge {
            core: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.core.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.core.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.core.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// `u64::MAX` until the first sample.
    min: AtomicU64,
    max: AtomicU64,
}

/// A log-bucketed histogram: bucket `i` counts samples of bit length `i`
/// (powers of two), plus exact `sum`, `min` and `max`. Recording is four
/// `Relaxed` RMWs; quantiles are estimated from bucket midpoints and clamped
/// by the exact extrema, which for power-of-two buckets keeps p50/p99 within
/// a factor of ~1.5 of the true value — plenty for latency triage.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

/// Bucket index for `value`: its bit length.
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
#[must_use]
pub fn bucket_le(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// Midpoint representative of bucket `i`, used for quantile estimates.
fn bucket_mid(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let lo = 1u64 << (i - 1).min(63);
    let hi = bucket_le(i);
    lo + (hi - lo) / 2
}

impl Histogram {
    /// A histogram not attached to any registry.
    #[must_use]
    pub fn standalone() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample: bucket increment, sum add, min/max fold — four
    /// `Relaxed` RMWs, never blocking.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &*self.core;
        core.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution. Under concurrent recording
    /// the fields may be mutually off by in-flight samples; each field is
    /// individually correct.
    #[must_use]
    pub fn snapshot_values(&self) -> HistogramSnapshot {
        let core = &*self.core;
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| core.buckets[i].load(Ordering::Relaxed));
        let count = buckets.iter().sum();
        let min = core.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if min == u64::MAX { None } else { Some(min) },
            max: if count == 0 {
                None
            } else {
                Some(core.max.load(Ordering::Relaxed))
            },
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot_values();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("sum", &snap.sum)
            .finish()
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` = bit length `i`).
    pub buckets: [u64; BUCKETS],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample, if any.
    pub min: Option<u64>,
    /// Largest sample, if any.
    pub max: Option<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (used for declared-but-unrecorded families).
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Mean sample value, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): the midpoint of the bucket the
    /// rank falls in, clamped by the exact min/max. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            // The highest-ranked sample is known exactly.
            return self.max.unwrap_or(0);
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = bucket_mid(i);
                let lo = self.min.unwrap_or(0);
                let hi = self.max.unwrap_or(u64::MAX);
                return mid.clamp(lo, hi);
            }
        }
        self.max.unwrap_or(0)
    }

    /// Folds `other` into `self` (used to merge labeled series for reports).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_stripes_sum() {
        let c = Counter::standalone();
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        let c2 = c.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c2.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4004);
    }

    #[test]
    fn gauge_set_add_max() {
        let g = Gauge::standalone();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::standalone();
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot_values();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 1_001_106);
        assert_eq!(snap.min, Some(0));
        assert_eq!(snap.max, Some(1_000_000));
        // p50 falls in the bucket holding 2 and 3.
        let p50 = snap.quantile(0.5);
        assert!((2..=3).contains(&p50), "p50 = {p50}");
        // The top quantile is clamped to the exact max.
        assert_eq!(snap.quantile(1.0), 1_000_000);
        assert_eq!(snap.quantile(0.0), 0);
    }

    #[test]
    fn histogram_extreme_values_stay_in_bounds() {
        let h = Histogram::standalone();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let snap = h.snapshot_values();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, Some(u64::MAX));
        assert!(snap.quantile(0.99) >= 1u64 << 63);
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for i in 0..BUCKETS {
            let le = bucket_le(i);
            assert!(i == 0 || le > prev, "bucket {i}");
            prev = le;
        }
        assert_eq!(bucket_le(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn merge_folds_counts_and_extrema() {
        let a = Histogram::standalone();
        let b = Histogram::standalone();
        a.record(10);
        b.record(1000);
        let mut snap = a.snapshot_values();
        snap.merge(&b.snapshot_values());
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, Some(10));
        assert_eq!(snap.max, Some(1000));
    }
}
