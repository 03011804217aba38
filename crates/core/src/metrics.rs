//! DRV hot-path metrics: lazily registered handles in the global
//! [`Registry`].
//!
//! Announce and collect copy whole views, so their cost grows with the
//! object's operation count (views grow with every operation), and
//! `linrv_drv_view_size` measures exactly that growth on a live run.
//! `linrv_verifier_tuples` does the same for the verdict path: the size of
//! `τ` per verdict, to read a `linrv_drv_sketch_ns` sample against.
//! `linrv_verifier_suffix_tuples` is the part of `τ` a verifier step still
//! sketches above its stable prefix, and `linrv_verifier_rebuilds_total`
//! counts the decides that sketched all of `τ` from scratch instead.
//!
//! Everything here is gated on [`linrv_obs::enabled`] at the call sites in
//! [`crate::drv`], [`crate::sketch`] and [`crate::verifier`]: with recording
//! disabled (the default) the hot path pays one relaxed load and a predicted
//! branch per phase, nothing else.

use linrv_obs::{Counter, Histogram, MetricKind, Registry};
use std::sync::OnceLock;

const ANNOUNCE_NS: &str = "linrv_drv_announce_ns";
const ANNOUNCE_NS_HELP: &str = "DRV announce phase latency (Figure 7 lines 01-02), nanoseconds";
const COLLECT_NS: &str = "linrv_drv_collect_ns";
const COLLECT_NS_HELP: &str = "DRV collect phase latency (Figure 7 lines 05-07), nanoseconds";
const SKETCH_NS: &str = "linrv_drv_sketch_ns";
const SKETCH_NS_HELP: &str = "sketch_history construction latency, nanoseconds";
const VERIFIER_TUPLES: &str = "linrv_verifier_tuples";
const VERIFIER_TUPLES_HELP: &str = "tuples in the set a sketch is built from, per verdict";
const SUFFIX_TUPLES: &str = "linrv_verifier_suffix_tuples";
const SUFFIX_TUPLES_HELP: &str =
    "tuples above the stable prefix that a verifier step sorts, checks and sketches";
const REBUILDS: &str = "linrv_verifier_rebuilds_total";
const REBUILDS_HELP: &str = "verifier decides that sketched the whole tuple set from scratch";
const VIEW_SIZE: &str = "linrv_drv_view_size";
const VIEW_SIZE_HELP: &str = "announce-view size per collected operation (invocation pairs)";
const OPS_ANNOUNCED: &str = "linrv_drv_ops_announced_total";
const OPS_ANNOUNCED_HELP: &str = "operations announced in the snapshot object";
const OPS_COLLECTED: &str = "linrv_drv_ops_collected_total";
const OPS_COLLECTED_HELP: &str = "operations whose view has been collected";

/// Announce-phase latency histogram.
pub fn announce_ns() -> &'static Histogram {
    static SLOT: OnceLock<Histogram> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().histogram(ANNOUNCE_NS, ANNOUNCE_NS_HELP))
}

/// Collect-phase latency histogram.
pub fn collect_ns() -> &'static Histogram {
    static SLOT: OnceLock<Histogram> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().histogram(COLLECT_NS, COLLECT_NS_HELP))
}

/// `sketch_history` construction latency histogram.
pub fn sketch_ns() -> &'static Histogram {
    static SLOT: OnceLock<Histogram> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().histogram(SKETCH_NS, SKETCH_NS_HELP))
}

/// Size of the tuple set `τ` handed to `sketch_history` (one sample per sketch):
/// the input size to read a slow [`sketch_ns`] sample against.
pub fn verifier_tuples() -> &'static Histogram {
    static SLOT: OnceLock<Histogram> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().histogram(VERIFIER_TUPLES, VERIFIER_TUPLES_HELP))
}

/// Tuples above the stable prefix per incremental decide: the part of `τ` a
/// verifier step still sorts, checks and sketches (one sample per such verdict).
pub fn suffix_tuples() -> &'static Histogram {
    static SLOT: OnceLock<Histogram> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().histogram(SUFFIX_TUPLES, SUFFIX_TUPLES_HELP))
}

/// Decides that fell back to sketching all of `τ`: another decide held the
/// verifier's sketch, or `τ` held a forged tuple that the stable prefix cannot take.
pub fn rebuilds() -> &'static Counter {
    static SLOT: OnceLock<Counter> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().counter(REBUILDS, REBUILDS_HELP))
}

/// Announce-view size distribution (one sample per collected operation).
pub fn view_size() -> &'static Histogram {
    static SLOT: OnceLock<Histogram> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().histogram(VIEW_SIZE, VIEW_SIZE_HELP))
}

/// Operations announced (phase 1 completions).
pub fn ops_announced() -> &'static Counter {
    static SLOT: OnceLock<Counter> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().counter(OPS_ANNOUNCED, OPS_ANNOUNCED_HELP))
}

/// Operations collected (phase 3 completions). At quiescence
/// `ops_announced() - ops_collected()` is the number of announced-but-pending
/// operations (crashed or in-flight processes).
pub fn ops_collected() -> &'static Counter {
    static SLOT: OnceLock<Counter> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().counter(OPS_COLLECTED, OPS_COLLECTED_HELP))
}

/// Declares every DRV family in the global registry so exports list them
/// even before (or without) any recording. Called by `--stats` surfaces.
pub fn declare() {
    let registry = Registry::global();
    registry.declare(ANNOUNCE_NS, MetricKind::Histogram, ANNOUNCE_NS_HELP);
    registry.declare(COLLECT_NS, MetricKind::Histogram, COLLECT_NS_HELP);
    registry.declare(SKETCH_NS, MetricKind::Histogram, SKETCH_NS_HELP);
    registry.declare(VERIFIER_TUPLES, MetricKind::Histogram, VERIFIER_TUPLES_HELP);
    registry.declare(SUFFIX_TUPLES, MetricKind::Histogram, SUFFIX_TUPLES_HELP);
    registry.declare(REBUILDS, MetricKind::Counter, REBUILDS_HELP);
    registry.declare(VIEW_SIZE, MetricKind::Histogram, VIEW_SIZE_HELP);
    registry.declare(OPS_ANNOUNCED, MetricKind::Counter, OPS_ANNOUNCED_HELP);
    registry.declare(OPS_COLLECTED, MetricKind::Counter, OPS_COLLECTED_HELP);
}
