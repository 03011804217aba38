//! Streaming-checker metrics: how large the per-event frontier is, and how
//! often and how expensively the consumed prefix is re-decided from scratch.
//!
//! On the [`crate::stream`] fast path a response costs what its configuration
//! set costs — `linrv_check_frontier_configs` is that size, one sample per
//! response. A whole-prefix decision (`linrv_check_recheck_ns`,
//! `linrv_check_rechecks_total`) only happens to confirm a violation or after
//! the frontier was given up (`linrv_check_frontier_fallbacks_total`), so a
//! clean run shows zero of both.

use linrv_obs::{Counter, Histogram, MetricKind, Registry};
use std::sync::OnceLock;

const RECHECK_NS: &str = "linrv_check_recheck_ns";
const RECHECK_NS_HELP: &str = "full prefix re-decision latency per scheduled re-check, nanoseconds";
const RECHECKS: &str = "linrv_check_rechecks_total";
const RECHECKS_HELP: &str =
    "whole-prefix decisions run: violation confirmations and fallback re-checks";
const FRONTIER_CONFIGS: &str = "linrv_check_frontier_configs";
const FRONTIER_CONFIGS_HELP: &str = "configurations in the frontier after each response";
const FRONTIER_FALLBACKS: &str = "linrv_check_frontier_fallbacks_total";
const FRONTIER_FALLBACKS_HELP: &str =
    "streams whose frontier was given up for the whole-prefix schedule";

/// Per-recheck latency histogram.
pub fn recheck_ns() -> &'static Histogram {
    static SLOT: OnceLock<Histogram> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().histogram(RECHECK_NS, RECHECK_NS_HELP))
}

/// Number of prefix re-decisions run.
pub fn rechecks_total() -> &'static Counter {
    static SLOT: OnceLock<Counter> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().counter(RECHECKS, RECHECKS_HELP))
}

/// Frontier size after each response.
pub fn frontier_configs() -> &'static Histogram {
    static SLOT: OnceLock<Histogram> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().histogram(FRONTIER_CONFIGS, FRONTIER_CONFIGS_HELP))
}

/// Number of streams that gave their frontier up.
pub fn frontier_fallbacks_total() -> &'static Counter {
    static SLOT: OnceLock<Counter> = OnceLock::new();
    SLOT.get_or_init(|| Registry::global().counter(FRONTIER_FALLBACKS, FRONTIER_FALLBACKS_HELP))
}

/// Declares the checker families in the global registry so exports list
/// them even before any recording.
pub fn declare() {
    let registry = Registry::global();
    registry.declare(RECHECK_NS, MetricKind::Histogram, RECHECK_NS_HELP);
    registry.declare(RECHECKS, MetricKind::Counter, RECHECKS_HELP);
    registry.declare(
        FRONTIER_CONFIGS,
        MetricKind::Histogram,
        FRONTIER_CONFIGS_HELP,
    );
    registry.declare(
        FRONTIER_FALLBACKS,
        MetricKind::Counter,
        FRONTIER_FALLBACKS_HELP,
    );
}
