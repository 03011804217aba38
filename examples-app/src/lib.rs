//! Helper crate hosting the runnable examples of the `linrv` workspace.
//!
//! The examples live under `examples/`:
//!
//! * `quickstart` — wrap a lock-free queue into a self-enforced queue and run a
//!   multi-threaded workload with runtime verification of every response.
//! * `accountable_kv` — a key-value store backed by a faulty register; clients detect
//!   the violation and obtain a forensic certificate (Section 8.3 of the paper).
//! * `faulty_queue_forensics` — a producer/consumer work-queue over a lossy queue,
//!   monitored in Observe mode: operations only publish, and `Monitor::check`
//!   verifies off the critical path (Figure 12).
//! * `impossibility` — prints the Theorem 5.1 `E`/`F` executions and the
//!   indistinguishability argument.
//! * `figures` — reproduces the history figures of the paper (Figures 1, 3, 5, 6, 8, 9)
//!   and re-checks each caption's claim.
//!
//! All examples build on the `linrv` facade crate, with no process-id threading
//! and no stringly-typed wire-level operations or values in any of them. Four use
//! the typed session API end to end; `impossibility` reaches through `linrv::raw`,
//! since its subject *is* the raw model that the facade exists to evade.
//!
//! `figures` and `impossibility` are single-threaded and deterministic: their stdout
//! is committed under `expected/` and byte-compared in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Formats a banner line used by the examples' output.
pub fn banner(title: &str) -> String {
    format!(
        "==== {title} {}",
        "=".repeat(60usize.saturating_sub(title.len()))
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_contains_title() {
        assert!(super::banner("hello").contains("hello"));
    }
}
