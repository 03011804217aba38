//! # linrv — the typed, session-based facade
//!
//! One import surface over the whole runtime-verification stack of Castañeda &
//! Rodríguez (PODC 2023): wrap any black-box concurrent object so that its
//! responses are **runtime verified** for linearizability, without stringly-typed
//! operations or manual process-id threading.
//!
//! Three pillars:
//!
//! * [`MonitorBuilder`] — one fluent chain selects the sequential specification,
//!   the snapshot backend ([`SnapshotBackend`]), the verification mode
//!   ([`Mode::Enforce`] gates responses, [`Mode::Observe`] verifies off the
//!   critical path) and an optional trace tap; certificates are produced on
//!   demand by [`Monitor::certificate`].
//! * [`Session`] — per-process handles obtained from [`Monitor::register`]. Each
//!   session exclusively owns one process slot of the paper's constructions
//!   (capacity-bounded, recycled on drop), so call sites never see a process id.
//! * **Typed operations** — `session.enqueue(7)` / `session.dequeue()` and
//!   friends for all seven shipped specifications, returning
//!   `Result<T, `[`Rejected`]`>` with precise response types. The typed layer
//!   ([`linrv_spec::typed`]) encodes to the untyped `Operation`/`OpValue` wire
//!   format, which remains fully available as the escape hatch (see [`raw`],
//!   [`Session::apply_raw`] and [`Monitor::as_raw`]).
//!
//! ## Quick start
//!
//! This is the README front-page example, compiled as a doc-test:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use linrv::prelude::*;
//! use linrv::runtime::impls::MsQueue;
//!
//! // Wrap a lock-free queue so that every response is runtime verified.
//! let monitor = Monitor::builder(QueueSpec::new())
//!     .processes(2)
//!     .snapshot(SnapshotBackend::Afek)
//!     .mode(Mode::Enforce)
//!     .build(MsQueue::new());
//!
//! // Sessions own their process slot: no id threading at call sites.
//! let session = monitor.register()?;
//! session.enqueue(7)?;
//! assert_eq!(session.dequeue()?, Some(7));
//!
//! // A certificate of the whole computation, on demand (Theorem 8.2 (3)).
//! assert!(monitor.certificate().is_correct());
//! # Ok(())
//! # }
//! ```
//!
//! ## Raw API vs typed API
//!
//! | Concern | Raw ([`raw`], `linrv-core`) | Typed (this crate) |
//! | ------- | --------------------------- | ------------------ |
//! | Construction | `SelfEnforced::new(a, check::StrategyChecker::new(spec), n)` | [`Monitor::builder`]`(spec).processes(n).build(a)` |
//! | Process identity | caller threads `ProcessId` manually | [`Session`] owns its slot; [`Monitor::register`] |
//! | Operations | `Operation::new("Enqueue", OpValue::Int(5))` | `session.enqueue(5)` |
//! | Responses | `OpValue` inspected at runtime | precise types (`Option<i64>`, `bool`, …) |
//! | Errors | `OpValue::Error` sentinel + witness field | `Result<_, `[`Rejected`]`>` |
//! | Verification placement | `enforce::step(.., mode)` after `A*`: `SelfEnforced` gates; under `Mode::Observe` it only publishes and `enforce::decide` tests later | the same step with the monitor's [`Mode::Enforce`] / [`Mode::Observe`] |
//! | Availability | always (re-exported here) | seven shipped specs + any [`TypedObject`](spec::TypedObject) |
//!
//! The two layers interoperate freely: typed operations are *encodings* — a typed
//! session run and a raw run with the same wire operations produce identical
//! verdicts (property-tested in `tests-integration`).
//!
//! ## Monitoring many objects
//!
//! One [`Monitor`] verifies one object. Services hosting many logical objects
//! (a register per key, a queue per tenant) should use the `linrv-pool` crate:
//! its `MonitorPool` shards object ids, creates these monitors lazily, drains
//! their events through bounded queues into a work-stealing pool of checker
//! threads, and garbage-collects checked history prefixes so per-object memory
//! stays bounded. `linrv_pool::prelude` re-exports everything from
//! [`prelude`], so it is a drop-in superset of this facade.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod metrics;
mod monitor;
mod session;
mod typed_history;

pub use builder::{Mode, MonitorBuilder, SnapshotBackend, DEFAULT_CAPACITY};
pub use monitor::{Monitor, Verdict};
pub use session::{Executed, Rejected, Session, Staged};
pub use typed_history::{TypedCall, TypedHistoryBuilder};

// Re-exported constituent crates, for everything the facade does not wrap.
pub use linrv_check as check;
pub use linrv_history as history;
pub use linrv_runtime as runtime;
pub use linrv_snapshot as snapshot;
pub use linrv_spec as spec;
pub use linrv_trace as trace;

pub use linrv_core::registry::RegistryFull;
pub use linrv_history::display::render_timeline;

use linrv_check::{GenLinObject, StrategyChecker};
use linrv_history::History;
use linrv_spec::SequentialSpec;

/// The raw, untyped API: the paper's constructions exactly as `linrv-core`
/// exposes them, for call sites that need manual `ProcessId` threading, custom
/// snapshot wiring or untyped `Operation`s.
///
/// Checkers and the seeded schedulers are not repeated here: they are in
/// [`check`] and [`runtime`].
pub mod raw {
    pub use linrv_check::{GenLinObject, LinSpec};
    pub use linrv_core as core;
    pub use linrv_core::{
        Certificate, Drv, DrvResponse, EnforcedResponse, ProcessRegistry, RegistryFull,
        SelfEnforced, Verifier,
    };
    pub use linrv_history::{History, HistoryBuilder, OpId, OpValue, Operation, ProcessId};
    pub use linrv_runtime::ConcurrentObject;
    pub use linrv_snapshot::Snapshot;
}

/// The names most programs want in scope.
pub mod prelude {
    pub use crate::builder::{Mode, MonitorBuilder, SnapshotBackend};
    pub use crate::monitor::{Monitor, Verdict};
    pub use crate::session::{Rejected, Session};
    pub use crate::typed_history::TypedHistoryBuilder;
    pub use crate::RegistryFull;
    pub use linrv_spec::{
        ConsensusSpec, CounterSpec, PriorityQueueSpec, QueueSpec, RegisterSpec, SetSpec, StackSpec,
    };
    pub use linrv_spec::{OpFor, TypedObject, TypedOp};
}

/// Decides whether `history` is linearizable with respect to `spec`
/// (Definition 4.2), without constructing a monitor.
///
/// ```
/// use linrv::spec::typed::queue::{Dequeue, Enqueue};
/// use linrv::spec::QueueSpec;
/// use linrv::TypedHistoryBuilder;
///
/// let mut b = TypedHistoryBuilder::<QueueSpec>::new();
/// b.complete(0, Enqueue(1), ());
/// b.complete(1, Dequeue, Some(1));
/// assert!(linrv::is_linearizable(QueueSpec::new(), &b.build()));
/// ```
pub fn is_linearizable<S: SequentialSpec>(spec: S, history: &History) -> bool {
    // Dispatch: the log-linear specialized monitor when the object
    // kind has one and the history is unambiguous, the general search else.
    StrategyChecker::new(spec).contains(history)
}

// The README's examples are compiled as doc-tests by the `linrv-pool` crate
// (its `ReadmeDoctests` harness): the README also shows the multi-object pool
// quickstart, which needs `linrv_pool` in scope — a crate that depends on this
// one and therefore cannot be doc-tested from here.
