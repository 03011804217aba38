//! # linrv-check
//!
//! Decision procedures for the correctness conditions of Castañeda & Rodríguez
//! (PODC 2023): linearizability (Definition 4.2), set-linearizability,
//! interval-linearizability for one-shot tasks, and the umbrella family **GenLin**
//! (Definition 7.2) — abstract objects closed under prefixes and *similarity*.
//!
//! The paper's interactive model assumes every process "can locally test if a given
//! finite history satisfies `P_O`" (Section 3); this crate is that local test. It is
//! used by the wait-free predictive verifier `V_O` (Figure 10) and by the self-enforced
//! implementations `V_{O,A}` (Figure 11) in `linrv-core`.
//!
//! * [`GenLinObject`] — membership predicate over finite histories with the closure
//!   properties of `GenLin` documented and testable.
//! * [`LinSpec`] — linearizability with respect to a [`SequentialSpec`](linrv_spec::SequentialSpec), decided with a
//!   Wing–Gong search enhanced with Lowe-style memoisation.
//! * [`StrategyChecker`] — the linearizability test every caller outside this crate
//!   builds: the [`specialized`] log-linear monitors, with [`LinSpec`] as fallback.
//!   Both answer member or not a member.
//! * [`SetLinSpec`] — set-linearizability for set-sequential specifications.
//! * [`tasks`] — one-shot tasks and their interval-linearizability membership
//!   (Section 9.3).
//! * [`StreamingChecker`] — the online form of [`LinSpec`]: a per-event frontier of
//!   reachable configurations that latches a violation at the response causing it.
//!
//! ```
//! use linrv_check::{GenLinObject, StrategyChecker};
//! use linrv_spec::QueueSpec;
//! use linrv_history::{HistoryBuilder, Operation, OpValue, ProcessId};
//!
//! // Figure 5 (bottom), detected history: enq(1) and deq():1 overlap — linearizable.
//! let mut b = HistoryBuilder::new();
//! let enq = b.invoke(ProcessId::new(0), Operation::new("Enqueue", OpValue::Int(1)));
//! let deq = b.invoke(ProcessId::new(1), Operation::nullary("Dequeue"));
//! b.respond(deq, OpValue::Int(1));
//! b.respond(enq, OpValue::Bool(true));
//! let object = StrategyChecker::new(QueueSpec::new());
//! assert!(object.contains(&b.build()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod genlin;
pub mod linearizability;
pub mod metrics;
pub mod pattern;
pub mod setlin;
pub mod specialized;
pub mod stream;
pub mod tasks;
pub mod witness;

pub use genlin::{ClosureReport, GenLinObject};
pub use linearizability::LinSpec;
pub use pattern::BadPattern;
pub use setlin::{SetLinCounterSpec, SetLinSpec, SetSequentialSpec};
pub use specialized::{
    check_specialized, FallbackReason, Route, Settled, SpecializedResult, StrategyChecker,
};
pub use stream::{check_events, StreamingChecker};
pub use tasks::{OneShotTaskObject, Task, TaskInstance};
pub use witness::{SearchFrontier, Verdict, Violation};
