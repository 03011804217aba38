//! # linrv-scenario
//!
//! Jepsen-style scenario engine for the linrv monitor stack: composable
//! workload **generators**, seeded **nemeses** (fault schedules), and
//! delta-debugging **trace shrinking**, swept by `linrv fuzz`.
//!
//! The monitor stack treats the implementation under inspection as a black
//! box, so the quality of its testing is exactly the diversity of the
//! histories it sees. This crate widens that diversity along three axes:
//!
//! * [`generator`] — what each process does: configurable op-ratio mixes,
//!   phased fill-then-drain schedules, hot-key skew, burst/quiescence timing
//!   and per-process heterogeneity, composed from `seq`/`mix`/`take`/`stagger`
//!   combinators.
//! * [`nemesis`] — what goes wrong: process crashes mid-operation (pending
//!   invocations, the paper's crashed processes), stalls that stretch
//!   intervals (Figures 5–6), pool session recycling/retirement churn, and
//!   injection of the response-corrupting `faulty::*` wrappers.
//! * shrinking — what you read afterwards: [`fuzz`] reduces every failing
//!   trace with `linrv_forensics::shrink`, delta debugging over complete
//!   operation pairs to a *locally minimal* violating witness (removing any
//!   single pair makes it pass).
//!
//! Everything is replayable bit for bit from a `u64` seed: scenarios derive
//! deterministically from a sweep's master seed, run on the runtime's
//! deterministic controlled scheduler (or a single-threaded pool driver), and
//! write byte-identical corpora.
//!
//! ```
//! use linrv_scenario::{run_sweep, FuzzConfig};
//!
//! // Two scenarios of the pinned quick shape; same seed ⇒ same report.
//! let report = run_sweep(&FuzzConfig::quick(42).with_scenarios(2)).unwrap();
//! assert_eq!(report.results.len(), 2);
//! assert!(report.all_expected());
//! ```
//!
//! Shrinking standalone, with the shrinker of `linrv-forensics`:
//!
//! ```
//! use linrv_forensics::{is_locally_minimal, shrink};
//! use linrv_history::{HistoryBuilder, OpValue, ProcessId};
//! use linrv_spec::{ops::queue, ObjectKind};
//!
//! let mut b = HistoryBuilder::new();
//! let p = ProcessId::new(0);
//! b.complete(p, queue::enqueue(1), OpValue::Bool(true));
//! b.complete(p, queue::dequeue(), OpValue::Int(1));
//! b.complete(p, queue::dequeue(), OpValue::Int(7)); // never enqueued
//! let outcome = shrink(ObjectKind::Queue, &b.build());
//! assert_eq!(outcome.history.complete_operations().count(), 1);
//! assert!(is_locally_minimal(ObjectKind::Queue, &outcome.history));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fuzz;
pub mod generator;
pub mod nemesis;
pub mod runner;
pub mod scenario;

pub use fuzz::{run_sweep, FuzzConfig, FuzzReport, ScenarioResult};
pub use generator::{
    drain, fill, mix, op_mix, seq, stagger, take, BoxGenerator, GenCtx, GenStep, Generator,
    GeneratorSource,
};
pub use nemesis::{
    ChurnNemesis, ChurnPlan, CrashNemesis, FaultPlan, InjectNemesis, Nemesis, PlannedFaults,
    QuietNemesis, RunShape, StallNemesis,
};
pub use runner::{run_scenario, RunOutcome};
pub use scenario::{GeneratorKind, NemesisKind, Scenario, SweepShape, Target};

// Compile the README's code blocks as doctests. This lives in the top crate of
// the workspace dependency stack (scenario depends on linrv, pool, runtime,
// check, …), so README examples may use any of them.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;
