//! # linrv-history
//!
//! Histories, events, real-time partial orders, equivalence and *similarity* for the
//! runtime verification of linearizability, following Castañeda & Rodríguez,
//! *Asynchronous Wait-Free Runtime Verification and Enforcement of Linearizability*
//! (PODC 2023, arXiv:2301.02638).
//!
//! A [`History`] is a finite sequence of invocation and response [`Event`]s produced by
//! `n` asynchronous processes interacting with a concurrent object. This crate provides
//! the history algebra the paper's definitions are built on:
//!
//! * well-formedness (per-process sequentiality, Section 2),
//! * complete and pending operations (Section 4), all read from one operation table,
//!   [`History::index`],
//! * the real-time partial order `≺_E` over all operations (Section 7.1), which is
//!   `<_E` (Definition 4.2) on a history with no pending operation,
//! * equivalence (`E|p_i = F|p_i` for every process),
//! * *similarity* between histories (Definition 7.1), the closure property that defines
//!   the `GenLin` family,
//! * ASCII timeline rendering in the style of the paper's figures.
//!
//! An interval-sequential history (the shape of the paper's sketch `X(λ)`, Claim 7.2)
//! is held as a flat [`History`]: its steps are the history's maximal runs of
//! invocations and of responses.
//!
//! ## Example
//!
//! ```
//! use linrv_history::{HistoryBuilder, ProcessId, Operation, OpValue};
//!
//! // Figure 1 (top): p1 pushes 1 while p2 pops 1 concurrently — linearizable.
//! let p1 = ProcessId::new(0);
//! let p2 = ProcessId::new(1);
//! let mut b = HistoryBuilder::new();
//! let push = b.invoke(p1, Operation::new("Push", OpValue::Int(1)));
//! let pop = b.invoke(p2, Operation::new("Pop", OpValue::Unit));
//! b.respond(pop, OpValue::Int(1));
//! b.respond(push, OpValue::Bool(true));
//! let history = b.build();
//! assert!(history.is_well_formed());
//! assert_eq!(history.complete_operations().count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod display;
pub mod event;
pub mod history;
pub mod op;
pub mod order;
pub mod process;
pub mod similarity;

pub use builder::HistoryBuilder;
pub use event::{Event, EventKind};
pub use history::{History, OpRecord, OpStatus, OpTable, WellFormedError};
pub use op::{OpId, OpValue, Operation};
pub use order::RealTimeOrder;
pub use process::ProcessId;
pub use similarity::{similar, SimilarityWitness};
