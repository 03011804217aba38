//! # linrv-core
//!
//! The primary contribution of Castañeda & Rodríguez, *Asynchronous Wait-Free Runtime
//! Verification and Enforcement of Linearizability* (PODC 2023), as a Rust library:
//!
//! * [`view`] — invocation pairs, view tuples, the one set type both shared arrays
//!   hold (per-process prefixes of append-only logs, as `View` and `TupleSet`) and the
//!   view properties of Remark 7.2;
//! * [`sketch`] — the `X(λ)` construction (Section 7.3.3) that turns a set of views
//!   into the sketch of a tight execution: one flat history whose maximal runs of
//!   invocations and of responses are the steps of Claim 7.2;
//! * [`drv`] — the `A → A*` transform of Figure 7: wrap any black-box implementation so
//!   that every response additionally carries a view, making the implementation a
//!   member of the *Distributed Runtime Verifiable* (`DRV`) class;
//! * [`verifier`] — the wait-free predictive verifier `V_O` of Figure 10
//!   (Theorem 8.1): read/write base objects only, `O(n)`-step loop, predictive
//!   soundness + completeness + stability;
//! * [`enforce`] — the one publish→verify [`enforce::step`] of Figures 11 and 12 (the
//!   membership test gates the response or not, per [`enforce::Mode`]), the verifier
//!   loop body [`enforce::decide`] and, on top of them, self-enforced implementations
//!   `V_{O,A}` of Figure 11 (Theorem 8.2): every non-ERROR response is runtime
//!   verified, and a certificate of the current computation can be produced on
//!   demand. The decoupled `D_{O,A}` of Figure 12 (Section 9.2) is the same step
//!   under [`enforce::Mode::Observe`] with `decide` off the critical path;
//! * [`impossibility`] — an executable rendition of the Theorem 5.1 indistinguishability
//!   argument;
//! * [`certificate`] — serialisable accountability/forensics certificates
//!   (Section 8.3);
//! * [`registry`] — capacity-bounded dynamic process registration, backing the
//!   session handles of the `linrv` facade crate;
//! * `shared` (private) — the one representation of the shared arrays `N` (Figure 7)
//!   and `M` (Figure 10) that [`drv`] and [`verifier`] sit on;
//! * [`metrics`] — `linrv-obs` profiling hooks for the DRV hot path
//!   (announce/collect/sketch latency, announce-view size), recording only
//!   while `linrv_obs::enabled()` is on.
//!
//! ## Quick start
//!
//! ```
//! use linrv_core::enforce::SelfEnforced;
//! use linrv_check::StrategyChecker;
//! use linrv_spec::{QueueSpec, ops::queue};
//! use linrv_runtime::impls::MsQueue;
//! use linrv_runtime::ConcurrentObject;
//! use linrv_history::{OpValue, ProcessId};
//!
//! // Wrap a lock-free queue into its self-enforced counterpart for 2 processes.
//! let enforced = SelfEnforced::new(MsQueue::new(), StrategyChecker::new(QueueSpec::new()), 2);
//! let p0 = ProcessId::new(0);
//! assert_eq!(enforced.apply(p0, &queue::enqueue(7)), OpValue::Bool(true));
//! assert_eq!(enforced.apply(p0, &queue::dequeue()), OpValue::Int(7));
//! // Every response above was runtime verified; the certificate proves it.
//! let cert = enforced.certificate();
//! assert!(cert.is_correct());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod certificate;
pub mod drv;
pub mod enforce;
pub mod impossibility;
pub mod metrics;
pub mod registry;
mod shared;
pub mod sketch;
pub mod verifier;
pub mod view;

pub use certificate::Certificate;
pub use drv::{Drv, DrvResponse};
pub use enforce::{EnforcedResponse, Mode, SelfEnforced};
pub use registry::{ProcessRegistry, RegistryFull};
pub use sketch::{sketch_history, SketchError};
pub use verifier::{Audit, Verifier};
pub use view::{InvocationPair, TupleSet, View, ViewPropertyError, ViewTuple};
