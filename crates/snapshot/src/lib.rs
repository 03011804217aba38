//! # linrv-snapshot
//!
//! Wait-free linearizable *atomic snapshot* objects built from read/write registers
//! only, as required by the constructions of Castañeda & Rodríguez (PODC 2023).
//!
//! The snapshot object (Definition 7.3 of the paper) is a shared array `MEM` with one
//! entry per process and two operations: `Write(v)`, which stores `v` into the calling
//! process's entry, and `Snapshot()`, which returns an atomic copy of the whole array.
//! The paper's `A → A*` transform (Figure 7), the predictive verifier `V_O`
//! (Figure 10) and the self-enforced implementations (Figures 11–12) all communicate
//! exclusively through such objects, which is what keeps them wait-free and free of
//! consensus.
//!
//! Three implementations are provided:
//!
//! * [`AfekSnapshot`] — the classic wait-free construction of Afek et al. (the paper's
//!   reference `[1]`): scans double-collect and, when interference is detected twice
//!   from the same writer, *borrow* the embedded scan that writer published. `O(n²)`
//!   reads per operation, wait-free.
//! * [`DoubleCollectSnapshot`] — plain double-collect without helping: linearizable,
//!   but only lock-free (a scan may be starved by writers). An ablation baseline for the
//!   raw API and the benchmark; the `linrv` facade's backends are the other two.
//! * [`LockedSnapshot`] — a mutex-protected array. Trivially linearizable but blocking;
//!   it serves as the differential-testing oracle, mirroring the lock-based monitors
//!   the paper's related-work section argues against.
//!
//! All implementations share the [`Snapshot`] trait so the higher layers can be
//! instantiated with any of them (and benchmarked against each other, experiment E15).

#![warn(missing_docs)]
// `register.rs` genuinely needs unsafe (seqlock-style reads of shared slots);
// everything else in the crate is safe code.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod afek;
pub mod double_collect;
pub mod locked;
pub mod register;
pub mod traits;

pub use afek::AfekSnapshot;
pub use double_collect::DoubleCollectSnapshot;
pub use locked::LockedSnapshot;
pub use register::AtomicRegister;
pub use traits::Snapshot;
