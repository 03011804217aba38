//! # linrv-runtime
//!
//! Concurrent shared-memory object implementations and the execution harness used to
//! exercise the runtime-verification constructions of Castañeda & Rodríguez
//! (PODC 2023).
//!
//! The paper treats the implementation under inspection, `A`, as a **black box**: the
//! verifier only sees invocations and responses. This crate supplies a zoo of such
//! black boxes:
//!
//! * **Correct implementations** — a lock-free Treiber stack and Michael–Scott queue
//!   built from scratch on atomic pointers with epoch reclamation, wait-free atomic
//!   counter/register, CAS-based consensus, and a generic lock-based object driven by
//!   any sequential specification (the "universal construction" baseline the paper's
//!   introduction mentions).
//! * **Fault-injected implementations** — a lossy queue, a duplicating stack, a
//!   stuttering counter, a stale register, and the adversarial implementation from the
//!   proof of Theorem 5.1. These produce non-linearizable histories on demand, which
//!   the completeness experiments (E10) rely on.
//! * **Recorder** — drives `n` threads of operations against an implementation and
//!   records the ground-truth real-time history (something no process inside the
//!   system could do; the recorder exists only for experiments).
//! * **Workloads** — seeded random operation mixes per object kind.

#![warn(missing_docs)]
// The lock-free structures under `impls/` genuinely need unsafe (epoch-based
// reclamation over raw pointers); everything else in the crate is safe code.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod faulty;
pub mod impls;
pub mod object;
pub mod recorder;
pub mod workload;

pub use object::ConcurrentObject;
pub use recorder::{
    record_execution, record_scheduled, record_scheduled_controlled, record_scheduled_traced,
    schedule_seed, ControlledRun, FaultCmd, NoFaults, OpSource, RecordedExecution, RecorderOptions,
    ScheduleFaults, SourceStep, MAX_IDLE_TICKS,
};
pub use workload::{Mix, Workload, WorkloadKind, WorkloadSource};
