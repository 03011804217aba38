//! Per-process [`Session`] handles: typed, id-free operations against a
//! [`Monitor`](crate::Monitor).

use crate::monitor::MonitorInner;
use linrv_core::drv::Announced;
use linrv_core::enforce::{step, EnforcedResponse};
use linrv_history::{Event, History, OpValue, Operation, ProcessId};
use linrv_runtime::ConcurrentObject;
use linrv_spec::typed::{
    consensus, counter, priority_queue, queue, register, set, stack, TypedError,
};
use linrv_spec::{OpFor, TypedObject, TypedOp};
use std::fmt;
use std::sync::Arc;

/// Why a typed operation did not return a verified response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// Runtime verification failed: the computation including this response is
    /// not linearizable ([`Mode::Enforce`](crate::Mode::Enforce) only).
    /// Corresponds to the paper's `ERROR` response (Figure 11).
    Violation {
        /// The response the underlying implementation produced.
        underlying: OpValue,
        /// A non-linearizable history of the wrapped implementation witnessing
        /// the violation (predictive soundness).
        witness: History,
    },
    /// The underlying implementation returned a value outside the operation's
    /// response type (e.g. a `Dequeue` answered with `true`). Possible in both
    /// modes — a black box can return anything.
    Malformed {
        /// The response the underlying implementation produced.
        underlying: OpValue,
        /// What went wrong while decoding it.
        error: TypedError,
    },
}

impl Rejected {
    /// Returns `true` when the rejection carries a linearizability witness.
    pub fn is_violation(&self) -> bool {
        matches!(self, Rejected::Violation { .. })
    }

    /// The witness history, when verification failed.
    pub fn witness(&self) -> Option<&History> {
        match self {
            Rejected::Violation { witness, .. } => Some(witness),
            Rejected::Malformed { .. } => None,
        }
    }

    /// The raw response of the underlying implementation (always available).
    pub fn underlying(&self) -> &OpValue {
        match self {
            Rejected::Violation { underlying, .. } | Rejected::Malformed { underlying, .. } => {
                underlying
            }
        }
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::Violation { underlying, .. } => write!(
                f,
                "response {underlying} rejected by runtime verification \
                 (non-linearizable; witness attached)"
            ),
            Rejected::Malformed { underlying, error } => {
                write!(f, "response {underlying} is malformed: {error}")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// An operation that has been announced in the snapshot object but not yet run
/// (Figure 7, Lines 01–02). Produced by [`Session::stage`].
///
/// Deliberately neither `Clone` nor `Copy`: each announcement corresponds to
/// exactly one operation instance, so the token must be consumed exactly once.
#[derive(Debug)]
pub struct Staged<Op: TypedOp> {
    pub(crate) op: Op,
    pub(crate) announced: Announced,
    /// Identity of the monitor the operation was announced in (the address of
    /// its shared state), so tokens cannot cross monitors.
    pub(crate) monitor_brand: usize,
}

/// An operation whose underlying call has run but whose view has not been
/// collected yet (Figure 7, Lines 03–04). Produced by [`Session::execute`].
///
/// Like [`Staged`], deliberately not `Clone`: committing the same operation
/// twice would publish two result tuples for one announced operation.
#[derive(Debug)]
pub struct Executed<Op: TypedOp> {
    pub(crate) op: Op,
    pub(crate) announced: Announced,
    pub(crate) value: OpValue,
    pub(crate) monitor_brand: usize,
}

/// A per-process handle on a [`Monitor`](crate::Monitor).
///
/// Each session exclusively owns one process slot; the slot returns to the pool
/// when the session is dropped — unless the session still has a staged
/// operation outstanding (a crashed process, see [`Session::stage`]), in which
/// case the slot is retired. Sessions are `Send` (move one into each worker
/// thread) but deliberately not `Clone` — two clones would violate the paper's
/// assumption that each process is sequential.
pub struct Session<A: ConcurrentObject, S: TypedObject> {
    monitor: Arc<MonitorInner<A, S>>,
    process: ProcessId,
    /// Number of staged operations not yet committed (0 or 1): the paper's
    /// processes are sequential, so a session must finish one operation before
    /// starting the next.
    outstanding: std::sync::atomic::AtomicUsize,
}

impl<A: ConcurrentObject, S: TypedObject> Session<A, S> {
    pub(crate) fn new(monitor: Arc<MonitorInner<A, S>>, process: ProcessId) -> Self {
        Session {
            monitor,
            process,
            outstanding: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Claims the session's one-operation-at-a-time slot; panics when an
    /// operation is already in flight.
    fn claim_sequential(&self, starting: &str) {
        use std::sync::atomic::Ordering;
        assert!(
            self.outstanding
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok(),
            "process sequentiality violated: cannot {starting} while another \
             operation of this session is in flight; finish it first (an \
             announced operation can never be withdrawn — abandoning it means \
             the process crashed, which retires the session's slot on drop)"
        );
    }

    /// The identity of this session's monitor, branding phase tokens.
    fn brand(&self) -> usize {
        Arc::as_ptr(&self.monitor) as *const () as usize
    }

    /// Refuses a phase token another monitor or another session issued, before
    /// anything is done with it.
    fn assert_owns(&self, phase: &str, monitor_brand: usize, announced: &Announced) {
        assert_eq!(
            monitor_brand,
            self.brand(),
            "{phase} called with an operation staged on a different monitor"
        );
        assert_eq!(
            announced.pair.process, self.process,
            "{phase} called with an operation staged by a different session"
        );
    }

    /// Counts one end-to-end operation and times it until the span is dropped.
    fn op_span() -> linrv_obs::Span {
        if linrv_obs::enabled() {
            crate::metrics::ops_total().inc();
        }
        linrv_obs::Span::start(crate::metrics::op_ns())
    }

    // The one walk every operation takes, on the wire operation: announce → tap →
    // underlying call → collect → tap → publish→verify step. The typed phases
    // below are encode/decode and token checks around it.

    /// Figure 7, Lines 01–02: claim the session, announce, tap the invocation.
    fn announce(&self, op: &Operation, starting: &str) -> Announced {
        self.claim_sequential(starting);
        let announced = self.monitor.enforced.drv().announce(self.process, op);
        // The trace tap records the announced wire operation: the trace is the
        // history of the wrapped implementation, typed sugar erased.
        self.monitor.tap(&Event::invocation(
            self.process,
            announced.pair.op_id,
            announced.pair.operation.clone(),
        ));
        announced
    }

    /// Figure 7, Lines 05–07 and the step of Figures 11/12: collect the view, tap
    /// the response, publish the tuple and verify per the monitor's mode.
    fn finish(&self, announced: Announced, value: OpValue) -> EnforcedResponse {
        let enforced = &self.monitor.enforced;
        let response = enforced.drv().collect(announced, value);
        // Trace the *underlying* response — even when Enforce mode is about to
        // reject it, the trace documents what the implementation actually did.
        self.monitor.tap(&Event::response(
            self.process,
            response.pair.op_id,
            response.value.clone(),
        ));
        let response = step(
            enforced.verifier(),
            self.process,
            response,
            self.monitor.mode,
        );
        // The operation is complete only once its tuple is published; clearing
        // the sequentiality flag any earlier would let a concurrent stage() on a
        // shared &Session overlap two operations of one process.
        self.outstanding
            .store(0, std::sync::atomic::Ordering::Release);
        if !response.is_verified() {
            self.monitor.note_violation(self.process);
        } else if linrv_obs::enabled() {
            crate::metrics::verdict_ok().inc();
        }
        response
    }

    /// Applies a typed operation end to end: announce, run, collect, verify (per
    /// the monitor's [`Mode`](crate::Mode)), decode.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails (Enforce mode) or the
    /// underlying response does not decode.
    ///
    /// # Panics
    ///
    /// Panics when a staged operation of this session has not been committed yet
    /// (processes are sequential).
    pub fn apply<Op: OpFor<S>>(&self, op: Op) -> Result<Op::Response, Rejected> {
        let _span = Self::op_span();
        let staged = self.stage(op);
        let executed = self.execute(staged);
        self.commit(executed)
    }

    /// Phase 1 of the DRV transform (Figure 7, Lines 01–02): announce the
    /// operation. Exposed so tests and figure reproductions can interleave the
    /// phases deterministically; ordinary call sites use [`Session::apply`].
    ///
    /// An announcement can never be withdrawn (other processes may already have
    /// scanned it). Dropping the returned [`Staged`] without committing it
    /// models a process that crashed mid-operation: this session refuses to
    /// start further operations, and its slot is *retired* instead of recycled
    /// when the session is dropped.
    ///
    /// # Panics
    ///
    /// Panics when a previously staged operation of this session has not been
    /// committed yet (processes are sequential).
    pub fn stage<Op: OpFor<S>>(&self, op: Op) -> Staged<Op> {
        Staged {
            announced: self.announce(&op.encode(), "stage a new operation"),
            op,
            monitor_brand: self.brand(),
        }
    }

    /// Phase 2 (Figure 7, Lines 03–04): run the operation on the wrapped
    /// implementation.
    ///
    /// # Panics
    ///
    /// Panics, before the underlying call, when `staged` was produced on a
    /// different monitor or by a session owning a different process slot.
    pub fn execute<Op: OpFor<S>>(&self, staged: Staged<Op>) -> Executed<Op> {
        self.assert_owns("execute", staged.monitor_brand, &staged.announced);
        Executed {
            value: self.monitor.enforced.drv().call_inner(&staged.announced),
            op: staged.op,
            announced: staged.announced,
            monitor_brand: staged.monitor_brand,
        }
    }

    /// Phase 3 (Figure 7, Lines 05–07 + Figures 10–12): collect the view, publish
    /// the tuple, verify per the monitor's mode and decode the response.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails (Enforce mode) or the
    /// underlying response does not decode.
    ///
    /// # Panics
    ///
    /// Panics when `executed` was staged on a different monitor or by a session
    /// owning a different process slot.
    pub fn commit<Op: OpFor<S>>(&self, executed: Executed<Op>) -> Result<Op::Response, Rejected> {
        self.assert_owns("commit", executed.monitor_brand, &executed.announced);
        let response = self.finish(executed.announced, executed.value);
        let underlying = response.underlying;
        if let Some(witness) = response.witness {
            return Err(Rejected::Violation {
                underlying,
                witness,
            });
        }
        executed.op.decode_response(&underlying).map_err(|error| {
            if linrv_obs::enabled() {
                crate::metrics::malformed().inc();
            }
            Rejected::Malformed { underlying, error }
        })
    }

    /// Escape hatch: applies an untyped wire operation through the same walk,
    /// returning the raw self-enforced response. The monitor's
    /// [`Mode`](crate::Mode) is still honoured (Observe mode publishes without
    /// gating).
    ///
    /// # Panics
    ///
    /// Panics when another operation of this session is still in flight
    /// (processes are sequential).
    pub fn apply_raw(&self, op: &Operation) -> EnforcedResponse {
        let _span = Self::op_span();
        let announced = self.announce(op, "apply a raw operation");
        let value = self.monitor.enforced.drv().call_inner(&announced);
        self.finish(announced, value)
    }

    /// The zero-based index of the process slot this session owns. Useful for
    /// labelling output; never needed to issue operations.
    pub fn slot(&self) -> usize {
        self.process.index()
    }
}

impl<A: ConcurrentObject, S: TypedObject> Drop for Session<A, S> {
    fn drop(&mut self) {
        // A session dropped with a staged-but-uncommitted operation is a crashed
        // process: its announcement stays visible forever, so handing the slot to
        // a new session would make that session's history ill-formed (two
        // concurrent operations by one process). Retire the slot instead.
        if self.outstanding.load(std::sync::atomic::Ordering::Acquire) == 0 {
            self.monitor.enforced.drv().registry().release(self.process);
        }
    }
}

impl<A: ConcurrentObject, S: TypedObject> fmt::Debug for Session<A, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("process", &self.process)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Typed convenience methods, one impl block per shipped specification.
// ---------------------------------------------------------------------------

impl<A: ConcurrentObject> Session<A, linrv_spec::QueueSpec> {
    /// `Enqueue(v)` (verified).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn enqueue(&self, v: i64) -> Result<(), Rejected> {
        self.apply(queue::Enqueue(v))
    }

    /// `Dequeue()` (verified): `Some(oldest)` or `None` when empty.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn dequeue(&self) -> Result<Option<i64>, Rejected> {
        self.apply(queue::Dequeue)
    }
}

impl<A: ConcurrentObject> Session<A, linrv_spec::StackSpec> {
    /// `Push(v)` (verified).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn push(&self, v: i64) -> Result<(), Rejected> {
        self.apply(stack::Push(v))
    }

    /// `Pop()` (verified): `Some(newest)` or `None` when empty.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn pop(&self) -> Result<Option<i64>, Rejected> {
        self.apply(stack::Pop)
    }
}

impl<A: ConcurrentObject> Session<A, linrv_spec::SetSpec> {
    /// `Add(v)` (verified): `true` when `v` was absent.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn add(&self, v: i64) -> Result<bool, Rejected> {
        self.apply(set::Add(v))
    }

    /// `Remove(v)` (verified): `true` when `v` was present.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn remove(&self, v: i64) -> Result<bool, Rejected> {
        self.apply(set::Remove(v))
    }

    /// `Contains(v)` (verified).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn contains(&self, v: i64) -> Result<bool, Rejected> {
        self.apply(set::Contains(v))
    }
}

impl<A: ConcurrentObject> Session<A, linrv_spec::PriorityQueueSpec> {
    /// `Insert(v)` (verified).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn insert(&self, v: i64) -> Result<(), Rejected> {
        self.apply(priority_queue::Insert(v))
    }

    /// `ExtractMin()` (verified): `Some(minimum)` or `None` when empty.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn extract_min(&self) -> Result<Option<i64>, Rejected> {
        self.apply(priority_queue::ExtractMin)
    }
}

impl<A: ConcurrentObject> Session<A, linrv_spec::CounterSpec> {
    /// `Inc()` (verified): fetch-and-increment, returning the pre-increment value.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn inc(&self) -> Result<i64, Rejected> {
        self.apply(counter::Inc)
    }

    /// `Read()` (verified): the current value.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn read(&self) -> Result<i64, Rejected> {
        self.apply(counter::Read)
    }
}

impl<A: ConcurrentObject> Session<A, linrv_spec::RegisterSpec> {
    /// `Write(v)` (verified).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn write(&self, v: i64) -> Result<(), Rejected> {
        self.apply(register::Write(v))
    }

    /// `Read()` (verified): the last written value (initially `0`).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn read(&self) -> Result<i64, Rejected> {
        self.apply(register::Read)
    }
}

impl<A: ConcurrentObject> Session<A, linrv_spec::ConsensusSpec> {
    /// `Decide(v)` (verified): the value decided by the first proposal.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when verification fails or the response is malformed.
    pub fn decide(&self, v: i64) -> Result<i64, Rejected> {
        self.apply(consensus::Decide(v))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use linrv_history::{OpValue, Operation};
    use linrv_runtime::faulty::{DuplicatingStack, StaleRegister};
    use linrv_runtime::impls::{
        AtomicCounter, AtomicIntRegister, MsQueue, SpecObject, TreiberStack,
    };

    #[test]
    fn typed_methods_cover_all_specs() {
        let queue = Monitor::builder(QueueSpec::new())
            .processes(1)
            .build(MsQueue::new());
        let q = queue.register().unwrap();
        q.enqueue(1).unwrap();
        assert_eq!(q.dequeue().unwrap(), Some(1));
        assert_eq!(q.dequeue().unwrap(), None);

        let stack = Monitor::builder(StackSpec::new())
            .processes(1)
            .build(TreiberStack::new());
        let s = stack.register().unwrap();
        s.push(2).unwrap();
        assert_eq!(s.pop().unwrap(), Some(2));

        let set = Monitor::builder(SetSpec::new())
            .processes(1)
            .build(SpecObject::new(SetSpec::new()));
        let s = set.register().unwrap();
        assert!(s.add(3).unwrap());
        assert!(s.contains(3).unwrap());
        assert!(s.remove(3).unwrap());
        assert!(!s.contains(3).unwrap());

        let pq = Monitor::builder(PriorityQueueSpec::new())
            .processes(1)
            .build(SpecObject::new(PriorityQueueSpec::new()));
        let s = pq.register().unwrap();
        s.insert(9).unwrap();
        s.insert(4).unwrap();
        assert_eq!(s.extract_min().unwrap(), Some(4));

        let counter = Monitor::builder(CounterSpec::new())
            .processes(1)
            .build(AtomicCounter::new());
        let c = counter.register().unwrap();
        assert_eq!(c.inc().unwrap(), 0);
        assert_eq!(c.read().unwrap(), 1);

        let register = Monitor::builder(RegisterSpec::new())
            .processes(1)
            .build(AtomicIntRegister::new());
        let r = register.register().unwrap();
        r.write(7).unwrap();
        assert_eq!(r.read().unwrap(), 7);

        let consensus = Monitor::builder(ConsensusSpec::new())
            .processes(1)
            .build(SpecObject::new(ConsensusSpec::new()));
        let c = consensus.register().unwrap();
        assert_eq!(c.decide(5).unwrap(), 5);
        assert_eq!(
            c.decide(8).unwrap(),
            5,
            "consensus locks the first proposal"
        );
    }

    #[test]
    fn rejections_carry_the_underlying_response_and_witness() {
        let monitor = Monitor::builder(StackSpec::new())
            .processes(1)
            .build(DuplicatingStack::new(2));
        let session = monitor.register().unwrap();
        session.push(1).unwrap();
        session.push(2).unwrap();
        let mut rejection = None;
        for _ in 0..4 {
            if let Err(r) = session.pop() {
                rejection = Some(r);
                break;
            }
        }
        let rejection = rejection.expect("duplicated pop must be rejected");
        assert!(rejection.is_violation());
        assert!(rejection.witness().is_some());
        assert!(rejection.to_string().contains("rejected"));
        assert!(matches!(rejection.underlying(), OpValue::Int(_)));
    }

    #[test]
    fn stale_register_reads_are_rejected_with_the_stale_value_attached() {
        let monitor = Monitor::builder(RegisterSpec::new())
            .processes(1)
            .build(StaleRegister::new(2));
        let session = monitor.register().unwrap();
        session.write(1).unwrap();
        session.write(2).unwrap();
        let mut saw_rejection = false;
        for _ in 0..4 {
            if session.read().is_err() {
                saw_rejection = true;
            }
        }
        assert!(saw_rejection, "stale read was never rejected");
    }

    #[test]
    fn staged_phases_compose_like_apply() {
        use linrv_spec::typed::queue::{Dequeue, Enqueue};
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(2)
            .build(MsQueue::new());
        let producer = monitor.register().unwrap();
        let consumer = monitor.register().unwrap();

        // Announce the dequeue before the enqueue runs: in the sketch the two
        // operations overlap, so the early dequeue of 1 is enforced correct.
        let staged_deq = consumer.stage(Dequeue);
        let staged_enq = producer.stage(Enqueue(1));
        let exec_enq = producer.execute(staged_enq);
        let exec_deq = consumer.execute(staged_deq);
        producer.commit(exec_enq).unwrap();
        let got = consumer.commit(exec_deq).unwrap();
        assert!(got.is_none() || got == Some(1));
        assert!(monitor.check().is_correct());
    }

    #[test]
    fn abandoning_a_staged_operation_retires_the_slot() {
        use linrv_spec::typed::queue::{Dequeue, Enqueue};
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(2)
            .build(MsQueue::new());
        let crasher = monitor.register().unwrap();
        let _abandoned = crasher.stage(Dequeue);
        drop(crasher);
        // The crashed process's slot is retired, not recycled: its announcement
        // can never be withdrawn, so a new session on the same slot would have an
        // ill-formed history.
        assert_eq!(monitor.registered(), 1);
        let healthy = monitor.register().expect("the other slot is free");
        assert_ne!(healthy.slot(), 0, "slot 0 must stay retired");
        // The healthy session keeps verifying correctly: the abandoned operation
        // is merely pending in the sketch (Figure 9), not a violation.
        healthy
            .apply(Enqueue(1))
            .expect("correct queue, no false alarm");
        assert!(monitor.check().is_correct());
        assert!(monitor.register().is_err(), "both slots accounted for");
    }

    #[test]
    #[should_panic(expected = "process sequentiality violated")]
    fn staging_twice_without_committing_panics() {
        use linrv_spec::typed::queue::Dequeue;
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(1)
            .build(MsQueue::new());
        let session = monitor.register().unwrap();
        let _first = session.stage(Dequeue);
        let _second = session.stage(Dequeue);
    }

    /// `execute` used to check the monitor brand only: the operation of
    /// another session ran on the wrapped object before `commit` refused it.
    #[test]
    fn executing_another_sessions_operation_fails_before_the_underlying_call() {
        use linrv_spec::typed::queue::Enqueue;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(2)
            .build(MsQueue::new());
        let a = monitor.register().unwrap();
        let b = monitor.register().unwrap();
        let staged = a.stage(Enqueue(7));
        let misuse = catch_unwind(AssertUnwindSafe(|| b.execute(staged)));
        let message = *misuse
            .expect_err("b does not own a's operation")
            .downcast::<String>()
            .expect("assert message");
        assert!(
            message.contains("staged by a different session"),
            "{message}"
        );
        // No side effect on the wrapped queue, and `b` is still usable.
        assert_eq!(b.dequeue().unwrap(), None);
    }

    #[test]
    fn apply_raw_is_the_untyped_escape_hatch() {
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(1)
            .build(MsQueue::new());
        let session = monitor.register().unwrap();
        let response = session.apply_raw(&Operation::new("Enqueue", OpValue::Int(3)));
        assert!(response.is_verified());
        assert_eq!(response.value, OpValue::Bool(true));
        assert_eq!(session.slot(), 0);
    }
}
