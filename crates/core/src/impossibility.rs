//! An executable rendition of the impossibility argument (Theorem 5.1, Figure 4).
//!
//! The theorem: no wait-free verifier can distributed-runtime verify linearizability
//! for common objects (queues, stacks, …), regardless of the consensus power of its
//! base objects. The proof exhibits two executions `E` and `F` of any candidate
//! verifier with the adversarial queue implementation `A` of
//! [`Theorem51Queue`]:
//!
//! * in `E`, process `p_2`'s `Dequeue():1` *completes before* `p_1`'s `Enqueue(1)`
//!   starts — the history of `A` is **not** linearizable;
//! * in `F`, the two local call events occur in the opposite order — the history **is**
//!   linearizable;
//! * every step a verifier can take (announcing in shared memory before calling `A`,
//!   encoding the response afterwards, reading the shared memory) observes exactly the
//!   same values in both executions, so the processes traverse identical local-state
//!   sequences and must output identically — contradicting either soundness (if they
//!   report ERROR) or completeness (if they do not).
//!
//! [`theorem51_demo`] constructs both executions concretely, using the generic-verifier
//! step structure of Figure 2, and exposes predicates for each leg of the argument. The
//! integration tests and `examples/impossibility.rs` assert all three.

use linrv_history::{History, HistoryBuilder, OpValue, ProcessId};
use linrv_runtime::faulty::Theorem51Queue;
use linrv_runtime::ConcurrentObject;
use linrv_spec::ops::queue;

/// What one process of the generic verifier (Figure 2) observes during the execution:
/// the responses it obtained from `A` and the detected history it reads back from the
/// shared memory in Line 09.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessObservation {
    /// The observing process.
    pub process: ProcessId,
    /// Responses this process obtained from `A`, in order.
    pub responses: Vec<OpValue>,
    /// The detected history the process reads from the shared memory after its
    /// operations (the best information any verifier can gather).
    pub detected: History,
}

/// The two executions of the impossibility proof plus what the verifier processes
/// observe in each.
#[derive(Debug, Clone)]
pub struct ImpossibilityDemo {
    /// The actual history of `A` in execution `E` (dequeue completes first) — not
    /// linearizable.
    pub history_e: History,
    /// The actual history of `A` in execution `F` (enqueue completes first) —
    /// linearizable.
    pub history_f: History,
    /// Per-process observations in execution `E`.
    pub observations_e: Vec<ProcessObservation>,
    /// Per-process observations in execution `F`.
    pub observations_f: Vec<ProcessObservation>,
}

impl ImpossibilityDemo {
    /// The indistinguishability leg: every process observes exactly the same thing in
    /// `E` and in `F`, so any verifier makes identical decisions in both.
    pub fn executions_are_indistinguishable(&self) -> bool {
        self.observations_e == self.observations_f
    }

    /// The completeness leg: the history of `A` in `E` violates linearizability, so a
    /// complete verifier must report ERROR in `E` (hence, by indistinguishability, also
    /// in `F`).
    pub fn e_violates_linearizability(&self) -> bool {
        use linrv_check::{GenLinObject, StrategyChecker};
        !StrategyChecker::new(linrv_spec::QueueSpec::new()).contains(&self.history_e)
    }

    /// The soundness leg: the history of `A` in `F` is linearizable, so a sound
    /// verifier must not report ERROR in `F` (hence, by indistinguishability, neither
    /// in `E`). Together with [`ImpossibilityDemo::e_violates_linearizability`] this
    /// contradicts the existence of the verifier.
    pub fn f_is_linearizable(&self) -> bool {
        use linrv_check::{GenLinObject, StrategyChecker};
        StrategyChecker::new(linrv_spec::QueueSpec::new()).contains(&self.history_f)
    }
}

/// Builds the `E`/`F` pair of Figure 4 for the two-process case.
pub fn theorem51_demo() -> ImpossibilityDemo {
    let p1 = ProcessId::new(0);
    let p2 = ProcessId::new(1);

    // The detected history is the same in both executions: both operations are
    // announced before either is called (Lines 03–05 of Figure 2 run first for p2, then
    // for p1), and both responses are encoded afterwards (Lines 08–12, p2 then p1).
    // Inside the shared memory the two operations therefore appear to overlap.
    let detected = {
        let mut b = HistoryBuilder::new();
        let deq = b.invoke(p2, queue::dequeue());
        let enq = b.invoke(p1, queue::enqueue(1));
        b.respond(deq, OpValue::Int(1));
        b.respond(enq, OpValue::Bool(true));
        b.build()
    };

    // The same operation identifiers are used in both executions so that equivalence
    // (which compares per-process event sequences) is meaningful.
    let enq_id = linrv_history::OpId::new(0);
    let deq_id = linrv_history::OpId::new(1);

    // Execution E: p2's call to A (Lines 06–07) happens entirely before p1's call.
    let history_e = {
        let queue_a = Theorem51Queue::new(p2);
        let mut b = HistoryBuilder::new();
        b.invoke_with_id(p2, deq_id, queue::dequeue());
        let deq_resp = queue_a.apply(p2, &queue::dequeue());
        b.respond(deq_id, deq_resp.clone());
        b.invoke_with_id(p1, enq_id, queue::enqueue(1));
        let enq_resp = queue_a.apply(p1, &queue::enqueue(1));
        b.respond(enq_id, enq_resp);
        debug_assert_eq!(deq_resp, OpValue::Int(1));
        b.build()
    };

    // Execution F: the calls to A happen in the opposite order. The adversarial A still
    // gives p2's first dequeue the response 1, so every process obtains the same
    // responses as in E.
    let history_f = {
        let queue_a = Theorem51Queue::new(p2);
        let mut b = HistoryBuilder::new();
        b.invoke_with_id(p1, enq_id, queue::enqueue(1));
        let enq_resp = queue_a.apply(p1, &queue::enqueue(1));
        b.respond(enq_id, enq_resp);
        b.invoke_with_id(p2, deq_id, queue::dequeue());
        let deq_resp = queue_a.apply(p2, &queue::dequeue());
        b.respond(deq_id, deq_resp);
        b.build()
    };

    let observe = |detected: &History| -> Vec<ProcessObservation> {
        vec![
            ProcessObservation {
                process: p1,
                responses: vec![OpValue::Bool(true)],
                detected: detected.clone(),
            },
            ProcessObservation {
                process: p2,
                responses: vec![OpValue::Int(1)],
                detected: detected.clone(),
            },
        ]
    };

    ImpossibilityDemo {
        history_e,
        history_f,
        observations_e: observe(&detected),
        observations_f: observe(&detected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_legs_of_the_argument_hold() {
        let demo = theorem51_demo();
        assert!(demo.executions_are_indistinguishable());
        assert!(demo.e_violates_linearizability());
        assert!(demo.f_is_linearizable());
    }

    #[test]
    fn e_and_f_differ_only_in_real_time_order() {
        let demo = theorem51_demo();
        // Same per-process behaviour (the histories are equivalent)…
        assert!(demo.history_e.equivalent(&demo.history_f));
        // …but different global event order, which no process can observe.
        assert_ne!(demo.history_e.events(), demo.history_f.events());
    }

    #[test]
    fn detected_history_is_linearizable_in_both() {
        use linrv_check::{GenLinObject, LinSpec};
        let demo = theorem51_demo();
        for obs in demo.observations_e.iter().chain(&demo.observations_f) {
            assert!(LinSpec::new(linrv_spec::QueueSpec::new()).contains(&obs.detected));
        }
    }
}
