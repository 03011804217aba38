//! One-shot tasks and their runtime-verifiable abstract objects (Section 9.3).
//!
//! A *task* is a one-shot distributed problem: every process invokes exactly one
//! operation, proposing an input, and must produce an output such that the global
//! input/output assignment satisfies the task's relation. The paper notes that any task
//! can be modelled as a one-shot interval-sequential object, which belongs to `GenLin`,
//! and hence task solvability can be predictively runtime verified; the only difference
//! is that the interaction is finite.
//!
//! [`OneShotTaskObject`] turns a [`Task`] into a [`GenLinObject`]: a history is a
//! member when every process performs at most one operation and the outputs produced
//! so far are consistent with the task relation, taking *participation* into account —
//! an output may only depend on inputs of operations that did not start strictly after
//! it (the real-time "validity" the paper's views mechanism is designed to catch,
//! cf. the consensus discussion in Section 10).

use crate::genlin::GenLinObject;
use linrv_history::{History, OpValue};
use std::collections::BTreeSet;

/// A one-shot task: a relation between the multiset of proposed inputs and the outputs
/// each participant may produce.
pub trait Task: Send + Sync {
    /// Name of the task (for diagnostics).
    fn name(&self) -> String;

    /// Decides whether the outputs are allowed given the participating inputs.
    ///
    /// `inputs` are the proposals of the processes considered participating;
    /// `outputs` are the values decided so far (one per completed operation).
    fn allowed(&self, inputs: &[i64], outputs: &[i64]) -> bool;
}

/// Consensus as a task: all outputs agree on a single value that is one of the inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsensusTask;

impl Task for ConsensusTask {
    fn name(&self) -> String {
        "consensus".into()
    }

    fn allowed(&self, inputs: &[i64], outputs: &[i64]) -> bool {
        let distinct: BTreeSet<i64> = outputs.iter().copied().collect();
        match distinct.len() {
            0 => true,
            1 => {
                let v = *distinct.iter().next().expect("non-empty");
                inputs.contains(&v)
            }
            _ => false,
        }
    }
}

/// `k`-set agreement: outputs are inputs, and at most `k` distinct values are decided.
#[derive(Debug, Clone, Copy)]
pub struct KSetAgreementTask {
    /// Maximum number of distinct decided values.
    pub k: usize,
}

impl Task for KSetAgreementTask {
    fn name(&self) -> String {
        format!("{}-set agreement", self.k)
    }

    fn allowed(&self, inputs: &[i64], outputs: &[i64]) -> bool {
        let distinct: BTreeSet<i64> = outputs.iter().copied().collect();
        distinct.len() <= self.k && outputs.iter().all(|v| inputs.contains(v))
    }
}

/// A single invocation of a task operation: the proposing process's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskInstance {
    /// The proposed input value.
    pub input: i64,
    /// The decided output, if the operation completed.
    pub output: Option<i64>,
}

/// The abstract object of a one-shot task: the set of histories in which every process
/// proposes at most once and the decided outputs are consistent with the task relation
/// over the *participating* inputs.
///
/// Participation is computed per output: the inputs available to an output are those of
/// operations that do not start strictly after the output's operation responds
/// (formally, inputs of operations `op'` with `¬(op ≺_E op')` where `op` is the
/// responding operation). This makes the object prefix- and similarity-closed, hence a
/// `GenLin` member, while still catching real-time validity violations such as a solo
/// run deciding a value different from its own input.
pub struct OneShotTaskObject<T> {
    task: T,
    /// Name of the single high-level operation of the task (e.g. `"Decide"`).
    operation_kind: String,
}

impl<T: Task> OneShotTaskObject<T> {
    /// Wraps a task whose single operation is named `operation_kind`.
    pub fn new(task: T, operation_kind: impl Into<String>) -> Self {
        OneShotTaskObject {
            task,
            operation_kind: operation_kind.into(),
        }
    }
}

impl<T: Task> GenLinObject for OneShotTaskObject<T> {
    fn contains(&self, history: &History) -> bool {
        let (records, well_formed) = history.index();
        if well_formed.is_err() {
            return false;
        }
        // One-shot: every process invokes at most one operation, of the right kind,
        // with an integer input.
        let mut seen = BTreeSet::new();
        for r in &records {
            if !seen.insert(r.process) {
                return false;
            }
            if r.operation.kind != self.operation_kind {
                return false;
            }
            if r.operation.arg.as_int().is_none() {
                return false;
            }
            if let Some(out) = &r.response {
                if out.as_int().is_none() {
                    return false;
                }
            }
        }
        // For every completed operation, the decided outputs so far must be explainable
        // by the inputs of operations that were invoked no later than that response.
        for r in &records {
            let Some(response_index) = r.response_index else {
                continue;
            };
            let participating: Vec<i64> = records
                .iter()
                .filter(|other| other.invocation_index < response_index)
                .filter_map(|other| other.operation.arg.as_int())
                .collect();
            let outputs: Vec<i64> = records
                .iter()
                .filter(|other| {
                    other
                        .response_index
                        .map(|idx| idx <= response_index)
                        .unwrap_or(false)
                })
                .filter_map(|other| other.response.as_ref().and_then(OpValue::as_int))
                .collect();
            if !self.task.allowed(&participating, &outputs) {
                return false;
            }
        }
        true
    }

    fn description(&self) -> String {
        format!("one-shot task {}", self.task.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{HistoryBuilder, Operation, ProcessId};
    use linrv_spec::ops::consensus as ops;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn consensus_object() -> OneShotTaskObject<ConsensusTask> {
        OneShotTaskObject::new(ConsensusTask, "Decide")
    }

    #[test]
    fn agreeing_outputs_on_a_proposed_value_are_accepted() {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::decide(5));
        let c = b.invoke(p(1), ops::decide(7));
        b.respond(a, OpValue::Int(5));
        b.respond(c, OpValue::Int(5));
        assert!(consensus_object().contains(&b.build()));
    }

    #[test]
    fn disagreement_is_rejected() {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::decide(5));
        let c = b.invoke(p(1), ops::decide(7));
        b.respond(a, OpValue::Int(5));
        b.respond(c, OpValue::Int(7));
        assert!(!consensus_object().contains(&b.build()));
    }

    #[test]
    fn solo_run_must_decide_its_own_input() {
        // Section 10: a solo Decide(3) returning 5 violates validity. Observing only
        // (input, output) pairs cannot catch this; the history (with real-time order)
        // can.
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::decide(3));
        b.respond(a, OpValue::Int(5));
        let c = b.invoke(p(1), ops::decide(5));
        b.respond(c, OpValue::Int(5));
        assert!(!consensus_object().contains(&b.build()));
    }

    #[test]
    fn overlapping_proposer_may_explain_the_decision() {
        // Decide(3) overlaps Decide(5); deciding 5 is then valid.
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::decide(3));
        let c = b.invoke(p(1), ops::decide(5));
        b.respond(a, OpValue::Int(5));
        b.respond(c, OpValue::Int(5));
        assert!(consensus_object().contains(&b.build()));
    }

    #[test]
    fn processes_may_decide_at_most_once() {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::decide(1));
        b.respond(a, OpValue::Int(1));
        let again = b.invoke(p(0), ops::decide(2));
        b.respond(again, OpValue::Int(1));
        assert!(!consensus_object().contains(&b.build()));
    }

    #[test]
    fn wrong_operation_kind_is_rejected() {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), Operation::new("Propose", OpValue::Int(1)));
        b.respond(a, OpValue::Int(1));
        assert!(!consensus_object().contains(&b.build()));
    }

    #[test]
    fn k_set_agreement_allows_up_to_k_values() {
        let object = OneShotTaskObject::new(KSetAgreementTask { k: 2 }, "Decide");
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::decide(1));
        let c = b.invoke(p(1), ops::decide(2));
        let d = b.invoke(p(2), ops::decide(3));
        b.respond(a, OpValue::Int(1));
        b.respond(c, OpValue::Int(2));
        b.respond(d, OpValue::Int(1));
        assert!(object.contains(&b.build()));

        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::decide(1));
        let c = b.invoke(p(1), ops::decide(2));
        let d = b.invoke(p(2), ops::decide(3));
        b.respond(a, OpValue::Int(1));
        b.respond(c, OpValue::Int(2));
        b.respond(d, OpValue::Int(3));
        assert!(!object.contains(&b.build()));
    }

    #[test]
    fn prefixes_of_members_are_members() {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::decide(5));
        let c = b.invoke(p(1), ops::decide(7));
        b.respond(a, OpValue::Int(5));
        b.respond(c, OpValue::Int(5));
        let h = b.build();
        let object = consensus_object();
        assert!(object.contains(&h));
        for prefix in h.prefixes() {
            assert!(object.contains(&prefix), "prefix closure violated");
        }
    }

    #[test]
    fn description_names_the_task() {
        assert!(consensus_object().description().contains("consensus"));
        assert!(OneShotTaskObject::new(KSetAgreementTask { k: 3 }, "Decide")
            .description()
            .contains("3-set"));
    }
}
