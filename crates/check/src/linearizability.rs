//! Linearizability membership (Definition 4.2), decided with a Wing–Gong search plus
//! Lowe-style memoisation.
//!
//! Given a finite history `E` and a sequential specification `O`, the checker decides
//! whether there is an extension `E'` of `E` and a sequential history `S` of `O` such
//! that `comp(E')` and `S` are equivalent and `<_{comp(E')} ⊆ <_S`.
//!
//! The search linearizes operations one at a time. An operation may be chosen next when
//! every *complete* operation that precedes it in real time has already been
//! linearized. Complete operations must reproduce their recorded response; pending
//! operations may be linearized with any response allowed by the specification (this
//! realises the extension `E'`), or never linearized at all (this realises `comp(·)`).
//!
//! Deciding linearizability of a finite history is NP-complete in general
//! (Gibbons & Korach), so the search is exponential in the worst case; memoisation of
//! visited `(linearized-set, specification-state)` pairs — Lowe's optimisation — keeps
//! the common cases fast.

use crate::genlin::GenLinObject;
use crate::specialized::Settled;
use crate::witness::{SearchFrontier, Verdict, Violation};
use linrv_history::{History, HistoryBuilder, OpRecord, OpTable, OpValue, WellFormedError};
use linrv_spec::SequentialSpec;
use std::collections::HashSet;

/// Linearizability with respect to a sequential specification, as an abstract object:
/// the set of all finite histories linearizable with respect to `S` (Remark 7.1).
///
/// By Lemma 7.1 this object is prefix- and similarity-closed, hence a member of
/// `GenLin`; it is the object handed to the verifier and to self-enforced
/// implementations for ordinary sequential objects.
#[derive(Debug, Clone)]
pub struct LinSpec<S> {
    spec: S,
}

impl<S: SequentialSpec> LinSpec<S> {
    /// Wraps a sequential specification.
    pub fn new(spec: S) -> Self {
        LinSpec { spec }
    }

    /// The underlying sequential specification.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// Decides linearizability of `history`, returning a linearization or a violation
    /// witness.
    pub fn check(&self, history: &History) -> Verdict {
        let (records, well_formed) = history.index();
        self.decide(history, &records, well_formed)
    }

    /// [`Self::check`] over the operation table and well-formedness of `history`,
    /// as [`History::index`] returns them, for a caller that already indexed it.
    pub(crate) fn decide(
        &self,
        history: &History,
        records: &[OpRecord],
        well_formed: Result<(), WellFormedError>,
    ) -> Verdict {
        if let Err(err) = well_formed {
            return Verdict::NotMember {
                violation: Violation::new(
                    history.clone(),
                    format!("history is not well formed: {err}"),
                ),
            };
        }
        if records.is_empty() {
            return Verdict::Member {
                linearization: Some(History::new()),
            };
        }

        let search = Search::new(&self.spec, records);
        match search.run() {
            SearchOutcome::Found(order) => {
                let linearization = build_linearization(records, &order);
                Verdict::Member {
                    linearization: Some(linearization),
                }
            }
            SearchOutcome::Exhausted(frontier) => Verdict::NotMember {
                violation: Violation::new(
                    history.clone(),
                    format!(
                        "no linearization with respect to the {} specification exists ({frontier})",
                        self.spec.kind()
                    ),
                )
                .with_frontier(frontier),
            },
        }
    }
}

impl<S: SequentialSpec> GenLinObject for LinSpec<S> {
    fn contains(&self, history: &History) -> bool {
        !self.check(history).is_violation()
    }

    fn contains_settled(&self, history: &History, table: &OpTable, _: &Settled) -> bool {
        !self
            .decide(history, table.records(), table.well_formed())
            .is_violation()
    }

    fn description(&self) -> String {
        format!("linearizability w.r.t. the {} object", self.spec.kind())
    }
}

/// Reconstructs the sequential history from the chosen linearization order.
fn build_linearization(records: &[OpRecord], order: &[(usize, OpValue)]) -> History {
    let mut builder = HistoryBuilder::new();
    for (index, response) in order {
        let record = &records[*index];
        builder.invoke_with_id(record.process, record.id, record.operation.clone());
        builder.respond(record.id, response.clone());
    }
    builder.build()
}

enum SearchOutcome {
    /// A linearization was found: the operations in order, with their responses.
    Found(Vec<(usize, OpValue)>),
    /// The whole search space was explored without success; the frontier
    /// records the deepest prefix reached.
    Exhausted(SearchFrontier),
}

/// Compact set of operation indices, hashable for memoisation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }
}

struct Search<'a, S: SequentialSpec> {
    spec: &'a S,
    /// In invocation order.
    records: &'a [OpRecord],
    /// Indices of the complete records, in response order.
    by_response: Vec<usize>,
}

impl<'a, S: SequentialSpec> Search<'a, S> {
    fn new(spec: &'a S, records: &'a [OpRecord]) -> Self {
        let mut by_response: Vec<usize> = (0..records.len())
            .filter(|&i| records[i].is_complete())
            .collect();
        by_response.sort_by_key(|&i| records[i].response_index);
        Search {
            spec,
            records,
            by_response,
        }
    }

    fn run(&self) -> SearchOutcome {
        let n = self.records.len();
        let mut linearized = BitSet::new(n);
        let mut path: Vec<(usize, OpValue)> = Vec::new();
        let mut memo: HashSet<(BitSet, S::State)> = HashSet::new();
        let mut explored: usize = 0;
        let mut deepest: Vec<usize> = Vec::new();
        let complete_count = self.records.iter().filter(|r| r.is_complete()).count();

        let found = self.dfs(
            &mut linearized,
            self.spec.initial_state(),
            &mut path,
            &mut memo,
            &mut explored,
            complete_count,
            0,
            &mut deepest,
        );
        if found {
            SearchOutcome::Found(path)
        } else {
            SearchOutcome::Exhausted(SearchFrontier {
                linearized: deepest.iter().map(|&i| self.records[i].id).collect(),
                total_complete: complete_count,
                explored,
            })
        }
    }

    /// Depth-first search. Returns `true` when a linearization was completed, `false`
    /// when this subtree holds none.
    ///
    /// `deepest` tracks the longest linearized prefix reached anywhere in the
    /// search — the frontier reported when the search exhausts.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        linearized: &mut BitSet,
        state: S::State,
        path: &mut Vec<(usize, OpValue)>,
        memo: &mut HashSet<(BitSet, S::State)>,
        explored: &mut usize,
        complete_count: usize,
        linearized_complete: usize,
        deepest: &mut Vec<usize>,
    ) -> bool {
        if linearized_complete == complete_count {
            return true;
        }
        *explored += 1;
        if !memo.insert((linearized.clone(), state.clone())) {
            return false;
        }

        // The horizon: the earliest response among the complete records not yet
        // linearized (one exists, or the search would have returned above). A record
        // invoked before it is minimal, since every such response comes later; one
        // invoked after it is not, since the record responding there precedes it.
        let horizon = self
            .by_response
            .iter()
            .find(|&&j| !linearized.contains(j))
            .and_then(|&j| self.records[j].response_index)
            .expect("a complete record is not yet linearized");
        for (i, record) in self.records.iter().enumerate() {
            if record.invocation_index > horizon {
                break;
            }
            if linearized.contains(i) {
                continue;
            }
            debug_assert!(self.is_minimal(linearized, record));
            let successors = match self.spec.step(&state, &record.operation) {
                Ok(successors) => successors,
                Err(_) => continue, // operation outside the interface can never linearize
            };
            for (next_state, response) in successors {
                // Complete operations must reproduce their recorded response; pending
                // operations accept any response allowed by the specification.
                if let Some(actual) = &record.response {
                    if *actual != response {
                        continue;
                    }
                }
                linearized.insert(i);
                path.push((i, response));
                if path.len() > deepest.len() {
                    *deepest = path.iter().map(|&(index, _)| index).collect();
                }
                let next_complete = linearized_complete + usize::from(record.is_complete());
                if self.dfs(
                    linearized,
                    next_state,
                    path,
                    memo,
                    explored,
                    complete_count,
                    next_complete,
                    deepest,
                ) {
                    return true;
                }
                path.pop();
                linearized.remove(i);
            }
        }
        false
    }

    /// An operation may be linearized next when every complete operation that precedes
    /// it in real time (`res(other)` before `inv(op)`) is already linearized. The
    /// horizon in `dfs` decides the same in `O(1)` per record; this `O(t)`
    /// definition is its debug assertion.
    fn is_minimal(&self, linearized: &BitSet, op: &OpRecord) -> bool {
        self.records.iter().enumerate().all(|(j, other)| {
            if linearized.contains(j) || other.id == op.id {
                return true;
            }
            match other.response_index {
                Some(res) => res > op.invocation_index,
                None => true,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_history::{HistoryBuilder, Operation, ProcessId};
    use linrv_spec::ops::{queue, stack};
    use linrv_spec::{QueueSpec, RegisterSpec, StackSpec};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Figure 1 (top): p1 Push(1):true and p2 Pop():1 overlap — linearizable.
    #[test]
    fn figure1_top_is_linearizable() {
        let mut b = HistoryBuilder::new();
        let push = b.invoke(p(0), stack::push(1));
        let pop = b.invoke(p(1), stack::pop());
        b.respond(pop, OpValue::Int(1));
        b.respond(push, OpValue::Bool(true));
        let object = LinSpec::new(StackSpec::new());
        let verdict = object.check(&b.build());
        assert!(verdict.is_member());
        let lin = verdict.linearization().unwrap();
        assert!(StackSpec::new().accepts_sequential_history(lin));
    }

    /// Figure 1 (bottom): Pop():1 completes strictly before Push(1) starts — not
    /// linearizable even though per-process views match the top history.
    #[test]
    fn figure1_bottom_is_not_linearizable() {
        let mut b = HistoryBuilder::new();
        let pop = b.invoke(p(1), stack::pop());
        b.respond(pop, OpValue::Int(1));
        let push = b.invoke(p(0), stack::push(1));
        b.respond(push, OpValue::Bool(true));
        let object = LinSpec::new(StackSpec::new());
        assert!(object.check(&b.build()).is_violation());
    }

    /// Figure 3 (top): three-process stack history with the linearization
    /// ⟨Push(2)⟩⟨Push(1)⟩⟨Pop():1⟩⟨Pop():2⟩.
    #[test]
    fn figure3_top_is_linearizable() {
        // p1: |-- Push(1):true --|        |-- Pop():2 --|
        // p2:     |------- Pop():1 -------|
        // p3:  |-- Push(2):true --|
        let mut b = HistoryBuilder::new();
        let push1 = b.invoke(p(0), stack::push(1));
        let push2 = b.invoke(p(2), stack::push(2));
        let pop1 = b.invoke(p(1), stack::pop());
        b.respond(push1, OpValue::Bool(true));
        b.respond(push2, OpValue::Bool(true));
        b.respond(pop1, OpValue::Int(1));
        let pop2 = b.invoke(p(0), stack::pop());
        b.respond(pop2, OpValue::Int(2));
        let object = LinSpec::new(StackSpec::new());
        assert!(object.check(&b.build()).is_member());
    }

    /// Figure 3 (bottom): Pop():empty cannot start when the stack is provably
    /// non-empty — not linearizable.
    #[test]
    fn figure3_bottom_is_not_linearizable() {
        // p1 pushes 1 and it completes; later p2 pops empty while only pushes happened.
        let mut b = HistoryBuilder::new();
        let push1 = b.invoke(p(0), stack::push(1));
        b.respond(push1, OpValue::Bool(true));
        let push2 = b.invoke(p(2), stack::push(2));
        b.respond(push2, OpValue::Bool(true));
        let pop_empty = b.invoke(p(1), stack::pop());
        b.respond(pop_empty, OpValue::Empty);
        let pop1 = b.invoke(p(0), stack::pop());
        b.respond(pop1, OpValue::Int(1));
        let object = LinSpec::new(StackSpec::new());
        assert!(object.check(&b.build()).is_violation());
    }

    /// Figure 5 (bottom, actual history): deq():1 completes before enq(1) starts.
    #[test]
    fn queue_dequeue_before_enqueue_is_not_linearizable() {
        let mut b = HistoryBuilder::new();
        let deq = b.invoke(p(1), queue::dequeue());
        b.respond(deq, OpValue::Int(1));
        let enq = b.invoke(p(0), queue::enqueue(1));
        b.respond(enq, OpValue::Bool(true));
        let object = LinSpec::new(QueueSpec::new());
        assert!(object.check(&b.build()).is_violation());
    }

    /// Figure 5 (bottom, detected history): the same operations overlapping are
    /// linearizable — the "stretched" sketch hides the violation.
    #[test]
    fn queue_overlapping_enqueue_dequeue_is_linearizable() {
        let mut b = HistoryBuilder::new();
        let enq = b.invoke(p(0), queue::enqueue(1));
        let deq = b.invoke(p(1), queue::dequeue());
        b.respond(deq, OpValue::Int(1));
        b.respond(enq, OpValue::Bool(true));
        let object = LinSpec::new(QueueSpec::new());
        assert!(object.check(&b.build()).is_member());
    }

    #[test]
    fn pending_operations_may_be_completed_or_dropped() {
        // A pending Enqueue(1) can be linearized to explain a completed Dequeue():1.
        let mut b = HistoryBuilder::new();
        let enq = b.invoke(p(0), queue::enqueue(1));
        let _ = enq;
        let deq = b.invoke(p(1), queue::dequeue());
        b.respond(deq, OpValue::Int(1));
        let object = LinSpec::new(QueueSpec::new());
        let verdict = object.check(&b.build());
        assert!(verdict.is_member());

        // A pending Dequeue() is simply dropped.
        let mut b = HistoryBuilder::new();
        let enq = b.invoke(p(0), queue::enqueue(1));
        b.respond(enq, OpValue::Bool(true));
        b.invoke(p(1), queue::dequeue());
        assert!(object.check(&b.build()).is_member());
    }

    #[test]
    fn empty_history_is_linearizable() {
        let object = LinSpec::new(QueueSpec::new());
        let verdict = object.check(&History::new());
        assert!(verdict.is_member());
        assert!(verdict.linearization().unwrap().is_empty());
    }

    #[test]
    fn malformed_history_is_rejected_with_explanation() {
        let mut h = History::new();
        h.push(linrv_history::Event::response(
            p(0),
            linrv_history::OpId::new(0),
            OpValue::Unit,
        ));
        let object = LinSpec::new(QueueSpec::new());
        let verdict = object.check(&h);
        let violation = verdict.violation().expect("not well formed");
        assert!(violation.explanation.contains("well formed"));
    }

    #[test]
    fn register_new_old_inversion_is_detected() {
        // W(1) completes, then W(2) completes, then a read returns 1: not linearizable.
        use linrv_spec::ops::register as reg;
        let mut b = HistoryBuilder::new();
        let w1 = b.invoke(p(0), reg::write(1));
        b.respond(w1, OpValue::Bool(true));
        let w2 = b.invoke(p(0), reg::write(2));
        b.respond(w2, OpValue::Bool(true));
        let r = b.invoke(p(1), reg::read());
        b.respond(r, OpValue::Int(1));
        let object = LinSpec::new(RegisterSpec::new());
        assert!(object.check(&b.build()).is_violation());
    }

    #[test]
    fn unknown_operations_make_history_non_linearizable() {
        let mut b = HistoryBuilder::new();
        let op = b.invoke(p(0), Operation::nullary("Frobnicate"));
        b.respond(op, OpValue::Unit);
        let object = LinSpec::new(QueueSpec::new());
        assert!(object.check(&b.build()).is_violation());
    }

    #[test]
    fn genlin_description_names_the_object() {
        let object = LinSpec::new(QueueSpec::new());
        assert!(object.description().contains("queue"));
    }
}
