//! Set-linearizability membership.
//!
//! Set-linearizability (Neiger, cited as \[81\] in the paper) generalises linearizability
//! by letting a *set* of mutually concurrent operations take effect simultaneously: a
//! set-linearization is a sequence of non-empty *concurrency classes*; the object's
//! transition function consumes a whole class at a time. Linearizability is the special
//! case where every class is a singleton. Like linearizability, set-linearizability is
//! prefix- and similarity-closed, hence belongs to `GenLin` (Section 7.1).

use crate::genlin::GenLinObject;
use crate::witness::{Verdict, Violation};
use linrv_history::{History, OpRecord, OpValue, Operation};
use linrv_spec::SequentialSpec;
use std::collections::HashSet;

/// A set-sequential specification: a state machine whose transition function consumes a
/// non-empty *batch* of operations that take effect simultaneously.
pub trait SetSequentialSpec: Send + Sync {
    /// State of the machine.
    type State: Clone + Eq + std::hash::Hash + std::fmt::Debug + Send + Sync;

    /// Initial state.
    fn initial_state(&self) -> Self::State;

    /// Applies a non-empty batch of operations simultaneously. Returns the successor
    /// state and one response per operation (in batch order), or `None` when the batch
    /// is not allowed in `state`.
    fn step_batch(
        &self,
        state: &Self::State,
        batch: &[Operation],
    ) -> Option<(Self::State, Vec<OpValue>)>;

    /// Human-readable name of the object.
    fn name(&self) -> String;
}

/// Adapter: any sequential specification is a set-sequential specification whose only
/// allowed batches are singletons. Set-linearizability then coincides with
/// linearizability, which the tests use as a cross-check.
#[derive(Debug, Clone)]
pub struct Singletons<S>(pub S);

impl<S: SequentialSpec> SetSequentialSpec for Singletons<S> {
    type State = S::State;

    fn initial_state(&self) -> Self::State {
        self.0.initial_state()
    }

    fn step_batch(
        &self,
        state: &Self::State,
        batch: &[Operation],
    ) -> Option<(Self::State, Vec<OpValue>)> {
        if batch.len() != 1 {
            return None;
        }
        let successors = self.0.step(state, &batch[0]).ok()?;
        successors
            .into_iter()
            .next()
            .map(|(next, response)| (next, vec![response]))
    }

    fn name(&self) -> String {
        format!("{} (singleton batches)", self.0.kind())
    }
}

/// The classic set-linearizable counter: concurrent `Inc` operations may be merged into
/// one concurrency class; every `Inc` of the class returns the counter value *before*
/// the class and the counter then grows by the class size. `Read` operations in a class
/// also return the pre-class value.
///
/// This object is set-linearizable but **not** linearizable for histories where two
/// overlapping `Inc`s both return the same value — the canonical separation example.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetLinCounterSpec;

impl SetLinCounterSpec {
    /// Creates the specification.
    pub fn new() -> Self {
        SetLinCounterSpec
    }
}

impl SetSequentialSpec for SetLinCounterSpec {
    type State = i64;

    fn initial_state(&self) -> Self::State {
        0
    }

    fn step_batch(
        &self,
        state: &Self::State,
        batch: &[Operation],
    ) -> Option<(Self::State, Vec<OpValue>)> {
        let mut increments = 0i64;
        let mut responses = Vec::with_capacity(batch.len());
        for op in batch {
            match op.kind.as_str() {
                "Inc" => {
                    increments += 1;
                    responses.push(OpValue::Int(*state));
                }
                "Read" => responses.push(OpValue::Int(*state)),
                _ => return None,
            }
        }
        Some((*state + increments, responses))
    }

    fn name(&self) -> String {
        "set-linearizable counter".into()
    }
}

/// Largest concurrency class the search will try. Classes larger than this bound are
/// never proposed, which keeps the subset enumeration tractable; histories needing
/// larger classes are (conservatively) rejected.
const MAX_CLASS_SIZE: usize = 8;

/// Set-linearizability with respect to a set-sequential specification, as an abstract
/// object (the set of all finite histories that are set-linearizable w.r.t. the spec).
pub struct SetLinSpec<S> {
    spec: S,
}

impl<S: SetSequentialSpec> SetLinSpec<S> {
    /// Creates the checker; concurrency classes hold at most 8 operations.
    pub fn new(spec: S) -> Self {
        SetLinSpec { spec }
    }

    /// Decides set-linearizability of `history`.
    pub fn check(&self, history: &History) -> Verdict {
        let (records, well_formed) = history.index();
        if let Err(err) = well_formed {
            return Verdict::NotMember {
                violation: Violation::new(
                    history.clone(),
                    format!("history is not well formed: {err}"),
                ),
            };
        }
        let complete_count = records.iter().filter(|r| r.is_complete()).count();
        let mut memo = HashSet::new();
        let mut linearized = vec![false; records.len()];
        if self.dfs(
            &records,
            &mut linearized,
            self.spec.initial_state(),
            complete_count,
            0,
            &mut memo,
        ) {
            Verdict::Member {
                linearization: None,
            }
        } else {
            Verdict::NotMember {
                violation: Violation::new(
                    history.clone(),
                    format!("no set-linearization w.r.t. {} exists", self.spec.name()),
                ),
            }
        }
    }

    fn dfs(
        &self,
        records: &[OpRecord],
        linearized: &mut Vec<bool>,
        state: S::State,
        complete_count: usize,
        done_complete: usize,
        memo: &mut HashSet<(Vec<bool>, S::State)>,
    ) -> bool {
        if done_complete == complete_count {
            return true;
        }
        if !memo.insert((linearized.clone(), state.clone())) {
            return false;
        }
        // Candidates: operations every one of whose real-time predecessors is linearized.
        let candidates: Vec<usize> = (0..records.len())
            .filter(|&i| !linearized[i] && self.is_minimal(records, linearized, i))
            .collect();
        if candidates.is_empty() {
            return false;
        }
        // Enumerate the non-empty subsets of the candidates up to the bound, smallest
        // first, and try each as the next concurrency class.
        let classes = (1..=candidates.len().min(MAX_CLASS_SIZE))
            .flat_map(|size| combinations(&candidates, size));
        for class in classes {
            // The whole class must be mutually concurrent in the history: no member may
            // really precede another member.
            if !self.mutually_concurrent(records, &class) {
                continue;
            }
            let ops: Vec<Operation> = class
                .iter()
                .map(|&i| records[i].operation.clone())
                .collect();
            let Some((next_state, responses)) = self.spec.step_batch(&state, &ops) else {
                continue;
            };
            // Complete operations must reproduce their recorded response.
            let matches = class.iter().zip(&responses).all(|(&i, response)| {
                records[i]
                    .response
                    .as_ref()
                    .map(|r| r == response)
                    .unwrap_or(true)
            });
            if !matches {
                continue;
            }
            for &i in &class {
                linearized[i] = true;
            }
            let newly_complete = class.iter().filter(|&&i| records[i].is_complete()).count();
            if self.dfs(
                records,
                linearized,
                next_state,
                complete_count,
                done_complete + newly_complete,
                memo,
            ) {
                return true;
            }
            for &i in &class {
                linearized[i] = false;
            }
        }
        false
    }

    fn is_minimal(&self, records: &[OpRecord], linearized: &[bool], i: usize) -> bool {
        let op = &records[i];
        records.iter().enumerate().all(|(j, other)| {
            if linearized[j] || j == i {
                return true;
            }
            match other.response_index {
                Some(res) => res > op.invocation_index,
                None => true,
            }
        })
    }

    fn mutually_concurrent(&self, records: &[OpRecord], class: &[usize]) -> bool {
        class.iter().all(|&i| {
            class.iter().all(|&j| {
                if i == j {
                    return true;
                }
                match records[i].response_index {
                    Some(res) => res > records[j].invocation_index,
                    None => true,
                }
            })
        })
    }
}

/// The `size`-element subsets of `items`, in lexicographic order of their positions.
fn combinations(items: &[usize], size: usize) -> impl Iterator<Item = Vec<usize>> + '_ {
    let mut pick: Option<Vec<usize>> = Some((0..size).collect());
    std::iter::from_fn(move || {
        let positions = pick.as_mut()?;
        let subset = positions.iter().map(|&k| items[k]).collect();
        // Advance: bump the last position that can still move right and pack the
        // ones after it behind it; none can move once the subset is the last one.
        let movable = (0..size)
            .rev()
            .find(|&k| positions[k] < items.len() - size + k);
        match movable {
            Some(k) => {
                positions[k] += 1;
                for j in k + 1..size {
                    positions[j] = positions[j - 1] + 1;
                }
            }
            None => pick = None,
        }
        Some(subset)
    })
}

impl<S: SetSequentialSpec> GenLinObject for SetLinSpec<S> {
    fn contains(&self, history: &History) -> bool {
        !self.check(history).is_violation()
    }

    fn description(&self) -> String {
        format!("set-linearizability w.r.t. {}", self.spec.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearizability::LinSpec;
    use linrv_history::{HistoryBuilder, ProcessId};
    use linrv_spec::ops::counter as ops;
    use linrv_spec::CounterSpec;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Two overlapping Incs that both return 0: set-linearizable (one class of two
    /// Incs) but not linearizable.
    fn merged_increments() -> History {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::inc());
        let c = b.invoke(p(1), ops::inc());
        b.respond(a, OpValue::Int(0));
        b.respond(c, OpValue::Int(0));
        let r = b.invoke(p(0), ops::read());
        b.respond(r, OpValue::Int(2));
        b.build()
    }

    #[test]
    fn merged_increments_are_set_linearizable_but_not_linearizable() {
        let h = merged_increments();
        let setlin = SetLinSpec::new(SetLinCounterSpec::new());
        let lin = LinSpec::new(CounterSpec::new());
        assert!(setlin.contains(&h));
        assert!(!lin.contains(&h));
    }

    #[test]
    fn sequential_increments_are_both() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::inc(), OpValue::Int(0));
        b.complete(p(1), ops::inc(), OpValue::Int(1));
        b.complete(p(0), ops::read(), OpValue::Int(2));
        let h = b.build();
        assert!(SetLinSpec::new(SetLinCounterSpec::new()).contains(&h));
        assert!(LinSpec::new(CounterSpec::new()).contains(&h));
    }

    #[test]
    fn non_overlapping_increments_cannot_be_merged() {
        // Inc():0 completes before the second Inc starts, yet the second also returns 0.
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::inc(), OpValue::Int(0));
        b.complete(p(1), ops::inc(), OpValue::Int(0));
        let h = b.build();
        assert!(!SetLinSpec::new(SetLinCounterSpec::new()).contains(&h));
    }

    #[test]
    fn singleton_adapter_matches_linearizability() {
        use linrv_spec::ops::queue;
        use linrv_spec::QueueSpec;
        // Linearizable queue history.
        let mut b = HistoryBuilder::new();
        let e = b.invoke(p(0), queue::enqueue(1));
        let d = b.invoke(p(1), queue::dequeue());
        b.respond(d, OpValue::Int(1));
        b.respond(e, OpValue::Bool(true));
        let good = b.build();
        // Non-linearizable queue history.
        let mut b = HistoryBuilder::new();
        let d = b.invoke(p(1), queue::dequeue());
        b.respond(d, OpValue::Int(1));
        let e = b.invoke(p(0), queue::enqueue(1));
        b.respond(e, OpValue::Bool(true));
        let bad = b.build();

        let setlin = SetLinSpec::new(Singletons(QueueSpec::new()));
        let lin = LinSpec::new(QueueSpec::new());
        assert_eq!(setlin.contains(&good), lin.contains(&good));
        assert_eq!(setlin.contains(&bad), lin.contains(&bad));
        assert!(setlin.contains(&good));
        assert!(!setlin.contains(&bad));
    }

    #[test]
    fn pending_operations_are_optional() {
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p(0), ops::inc());
        b.respond(a, OpValue::Int(0));
        b.invoke(p(1), ops::inc()); // pending
        let h = b.build();
        assert!(SetLinSpec::new(SetLinCounterSpec::new()).contains(&h));
    }

    /// 21 overlapping Incs: the last one invoked returns 0 and the others 1..=20, so
    /// the only (set-)linearization starts with the 21st candidate as a singleton.
    #[test]
    fn a_class_may_start_with_any_of_more_than_twenty_candidates() {
        let mut b = HistoryBuilder::new();
        let incs: Vec<_> = (0..21).map(|i| b.invoke(p(i), ops::inc())).collect();
        for (i, &inc) in incs.iter().enumerate() {
            b.respond(inc, OpValue::Int((i as i64 + 1) % 21));
        }
        let h = b.build();
        assert!(LinSpec::new(CounterSpec::new()).contains(&h));
        assert!(SetLinSpec::new(SetLinCounterSpec::new()).contains(&h));
    }

    #[test]
    fn description_and_malformed_histories() {
        let checker = SetLinSpec::new(SetLinCounterSpec::new());
        assert!(checker.description().contains("set-linearizability"));
        let mut h = History::new();
        h.push(linrv_history::Event::response(
            p(0),
            linrv_history::OpId::new(0),
            OpValue::Unit,
        ));
        assert!(checker.check(&h).is_violation());
    }
}
