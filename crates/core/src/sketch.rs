//! The `X(λ)` construction: from views to the sketch of a tight execution
//! (Section 7.3.3).
//!
//! Given the set `λ` of 4-tuples `(p_i, op_i, y_i, λ_i)` produced by an implementation
//! in the `DRV` class, the construction rebuilds a well-formed history:
//!
//! 1. order the distinct views in strictly ascending containment order
//!    `σ_1 ⊂ σ_2 ⊂ … ⊂ σ_m` (possible by containment comparability, Remark 7.2 (2));
//! 2. for each `σ_k`, first append the invocations of the pairs in `σ_k \ σ_{k-1}`,
//!    then append the responses of the tuples whose view is exactly `σ_k`.
//!
//! Operations that are announced (appear in some view) but have no tuple remain
//! pending. All histories obtainable by permuting events inside a step are equivalent
//! with identical `≺` relations, so `X(λ)` denotes an equivalence class; we return its
//! canonical representative (events within a step are emitted in `BTreeSet` order).
//!
//! `X(λ)` has one representation, that flat [`History`]. It is interval-sequential
//! (Claim 7.2): every step invokes and answers at least one operation, so the
//! history's maximal runs of invocations and of responses are exactly its steps.
//!
//! Lemma 7.4: for a tight execution `E` of `A*`, `X(λ_E)` is equivalent to `E` with
//! `≺_E = ≺_{X(λ_E)}` — i.e. the views are a faithful static encoding of real-time
//! order.
//!
//! # One pass over one ordering
//!
//! Both steps read off the size-sorted order of the tuples that
//! `check_view_properties` has just verified (chain lemma, [`crate::view`] module docs):
//! once every size-sorted neighbour is a subset of the next, ascending size *is*
//! ascending containment and equal size *is* equal view. So a run of equal sizes is one
//! `σ_k` with exactly its responders — no view is compared with another to find the
//! distinct ones or to group the tuples — and `σ_k \ σ_{k-1}` is one ordered difference
//! against the borrowed previous view. Views of one `Drv` are per-process prefixes of
//! its announcement logs ([`View`]), so that difference is, per process, the log's tail
//! between the two prefixes: `O(n)` plus the pairs it yields, each of which is one
//! invocation of the sketch. With `t` tuples of `n` processes a sketch costs the
//! check's `O(t log t + t·n)` plus a binary search per lookup, and one step per event;
//! the all-pairs formulation it replaces cost `O(t²·v)` with views of at most `v`
//! pairs (views built by hand take the ordered merge, `O(v)` per difference). The sort
//! is stable and starts from `TupleSet` order, so steps and the events inside them come
//! out in the same canonical order as before.
//!
//! # Only the steps above a stable prefix
//!
//! [`sketch_history`] is the from-scratch construction: audits and certificates call
//! it, and it is the oracle. A verifier step instead continues an earlier sketch: the
//! steps up to the largest view `W` of `τ` with no pending pair can never change (the
//! pending-pair lemma, [`crate::verifier`] module docs), so the step keeps their events
//! and sorts, checks and sketches only the `s` tuples with larger views, starting the
//! differences from `W`. The stable sort makes that suffix of the chain exactly the
//! tail of the whole chain, and both write a step's events with one helper, so the
//! events come out as `sketch_history`'s would. With `n` processes a step costs
//! `O(t + n)` to read `τ` and split it at `|W|`, plus `O(s log s + s·n)`, a binary search
//! per lookup and a step per event it writes.
//!
//! The sketch keeps the operation table of its history the same way: an
//! [`OpTable`] marked after the stable prefix, rolled back to the mark and fed only
//! the events above it ([`OpTable::reindex`]), so indexing costs `O(n log n)` plus a
//! map update per re-sketched event, not per event of `X(τ)`. An ill-formed event
//! since the mark (only forged tuples make one) sends the table back to the first
//! event, so its first error is always `History::index`'s.
//!
//! With the table the sketch keeps the settled cut its decides start from
//! ([`linrv_check::Settled`]): after a decide that answered member,
//! `IncrementalSketch::settle` moves it to the last clean cut of the stable prefix,
//! where no operation is open, found by one counter that reads each prefix event
//! once. The queue's membership test then reads the cut's base and the table's
//! records from the cut on, not every record ([`crate::verifier`] module docs). The
//! cut lives behind the table's one `Box` and is reset with the sketch.

use crate::view::{
    check_above, checked_chain, InvocationPair, TupleSet, View, ViewPropertyError, ViewTuple,
};
use linrv_check::Settled;
use linrv_history::{Event, History, OpTable};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Why a set of view tuples cannot be turned into a sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// The tuples violate one of the view properties of Remark 7.2; such a set cannot
    /// have been produced by a `DRV` implementation communicating through a
    /// linearizable snapshot.
    ViewProperty(ViewPropertyError),
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::ViewProperty(err) => write!(f, "invalid views: {err}"),
        }
    }
}

impl std::error::Error for SketchError {}

impl From<ViewPropertyError> for SketchError {
    fn from(err: ViewPropertyError) -> Self {
        SketchError::ViewProperty(err)
    }
}

/// Builds the canonical flattened history of the sketch `X(λ)`.
///
/// # Errors
///
/// Returns [`SketchError::ViewProperty`] when the tuples violate Remark 7.2.
pub fn sketch_history(tuples: &TupleSet) -> Result<History, SketchError> {
    observed(tuples.len(), || {
        // Ascending view size; the checks passed, so this is ascending containment
        // order and a run of equal sizes is one view with all of its responders.
        let chain = checked_chain(tuples)?;
        let mut history = History::new();
        for (invoked, responders) in steps(&chain, &View::new()) {
            push_step(&mut history, invoked, responders);
        }
        Ok(history)
    })
}

/// Records one verdict's `linrv_verifier_tuples` sample (`|τ|`) and times its sketch
/// as one `linrv_drv_sketch_ns` sample.
fn observed<R>(tuples: usize, sketch: impl FnOnce() -> R) -> R {
    if linrv_obs::enabled() {
        crate::metrics::verifier_tuples().record(tuples as u64);
    }
    linrv_obs::time(crate::metrics::sketch_ns(), sketch)
}

/// The steps of `X(λ)` that a checked, size-sorted `chain` adds above the view
/// `previous`: per run of equal sizes (one view), the pairs that view adds to the one
/// before it — the step's invocations, never empty: the first view holds its own pair,
/// a later one is strictly larger than the one before it — and the tuples with exactly
/// that view, the step's responses.
fn steps<'a>(
    chain: &'a [&'a ViewTuple],
    mut previous: &'a View,
) -> impl Iterator<
    Item = (
        impl Iterator<Item = &'a InvocationPair>,
        &'a [&'a ViewTuple],
    ),
> {
    chain
        .chunk_by(|a, b| a.view.len() == b.view.len())
        .map(move |responders| {
            let view = &responders[0].view;
            let invoked = view.difference(previous);
            previous = view;
            (invoked, responders)
        })
}

/// Appends one step of `X(λ)` to `history`: the invocations of the pairs `invoked`,
/// then the responses of `responders`.
fn push_step<'a>(
    history: &mut History,
    invoked: impl IntoIterator<Item = &'a InvocationPair>,
    responders: &[&ViewTuple],
) {
    for pair in invoked {
        history.push(Event::invocation(
            pair.process,
            pair.op_id,
            pair.operation.clone(),
        ));
    }
    for t in responders {
        history.push(Event::response(
            t.pair.process,
            t.pair.op_id,
            t.response.clone(),
        ));
    }
}

/// `X(τ)` of a growing `τ` that re-sketches only the tuples above a stable prefix
/// (the [`verifier`](crate::verifier) module docs: the pending-pair lemma). The prefix
/// is `X(τ)` up to and including the step of `W`, the largest view of `τ` that holds
/// no pending pair; every later `τ' ⊇ τ` has the same steps up to there, so a call
/// sorts, checks and sketches only the tuples whose views are larger than `W`.
#[derive(Debug, Default)]
pub(crate) struct IncrementalSketch {
    /// `X(τ)` of the last call; its first `stable` events are the prefix.
    history: History,
    stable: usize,
    /// `|W|`, 0 while no view is stable.
    boundary: usize,
    /// The tuples of the prefix: those with views of at most `|W|` pairs.
    settled_tuples: usize,
    /// The pairs of `W` without a tuple in the prefix: at most one per process, whose
    /// tuples lie above `W`.
    open: BTreeSet<InvocationPair>,
    /// The operation table of `history`, marked after the prefix, and the settled
    /// cut. Boxed and allocated by the first `advance`, so that a verifier that never
    /// decides (a pooled monitor's) pays one pointer for them.
    table: Option<Box<Tabled>>,
}

/// What a sketch that decides keeps besides its events.
#[derive(Debug, Default)]
struct Tabled {
    table: OpTable,
    /// The cut the decides start from: a clean cut of the prefix, moved only after a
    /// decide that answered member.
    settled: Settled,
    /// The clean-cut scan of the prefix: the events it has read, the operations open
    /// after them (one counter), and the last clean cut among them.
    scanned: usize,
    open: usize,
    clean: usize,
    /// Decides made, and the records their windows held.
    #[cfg(test)]
    decides: usize,
    #[cfg(test)]
    window_records: usize,
}

impl Tabled {
    /// The records a decide reads: the base and the records invoked since the cut,
    /// all of the table while the cut is at the first event.
    fn window_records(&self) -> usize {
        self.settled.base().len() + self.settled.window(self.table.records()).len()
    }
}

impl IncrementalSketch {
    /// `X(τ)` of the last call.
    #[cfg(test)]
    pub(crate) fn history(&self) -> &History {
        &self.history
    }

    /// The stable prefix: the events of the steps up to and including `W`'s.
    #[cfg(test)]
    pub(crate) fn prefix(&self) -> &[Event] {
        &self.history.events()[..self.stable]
    }

    /// The operation table of the last call's `X(τ)`, once a call has built one.
    #[cfg(test)]
    pub(crate) fn table(&self) -> Option<&OpTable> {
        self.table.as_deref().map(|tabled| &tabled.table)
    }

    /// The settled cut, once a call has built the table.
    #[cfg(test)]
    pub(crate) fn settled(&self) -> Option<&Settled> {
        self.table.as_deref().map(|tabled| &tabled.settled)
    }

    /// The decides made since the sketch was last reset, and the records their windows
    /// held ([`Tabled::window_records`]).
    #[cfg(test)]
    pub(crate) fn window_records(&self) -> (usize, usize) {
        self.table
            .as_deref()
            .map_or((0, 0), |tabled| (tabled.decides, tabled.window_records))
    }

    /// `X(tuples)`, built as `sketch_history(tuples)` would build it, where `tuples`
    /// holds every tuple of the sets passed before, its operation table, which
    /// equals `History::index` of it, and the settled cut to decide it from. Moves the
    /// prefix up to the new `W`. The caller decides membership next, and calls
    /// [`settle`](Self::settle) when it is a member. `None` when
    /// the tuples at or below `W` are not exactly the prefix's, or a tuple above `W`
    /// shares its pair with one of the prefix, which takes a forged tuple or a `τ`
    /// that shrank: the caller must decide from scratch and start over.
    ///
    /// With `t` tuples in `n` runs and `s` of them above `W`, a call costs `O(t + n)`
    /// to read `τ`, its runs one after the other, plus `O(s log s + s·n)`, a binary search
    /// per lookup and a step per event for sorting, checking and sketching the suffix
    /// (views of one `Drv`; [`View`]), plus `O(n log n)` and a map update per event
    /// above the old prefix for the table ([`OpTable::reindex`]).
    pub(crate) fn advance(
        &mut self,
        tuples: &TupleSet,
    ) -> Option<Result<(&History, &OpTable, &Settled), SketchError>> {
        let (boundary, suffix) = self.split(tuples)?;
        if linrv_obs::enabled() {
            crate::metrics::suffix_tuples().record(suffix.len() as u64);
        }
        let sketched = observed(self.settled_tuples + suffix.len(), || {
            self.extend(boundary, suffix)
        });
        Some(sketched.map(|()| {
            let tabled = self.table.get_or_insert_with(Box::default);
            tabled.table.reindex(self.history.events(), self.stable);
            if linrv_obs::enabled() {
                crate::metrics::window_records().record(tabled.window_records() as u64);
            }
            #[cfg(test)]
            {
                tabled.decides += 1;
                tabled.window_records += tabled.window_records();
            }
            (&self.history, &tabled.table, &tabled.settled)
        }))
    }

    /// After a decide of the last call's `X(τ)` that answered member: moves the
    /// settled cut to the last clean cut of the stable prefix, when the base folds
    /// ([`Settled::advance`]). The prefix's events never change, so one counter of
    /// the operations open reads each of them once. `X(τ)` and hence its prefix up
    /// to that cut are members, which is what the fold needs.
    pub(crate) fn settle(&mut self) {
        let Some(tabled) = self.table.as_deref_mut() else {
            return;
        };
        for event in &self.history.events()[tabled.scanned..self.stable] {
            if event.is_invocation() {
                tabled.open += 1;
            } else {
                tabled.open = tabled.open.saturating_sub(1);
            }
            tabled.scanned += 1;
            if tabled.open == 0 {
                tabled.clean = tabled.scanned;
            }
        }
        if tabled.clean > tabled.settled.cut() {
            tabled.settled.advance(tabled.table.records(), tabled.clean);
        }
    }

    /// Splits `tuples` at `|W|` into the prefix's last tuple in chain order, whose view
    /// is `W`, and the tuples above it; `None` when `tuples` does not extend the prefix
    /// ([`advance`](Self::advance)).
    fn split<'t>(
        &self,
        tuples: &'t TupleSet,
    ) -> Option<(Option<&'t ViewTuple>, Vec<&'t ViewTuple>)> {
        let (mut below, mut boundary, mut suffix) = (0, None, Vec::new());
        for tuple in tuples {
            match tuple.view.len().cmp(&self.boundary) {
                Ordering::Greater => suffix.push(tuple),
                Ordering::Equal => {
                    below += 1;
                    boundary = Some(tuple);
                }
                Ordering::Less => below += 1,
            }
        }
        let unsettled = boundary.is_some_and(|w| {
            suffix
                .iter()
                .any(|t| w.view.contains(&t.pair) && !self.open.contains(&t.pair))
        });
        let extends = below == self.settled_tuples && boundary.is_some() == (below > 0);
        (extends && !unsettled).then_some((boundary, suffix))
    }

    /// Sorts, checks and sketches `suffix`, the tuples above `boundary`, after the
    /// prefix; on `Ok`, `history` holds `X(τ)`.
    fn extend(
        &mut self,
        boundary: Option<&ViewTuple>,
        mut suffix: Vec<&ViewTuple>,
    ) -> Result<(), SketchError> {
        suffix.sort_by_key(|tuple| tuple.view.len());
        check_above(&suffix, boundary)?;

        // The steps above `W`. They stay final while every pair they invoke has a
        // tuple in `τ`, which is then a tuple above `W`.
        self.history.truncate(self.stable);
        let published: BTreeSet<&InvocationPair> = suffix.iter().map(|t| &t.pair).collect();
        let empty = View::new();
        let (mut final_tuples, mut is_final) = (0, true);
        for (invoked, responders) in steps(&suffix, boundary.map_or(&empty, |w| &w.view)) {
            let invoked: Vec<&InvocationPair> = invoked.collect();
            is_final &= invoked.iter().all(|pair| published.contains(pair));
            push_step(&mut self.history, invoked.iter().copied(), responders);
            if is_final {
                self.open.extend(invoked.into_iter().cloned());
                final_tuples += responders.len();
                self.stable = self.history.len();
                self.boundary = responders[0].view.len();
            }
        }
        for tuple in &suffix[..final_tuples] {
            self.open.remove(&tuple.pair);
        }
        self.settled_tuples += final_tuples;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{InvocationPair, ViewTuple};
    use linrv_history::{OpId, OpValue, Operation, ProcessId};
    use linrv_spec::ops::{queue, stack};

    fn pair(p: u32, id: u64, op: Operation) -> InvocationPair {
        InvocationPair {
            process: ProcessId::new(p),
            op_id: OpId::new(id),
            operation: op,
        }
    }

    fn view_of(pairs: &[&InvocationPair]) -> crate::view::View {
        pairs.iter().map(|p| (*p).clone()).collect()
    }

    /// The maximal runs of invocations (`true`) and of responses (`false`) of
    /// `history`, each with its operations in event order: the steps of an
    /// interval-sequential history (Claim 7.2).
    fn runs(history: &History) -> Vec<(bool, Vec<OpId>)> {
        history
            .events()
            .chunk_by(|a, b| a.is_invocation() == b.is_invocation())
            .map(|run| {
                (
                    run[0].is_invocation(),
                    run.iter().map(|e| e.op_id).collect(),
                )
            })
            .collect()
    }

    /// Figure 9 of the paper: three processes, four operations, nested views.
    #[test]
    fn figure9_reconstruction() {
        let op1 = pair(0, 0, Operation::new("Apply", OpValue::Int(1)));
        let op1b = pair(0, 1, Operation::new("Apply", OpValue::Int(2)));
        let op2 = pair(1, 2, Operation::new("Apply", OpValue::Int(3)));
        let op3 = pair(2, 3, Operation::new("Apply", OpValue::Int(4)));

        let view = view_of(&[&op1]);
        let view_p = view_of(&[&op1, &op1b, &op2]);
        let view_pp = view_of(&[&op1, &op1b, &op2, &op3]);

        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(op1.clone(), OpValue::Str("a".into()), view));
        tuples.insert(ViewTuple::new(
            op1b.clone(),
            OpValue::Str("b".into()),
            view_p,
        ));
        tuples.insert(ViewTuple::new(
            op3.clone(),
            OpValue::Str("d".into()),
            view_pp,
        ));
        // (p2, op2) has no tuple: its operation is pending (as in the figure, where only
        // λ_E's three tuples appear).

        let history = sketch_history(&tuples).expect("valid views");
        // Steps: {op1} / resp a / {op1', op2} / resp b / {op3} / resp d
        let id = |ids: &[u64]| -> Vec<OpId> { ids.iter().map(|&i| OpId::new(i)).collect() };
        assert_eq!(
            runs(&history),
            vec![
                (true, id(&[0])),
                (false, id(&[0])),
                (true, id(&[1, 2])),
                (false, id(&[1])),
                (true, id(&[3])),
                (false, id(&[3])),
            ]
        );
        assert!(history.is_well_formed());
        assert_eq!(history.complete_operations().count(), 3);
        assert_eq!(history.pending_operations().count(), 1);

        // Real-time order encoded by the views: op1 precedes op1', op1 precedes op3,
        // op1' precedes op3, while op2 is concurrent with op1' (same invocation step).
        let order = linrv_history::RealTimeOrder::full_order(&history);
        assert!(order.before(OpId::new(0), OpId::new(1)));
        assert!(order.before(OpId::new(0), OpId::new(3)));
        assert!(order.before(OpId::new(1), OpId::new(3)));
        assert!(!order.before(OpId::new(2), OpId::new(1)));
        assert!(!order.before(OpId::new(1), OpId::new(2)));
    }

    /// Sequential announcements produce a sequential sketch.
    #[test]
    fn sequential_views_produce_sequential_history() {
        let a = pair(0, 0, queue::enqueue(1));
        let b = pair(1, 1, queue::dequeue());
        let va = view_of(&[&a]);
        let vb = view_of(&[&a, &b]);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(a.clone(), OpValue::Bool(true), va));
        tuples.insert(ViewTuple::new(b.clone(), OpValue::Int(1), vb));
        let history = sketch_history(&tuples).unwrap();
        assert!(history.is_sequential());
        assert_eq!(history.len(), 4);
    }

    /// Operations whose views are equal overlap in the sketch.
    #[test]
    fn equal_views_yield_concurrent_operations() {
        let a = pair(0, 0, stack::push(1));
        let b = pair(1, 1, stack::pop());
        let shared = view_of(&[&a, &b]);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(
            a.clone(),
            OpValue::Bool(true),
            shared.clone(),
        ));
        tuples.insert(ViewTuple::new(b.clone(), OpValue::Int(1), shared));
        let history = sketch_history(&tuples).unwrap();
        let order = linrv_history::RealTimeOrder::full_order(&history);
        assert!(order.concurrent(OpId::new(0), OpId::new(1)));
    }

    /// The cached operation table adds one pointer to a sketch and allocates nothing
    /// until the first `advance`: a pooled monitor's verifier never decides, and a
    /// pool holds one per object.
    #[test]
    fn the_table_costs_a_sketch_one_pointer_until_it_advances() {
        type Untabled = (History, usize, usize, usize, BTreeSet<InvocationPair>);
        assert!(
            std::mem::size_of::<IncrementalSketch>()
                <= std::mem::size_of::<Untabled>() + std::mem::size_of::<Box<OpTable>>()
        );
        assert!(IncrementalSketch::default().table().is_none());
    }

    #[test]
    fn empty_tuple_set_produces_empty_history() {
        let history = sketch_history(&TupleSet::new()).unwrap();
        assert!(history.is_empty());
    }

    #[test]
    fn invalid_views_are_rejected() {
        let a = pair(0, 0, queue::enqueue(1));
        let b = pair(1, 1, queue::enqueue(2));
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(
            a.clone(),
            OpValue::Bool(true),
            view_of(&[&a]),
        ));
        tuples.insert(ViewTuple::new(
            b.clone(),
            OpValue::Bool(true),
            view_of(&[&b]),
        ));
        let err = sketch_history(&tuples).unwrap_err();
        assert!(err.to_string().contains("incomparable"));
    }

    /// The flattened sketch is always a well-formed history (given valid views).
    #[test]
    fn sketches_are_well_formed() {
        let a = pair(0, 0, queue::enqueue(1));
        let b = pair(1, 1, queue::dequeue());
        let c = pair(2, 2, queue::dequeue());
        let v1 = view_of(&[&a, &b]);
        let v2 = view_of(&[&a, &b, &c]);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(a.clone(), OpValue::Bool(true), v1.clone()));
        tuples.insert(ViewTuple::new(b.clone(), OpValue::Empty, v1));
        tuples.insert(ViewTuple::new(c.clone(), OpValue::Int(1), v2));
        let history = sketch_history(&tuples).unwrap();
        assert!(history.is_well_formed());
        assert_eq!(history.complete_operations().count(), 3);
    }
}
