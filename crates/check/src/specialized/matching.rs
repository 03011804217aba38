//! The insert/remove matching shared by the queue, stack and priority-queue
//! monitors.
//!
//! The three kinds have the same shape: an insert (`Enqueue(v)`, `Push(v)`,
//! `Insert(v)`) acknowledged with `true`, and a removal (`Dequeue`, `Pop`,
//! `ExtractMin`) answering a value or `empty`. When no value is inserted
//! twice, every removal of `v` is *forced* to match the one insert of `v`
//! (Lee & Mathur's unambiguous histories). [`check`] builds that matching in
//! one scan of the operation table and runs the patterns that follow from it
//! alone. A monitor supplies a [`Kind`]: its operation names and message
//! words, its order pattern and its constructive phase.
//!
//! # The matching rules
//!
//! The scan reads each record once:
//!
//! * an insert with a non-integer argument is outside the matching:
//!   `Fallback(Unsupported)`;
//! * an insert acknowledged with anything but `true`, a removal answering
//!   anything but an integer or `empty`, and a completed operation of any
//!   other name are `bad-response`;
//! * a removal answering `v` joins `v`'s removals, one answering `empty`
//!   joins the empty removals.
//!
//! Then, in this order:
//!
//! 1. two inserts of one value break the forced matching:
//!    `Fallback(Ambiguous)`;
//! 2. the removed values in ascending order: a value removed twice is
//!    `duplicate-remove`, one never inserted `never-added`, one whose removal
//!    completes before its insert is invoked `remove-before-add`; otherwise
//!    it becomes a [`Pair`];
//! 3. the kind's order pattern ([`Kind::order_pattern`]);
//! 4. `covered-empty` ([`Matching::covered_empty`]);
//! 5. the kind's constructive phase ([`Kind::construct`]): `Member` if it
//!    validates a witness, the bad pattern it meets on the way if one proves
//!    that none exists (the queue's forced-out values), `Fallback(Undecided)`
//!    if neither.
//!
//! The first check that fires decides, so the reported pattern is a function
//! of the history alone (the tables are sorted by value).
//!
//! # Pending operations
//!
//! A pending operation may take effect or not, whichever a completion needs:
//!
//! * a pending insert whose value is removed is matched, with response ∞ (it
//!   took effect); one whose value is never removed is dropped;
//! * a pending removal may still consume any value: it is a *wildcard*.
//!   [`Matching::pending_removals`] keeps the invocation of every one, and
//!   [`Matching::wildcard_iv`] is the earliest. A value never removed is then
//!   only forced to stay in the object until that invocation;
//! * a pending operation of any other name is dropped.
//!
//! Dropping is always allowed: a completion may leave out a pending insert
//! that no removal answers and a pending removal that takes nothing. Which
//! values the pending removals take is the constructive phase's choice; the
//! queue's rules, why each is sound and what its retries cost are on its own
//! module page.
//!
//! An order pattern that relies on a value being *never* removed must honour
//! the wildcard. Today only the queue monitor sees pending operations: the
//! dispatch sends the stack and priority queue to the general search on any
//! (`Fallback(Pending)`), so their order patterns and constructive phases
//! assume complete histories.
//!
//! # Why one `covered-empty` serves all three kinds
//!
//! An empty removal is impossible when its whole window lies inside the union
//! of the intervals where some value is necessarily in the object: from its
//! insert's response to its removal's invocation, and for a value never
//! removed, up to the earliest pending removal (∞ without one). A pending
//! insert's interval starts at ∞, so [`IntervalUnion::new`] drops it as
//! empty. Without a pending removal a value never removed is bounded by
//! `INF − 1`, not `INF`: an empty removal's window is finite, so the two
//! bounds cover the same windows, and the stack and priority queue (which
//! see no pending removal) lose nothing to the queue's rule.

use super::util::{IntervalUnion, Span, INF};
use super::{BadPattern, FallbackReason, SpecializedResult};
use linrv_history::{OpRecord, OpValue};

/// One insert/remove kind: what the shared front end needs to scan its
/// records and word its messages, and the two phases that are its own.
pub(super) struct Kind {
    /// The insert operation (`"Enqueue"`); lowercased, it names the insert
    /// in `remove-before-add`.
    pub(super) add: &'static str,
    /// The removal operation (`"Dequeue"`).
    pub(super) remove: &'static str,
    /// The object, as a foreign operation's message names it (`"queue"`).
    pub(super) object: &'static str,
    /// Past tense of the insert (`"enqueued"`).
    pub(super) added: &'static str,
    /// Past tense of the removal (`"dequeued"`).
    pub(super) removed: &'static str,
    /// The `covered-empty` message.
    pub(super) covered_empty: &'static str,
    /// The kind's sound pattern over the order of removals.
    pub(super) order_pattern: fn(&Matching) -> Option<BadPattern>,
    /// Builds and validates a linearization; `Ok(false)` when it finds none,
    /// `Err` with the bad pattern that shows there is none.
    pub(super) construct: fn(Matching) -> Result<bool, BadPattern>,
}

/// A value with its insert and removal. The insert may be pending (`add.rs ==
/// INF`). The removal is the complete one that answered the value, or, once
/// the queue's constructive phase has assigned the value to a pending removal,
/// that removal (`remove.rs == INF`).
#[derive(Clone, Copy)]
pub(super) struct Pair {
    pub(super) add: Span,
    pub(super) remove: Span,
    pub(super) value: i64,
}

/// What the scan leaves for a kind's own phases.
pub(super) struct Matching {
    /// The matched values, in ascending value order.
    pub(super) matched: Vec<Pair>,
    /// Values of complete inserts that no removal answered, ascending.
    pub(super) unmatched: Vec<(Span, i64)>,
    /// The complete removals that answered `empty`, in table order.
    pub(super) empties: Vec<Span>,
    /// The invocations of the pending removals, ascending (table order is
    /// invocation order).
    pub(super) pending_removals: Vec<u32>,
}

/// Decides an insert/remove history of `kind` (rules on the
/// [module page](self)) from its records: a history's operation table, or
/// the queue's settled base (complete enqueues only) followed by the records
/// invoked since its cut (`queue`'s settled-cut lemma). Either way the
/// removals come in invocation order.
pub(super) fn check<'r>(
    kind: &Kind,
    records: impl IntoIterator<Item = &'r OpRecord>,
) -> SpecializedResult {
    let matching = match Matching::new(kind, records) {
        Ok(matching) => matching,
        Err(decided) => return decided,
    };
    let pattern = (kind.order_pattern)(&matching).or_else(|| matching.covered_empty(kind));
    match pattern.map_or_else(|| (kind.construct)(matching), Err) {
        Ok(true) => SpecializedResult::Member,
        Ok(false) => SpecializedResult::Fallback(FallbackReason::Undecided),
        Err(pattern) => SpecializedResult::NotMember(pattern),
    }
}

fn violation(name: &'static str, message: String, values: Vec<i64>) -> SpecializedResult {
    SpecializedResult::NotMember(BadPattern::new(name, message).with_values(values))
}

impl Matching {
    /// The scan, the ambiguity gate and the matching; `Err` carries the
    /// decision when one of them settles the history.
    fn new<'r>(
        kind: &Kind,
        records: impl IntoIterator<Item = &'r OpRecord>,
    ) -> Result<Self, SpecializedResult> {
        let records = records.into_iter();
        let (len, _) = records.size_hint();
        // The inserts and the removals that answered a value, as `(value,
        // span)`; sorted by value below. Only a value with one insert and
        // one removal goes on to use its spans.
        let mut adds = Vec::with_capacity(len);
        let mut removes = Vec::with_capacity(len);
        let mut empties = Vec::new();
        let mut pending_removals = Vec::new();
        for record in records {
            let span = Span::new(record.invocation_index, record.response_index);
            let name = record.operation.kind.as_str();
            if name == kind.add {
                let Some(value) = record.operation.arg.as_int() else {
                    return Err(SpecializedResult::Fallback(FallbackReason::Unsupported));
                };
                match &record.response {
                    None | Some(OpValue::Bool(true)) => adds.push((value, span)),
                    Some(other) => {
                        let message =
                            format!("{name}({value}) acknowledged with {other} instead of true");
                        return Err(violation("bad-response", message, vec![value]));
                    }
                }
            } else if name == kind.remove {
                match &record.response {
                    None => pending_removals.push(span.iv),
                    Some(OpValue::Int(value)) => removes.push((*value, span)),
                    Some(OpValue::Empty) => empties.push(span),
                    Some(other) => {
                        let message =
                            format!("{name} returned {other}, expected an integer or empty");
                        return Err(violation("bad-response", message, Vec::new()));
                    }
                }
            } else if record.response.is_some() {
                let message = format!("{name} is not a {} operation", kind.object);
                return Err(violation("bad-response", message, Vec::new()));
            }
        }

        adds.sort_unstable_by_key(|&(value, _)| value);
        removes.sort_unstable_by_key(|&(value, _)| value);
        if adds.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            return Err(SpecializedResult::Fallback(FallbackReason::Ambiguous));
        }
        let (added, removed) = (kind.added, kind.removed);
        let mut matched = Vec::with_capacity(removes.len());
        let mut unmatched = Vec::new();
        // A merge of the two sorted tables: the inserts of values below the
        // next removed one are unmatched.
        let mut adds = adds.into_iter().peekable();
        for run in removes.chunk_by(|a, b| a.0 == b.0) {
            let (value, remove) = run[0];
            if run.len() > 1 {
                // At most one insert of `value` exists, and an extension can
                // only add responses, never new inserts.
                let message = format!("value {value} {removed} {} times", run.len());
                return Err(violation("duplicate-remove", message, vec![value]));
            }
            while let Some((below, span)) = adds.next_if(|&(added, _)| added < value) {
                if span.rs != INF {
                    unmatched.push((span, below));
                }
            }
            let Some((_, add)) = adds.next_if(|&(added, _)| added == value) else {
                let message = format!("value {value} {removed} but never {added}");
                return Err(violation("never-added", message, vec![value]));
            };
            if remove.precedes(&add) {
                let insert = kind.add.to_lowercase();
                let message = format!("value {value} {removed} before its {insert} was invoked");
                return Err(violation("remove-before-add", message, vec![value]));
            }
            matched.push(Pair { add, remove, value });
        }
        let rest = adds.filter(|(_, span)| span.rs != INF);
        unmatched.extend(rest.map(|(value, span)| (span, value)));
        Ok(Matching {
            matched,
            unmatched,
            empties,
            pending_removals,
        })
    }

    /// The earliest invocation of a pending removal; `INF` when none.
    pub(super) fn wildcard_iv(&self) -> u32 {
        self.pending_removals.first().copied().unwrap_or(INF)
    }

    /// An empty removal whose whole window is covered by values necessarily
    /// in the object (gap `g` is the space between event indices `g` and
    /// `g + 1`; see the [module page](self) for the intervals).
    fn covered_empty(&self, kind: &Kind) -> Option<BadPattern> {
        if self.empties.is_empty() {
            return None;
        }
        let until_wildcard = self.wildcard_iv().saturating_sub(1);
        let occupied = self
            .matched
            .iter()
            .map(|p| (p.add.rs, p.remove.iv.saturating_sub(1)))
            .chain(
                self.unmatched
                    .iter()
                    .map(|&(span, _)| (span.rs, until_wildcard)),
            )
            .collect();
        let union = IntervalUnion::new(occupied);
        self.empties
            .iter()
            .any(|span| union.covers(span.iv, span.rs - 1))
            .then(|| BadPattern::new("covered-empty", kind.covered_empty))
    }
}
