//! Specialized FIFO-queue monitor for unambiguous histories.
//!
//! The insert/remove matching, its pending-operation rule and the
//! `covered-empty` pattern are shared (`matching`). What is the queue's own:
//!
//! * its order pattern, a FIFO inversion forced by real time — `v` enqueued
//!   before `w` but dequeued after it (a never-dequeued `v` counts as
//!   "dequeued at ∞" unless a pending dequeue could still take it);
//! * its constructive phase: which unmatched values the pending dequeues
//!   take (below), then a FIFO order of the values from a two-gate
//!   topological merge of the enqueue and dequeue interval orders,
//!   interleaved by earliest effective deadline, then validated
//!   (`util::respects_precedence`). Only a validated witness yields
//!   `Member`; if none validates the monitor returns `Fallback(Undecided)`
//!   rather than guessing.
//!
//! Together these decide unambiguous histories in O(n log n), after the
//! bad-pattern characterisation of Lee & Mathur / Bouajjani et al.
//!
//! # Pending dequeues
//!
//! The front end matches every complete dequeue to its value. Left over are
//! the *unmatched* values (complete enqueues that no complete dequeue
//! answered) and the pending dequeues. A completion lets pending dequeues
//! *take* some unmatched values; every other unmatched value stays in the
//! queue for good, so it comes after every dequeued value in FIFO order and
//! no empty dequeue may follow its enqueue. The constructive phase chooses
//! the taken values:
//!
//! 1. The front end keeps every pending dequeue's invocation
//!    (`Matching::pending_removals`).
//! 2. **Forced out.** Let `θ` be the last invocation of an enqueue of a
//!    dequeued value or of an empty dequeue. A value whose enqueue responds
//!    before `θ` cannot stay: it would precede a dequeued value in FIFO
//!    order, or sit in the queue while an empty dequeue answers. The closure
//!    (a value whose enqueue responds before the enqueue of a forced-out value
//!    is invoked) adds nothing, since that invocation is before `θ` too. Only
//!    a pending dequeue can take a forced-out value: with more of them than
//!    pending dequeues no completion is a member, and the monitor reports
//!    them as a bad pattern, an `order-inversion` when the last such
//!    invocation is an enqueue's and a `covered-empty` when it is an empty
//!    dequeue's.
//! 3. **Where an empty dequeue lands.** An empty dequeue may have to land
//!    after a dequeue that was invoked after some unmatched value's enqueue
//!    responded, though it overlaps that enqueue; then that value must be
//!    taken too, and rule 2 does not see it. So when a witness fails
//!    validation, the phase retries with one more value taken, up to one
//!    value per pending dequeue.
//!
//! Values are taken in order of enqueue response. The earlier a value's
//! enqueue responds, the more operations must follow it, and the harder it is
//! to leave in the queue; rule 2's forced-out values are a prefix of this
//! order. In the same order the taken values go to the earliest-invoked
//! pending dequeues, in invocation order: a value is in the queue by its
//! enqueue's response at the latest, so the one whose enqueue answers first
//! is the one an empty dequeue may need gone first (enqueue invocation order
//! misses such histories). Each becomes a `Pair` whose removal span is
//! `[iv, ∞]`, and the FIFO order, the merge and the validation run on them
//! unchanged. A pending dequeue that takes nothing is left out of the
//! completion.
//!
//! * **Sound.** A pending dequeue answering a value is a completion of the
//!   history, and `Member` still needs a validated witness: a poor choice
//!   costs a fallback, never a wrong verdict.
//! * **Cost.** One construction is O(h log h) for `h` operations. Rule 3
//!   makes at most `p + 1` of them, `p` the number of pending dequeues, which
//!   is at most the number of processes; it runs only on a history whose
//!   first witness failed. A history without pending dequeues or without
//!   unmatched values makes exactly one, and allocates nothing for them.
//! * **Complete?** Not proved here, but checked: no member queue case of the
//!   verdict matrix's recorded and DRV grids (also unthinned), no sketch of a
//!   512-operation Enforce-shaped schedule and none of 10 000 random member
//!   histories falls back `Undecided` (`tests-integration`'s queue census and
//!   `specialized_differential`).
//!
//! # Deciding from a settled cut
//!
//! A *clean cut* of a history `H` is an event index `c` before which every
//! operation invoked has responded. Split `H = H1·H2` there. Let `U` be the
//! values of `H1`'s enqueues that no dequeue of `H1` answers, and `E_U` those
//! enqueues at their places in `H1`: complete operations, all before `c`.
//!
//! **Lemma (settled cut).** If `H1` is a member and no two of its enqueues
//! have one value, then `H ∈ Lin(queue)` iff `E_U·H2 ∈ Lin(queue)`.
//!
//! *Proof.* Every operation of `H1` (and of `E_U`) responds before any
//! operation of `H2` is invoked, so a linearization of a completion of
//! either history puts the first part wholly before `H2`'s operations.
//!
//! * (⇒) Let `L1·L2` linearize `H`, `L1` the operations of `H1`. No value is
//!   enqueued twice in `H1`, so each dequeue of `L1` removes the one enqueue
//!   of its value, and after `L1` the queue holds exactly `U`, in an order
//!   `π` that extends `E_U`'s real-time order. So `π·L2`, the restriction of
//!   `L1·L2` to `E_U·H2`, reaches the same state and replays `L2`: it
//!   linearizes `E_U·H2`.
//! * (⇐) Let `π·L2` linearize `E_U·H2`; `π` orders `U` and extends `E_U`'s
//!   real-time order. Take a linearization of `H1` as distinct points, one
//!   inside each operation's interval. Every `u ∈ U` has its point after the
//!   point of every empty dequeue (else `u` is in the queue when it answers)
//!   and of every enqueue of a dequeued value `w` (else `u` is ahead of `w`
//!   and is dequeued first). Let `B` be the last of those points, so
//!   `B < p_u ≤ rs_u`. Moving `U`'s points anywhere after `B`, in any order,
//!   changes no answer: the values dequeued in `H1` stay ahead of `U` and
//!   every empty dequeue stays before it, and the queue ends holding `U` in
//!   the new order. Points in the order `π` exist: take each `u` in turn at
//!   the first point after the previous one and after `max(B, iv_u)`. If that
//!   passes `rs_u`, some `v` before `u` in `π` has `iv_v > rs_u` (as
//!   `rs_u > B`), so real time puts `u` before `v`, against `π`. Points
//!   inside the intervals respect real time, so this linearizes `H1` and
//!   leaves `π` in the queue, and `L2` continues it: `H` is a member. ∎
//!
//! [`Settled`] carries a cut and its base `E_U` along a growing member
//! history. Moving from `c` to a later clean cut `c'` applies the lemma to
//! `G = E_U·H_{≥c}`, which is a member iff `H` is: `c'` is a clean cut of
//! `G` too, and `G`'s part before it is `E_U` and the records invoked in
//! `[c, c')`. So the new base is the old one plus those records' enqueues,
//! minus the values their dequeues answer, and no record from before `c` is
//! read again. The fold checks the lemma's one condition on that part: a
//! value enqueued twice in it, a dequeue answering no value of it, or an
//! operation that is neither an enqueue nor a dequeue leaves the cut where it
//! is. A value enqueued and dequeued before `c` is not in `G` at all, so its
//! enqueue again after `c` makes the whole history ambiguous but not the
//! window.

use super::matching::{Kind, Matching, Pair};
use super::util::{respects_precedence, Span, INF};
use super::BadPattern;
use linrv_history::{OpRecord, OpValue};

/// A clean cut of a member queue history and its base: the enqueues before
/// the cut whose values no dequeue before it answers, at their original event
/// indices, in ascending value order. By the settled-cut lemma (proved in
/// the queue monitor's module docs, `specialized/queue.rs`), an extension of
/// that history is a member iff its [`base`](Self::base) followed by its
/// [`window`](Self::window) is, which is what a
/// [`StrategyChecker`](super::StrategyChecker) of the queue decides from one
/// ([`GenLinObject::contains_settled`](crate::GenLinObject::contains_settled)).
///
/// The default is the cut at the first event, where the base is empty and the
/// window is the whole history. Only the queue has a base rule so far: on any
/// other kind's history the first [`advance`](Self::advance) meets a foreign
/// operation and the cut stays at 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Settled {
    cut: usize,
    base: Vec<OpRecord>,
}

impl Settled {
    /// The cut: an event index before which every operation has responded.
    pub fn cut(&self) -> usize {
        self.cut
    }

    /// The enqueues before the cut still in the queue there, in ascending
    /// value order.
    pub fn base(&self) -> &[OpRecord] {
        &self.base
    }

    /// The records of `records`, an operation table in invocation order,
    /// invoked at or after the cut.
    pub fn window<'t>(&self, records: &'t [OpRecord]) -> &'t [OpRecord] {
        &records[records.partition_point(|r| r.invocation_index < self.cut)..]
    }

    /// Moves the cut to `cut` and folds into the base the records of
    /// `records` invoked between the two cuts: their enqueues join it, the
    /// values their dequeues answer leave it. `records` is the operation
    /// table of a history that extends the one the cut was taken in, `cut` a
    /// clean cut of it and the history up to `cut` a member. Returns `false`,
    /// and leaves the cut where it is, when `cut` lies before the cut or the
    /// folded part is not an unambiguous queue history: a value enqueued twice
    /// (base included), a dequeue of a value neither the base nor the part
    /// enqueued, or an operation that is neither an enqueue nor a dequeue. Costs `O((b + f) log(b + f))` for a base of `b` records and
    /// `f` folded ones.
    pub fn advance(&mut self, records: &[OpRecord], cut: usize) -> bool {
        if cut < self.cut {
            return false;
        }
        let folded = self.window(records);
        let folded = &folded[..folded.partition_point(|r| r.invocation_index < cut)];
        let (mut enqueued, mut answered) = (Vec::new(), Vec::new());
        for record in folded {
            match (record.operation.kind.as_str(), &record.response) {
                ("Enqueue", Some(OpValue::Bool(true))) => enqueued.push(record),
                ("Dequeue", Some(OpValue::Int(value))) => answered.push(*value),
                ("Dequeue", Some(OpValue::Empty)) => {}
                _ => return false,
            }
        }
        let mut values = Vec::with_capacity(self.base.len() + enqueued.len());
        for record in self.base.iter().chain(enqueued) {
            let Some(value) = record.operation.arg.as_int() else {
                return false;
            };
            values.push((value, record));
        }
        values.sort_unstable_by_key(|&(value, _)| value);
        answered.sort_unstable();
        if values.windows(2).any(|pair| pair[0].0 == pair[1].0)
            || answered.windows(2).any(|pair| pair[0] == pair[1])
        {
            return false;
        }
        // A dequeue answering a value that no enqueue of the part holds
        // leaves fewer than `kept` records, or more answers than values.
        let Some(kept) = values.len().checked_sub(answered.len()) else {
            return false;
        };
        let base: Vec<OpRecord> = values
            .into_iter()
            .filter(|(value, _)| answered.binary_search(value).is_err())
            .map(|(_, record)| record.clone())
            .collect();
        if base.len() != kept {
            return false;
        }
        self.cut = cut;
        self.base = base;
        true
    }
}

pub(super) const QUEUE: Kind = Kind {
    add: "Enqueue",
    remove: "Dequeue",
    object: "queue",
    added: "enqueued",
    removed: "dequeued",
    covered_empty: "a dequeue observed an empty queue inside a window where the queue \
                    is necessarily non-empty",
    order_pattern: fifo_inversion,
    construct,
};

/// Constructive phase: which unmatched values the pending dequeues take
/// (rules 2 and 3 on the [module page](self)), then a FIFO value order and a
/// gap-anchored merge, validated. More forced-out values than pending
/// dequeues is a bad pattern ([`forced_out`]).
fn construct(matching: Matching) -> Result<bool, BadPattern> {
    let Matching {
        mut matched,
        mut unmatched,
        empties,
        pending_removals,
    } = matching;
    // Rule 2: a value whose enqueue responds before the last invocation of a
    // dequeued value's enqueue or of an empty dequeue is forced out. In order
    // of enqueue response, the forced values come first.
    let last_dequeued = matched.iter().max_by_key(|p| p.add.iv);
    let last_empty = empties.iter().map(|span| span.iv).max().unwrap_or(0);
    let last_invoked = last_dequeued.map_or(0, |p| p.add.iv).max(last_empty);
    let forced: Vec<i64> = unmatched
        .iter()
        .filter(|(span, _)| span.rs < last_invoked)
        .map(|&(_, value)| value)
        .collect();
    let pending = pending_removals.len();
    if forced.len() > pending {
        return Err(forced_out(
            forced,
            pending,
            last_dequeued.filter(|p| p.add.iv > last_empty),
        ));
    }
    let pairs = matched.len();
    // Rule 3: one more value per failed witness, up to one per pending
    // dequeue.
    let takeable = pending.min(unmatched.len());
    Ok((forced.len()..=takeable).any(|taken| {
        unmatched.sort_unstable_by_key(|(span, _)| span.rs);
        let (out, stay) = unmatched.split_at_mut(taken);
        stay.sort_unstable_by_key(|(span, _)| span.iv);
        matched.truncate(pairs);
        matched.extend(
            out.iter()
                .zip(&pending_removals)
                .map(|(&(add, value), &iv)| {
                    let remove = Span { iv, rs: INF };
                    Pair { add, remove, value }
                }),
        );
        witness(&matched, stay, &empties)
    }))
}

/// More values `forced` out than the `pending` dequeues that alone can take
/// them (rule 2; without pending dequeues the order patterns have rejected any
/// forced value already). When they are forced out by `dequeued`'s enqueue,
/// one of them stays while a value enqueued after it is dequeued: a FIFO
/// inversion. Otherwise an empty dequeue forced them out, and one of them is
/// in the queue when it answers: a covered empty.
fn forced_out(mut forced: Vec<i64>, pending: usize, dequeued: Option<&Pair>) -> BadPattern {
    let values: Vec<String> = forced.iter().map(i64::to_string).collect();
    let values = values.join(", ");
    let dequeues = if pending == 1 { "dequeue" } else { "dequeues" };
    let only = format!("but only {pending} pending {dequeues} can take them");
    match dequeued {
        Some(w) => {
            let message = format!(
                "FIFO inversion: {values} enqueued before {} {only}",
                w.value
            );
            forced.push(w.value);
            BadPattern::new("order-inversion", message).with_values(forced)
        }
        None => {
            let message = format!("{values} are in the queue when a dequeue answers empty, {only}");
            BadPattern::new("covered-empty", message).with_values(forced)
        }
    }
}

/// A FIFO value order of `matched`, merged with the `unmatched` values (by
/// enqueue invocation) and the `empties`, then validated.
fn witness(matched: &[Pair], unmatched: &[(Span, i64)], empties: &[Span]) -> bool {
    let Some(order) = fifo_value_order(matched) else {
        return false;
    };
    respects_precedence(merge_schedule(matched, &order, unmatched, empties))
}

/// The order pattern: `v` enqueued before `w` (forced) yet dequeued after `w`
/// (forced). A `v` that is never dequeued counts with dequeue invocation ∞ —
/// but only when no pending dequeue could still consume it.
fn fifo_inversion(matching: &Matching) -> Option<BadPattern> {
    let Matching {
        matched, unmatched, ..
    } = matching;
    // Role v: contributes (rs of enqueue, iv of dequeue).
    let mut first: Vec<(u32, u32, i64)> = matched
        .iter()
        .filter(|p| p.add.rs != INF)
        .map(|p| (p.add.rs, p.remove.iv, p.value))
        .collect();
    if matching.wildcard_iv() == INF {
        first.extend(unmatched.iter().map(|&(span, value)| (span.rs, INF, value)));
    }
    first.sort_unstable();
    // Role w: consumes (iv of enqueue, rs of dequeue).
    let mut second: Vec<(u32, u32, i64)> = matched
        .iter()
        .map(|p| (p.add.iv, p.remove.rs, p.value))
        .collect();
    second.sort_unstable();

    let mut cursor = 0;
    // Running maximum of dequeue invocations among values whose enqueue is
    // forced before the current `w`'s enqueue.
    let mut latest_deq = 0u32;
    let mut latest_value = 0i64;
    for &(enq_iv, deq_rs, w) in &second {
        while cursor < first.len() && first[cursor].0 < enq_iv {
            if first[cursor].1 > latest_deq {
                latest_deq = first[cursor].1;
                latest_value = first[cursor].2;
            }
            cursor += 1;
        }
        if latest_deq > deq_rs {
            let tail = if latest_deq == INF {
                "never dequeued".to_string()
            } else {
                format!("dequeued after {w}")
            };
            return Some(
                BadPattern::new(
                    "order-inversion",
                    format!("FIFO inversion: {latest_value} enqueued before {w} but {tail}"),
                )
                .with_values(vec![latest_value, w]),
            );
        }
    }
    None
}

/// Two-gate Kahn topological sort producing a FIFO value order that extends
/// the real-time constraints between the values: the enqueue and the dequeue
/// interval orders, and the cross-chain one — when `deq(v)` responds before
/// `enq(w)` is invoked, `w` is enqueued after `v` is dequeued, so `v` comes
/// first. (Its converse, `enq(w)` before `deq(v)`, constrains nothing.)
///
/// A value is emitted once it is minimal among the values not yet emitted
/// under both gates: its enqueue invocation precedes every remaining enqueue
/// response *and* every remaining dequeue response, and its dequeue
/// invocation precedes every remaining dequeue response. The minima only grow
/// as values are emitted, so eligibility is monotone: after four sorts the
/// whole sort is one pass over each sorted list, O(n log n) in all. Values are
/// emitted in the order they became eligible. Returns `None` if the
/// constraints have no common extension the greedy can find (callers fall
/// back to the general search).
fn fifo_value_order(matched: &[Pair]) -> Option<Vec<usize>> {
    const ENQ_GATE: u8 = 1;
    const DEQ_GATE: u8 = 2;
    const EMITTED: u8 = 4;
    let n = matched.len();
    // `(key, value index)` of every value, sorted; keys are event indices,
    // distinct but for `INF`, and the index breaks those ties.
    let sorted = |key: fn(&Pair) -> u32| {
        let mut list: Vec<(u32, usize)> = matched.iter().map(key).zip(0..).collect();
        list.sort_unstable();
        list
    };
    let (by_enq_iv, by_deq_iv) = (sorted(|p| p.add.iv), sorted(|p| p.remove.iv));
    let (by_enq_rs, by_deq_rs) = (sorted(|p| p.add.rs), sorted(|p| p.remove.rs));
    let mut state = vec![0u8; n];
    // The eligible values, in the order they became so; the first `emitted`
    // of them are emitted.
    let mut order = Vec::with_capacity(n);
    let mut emitted = 0;
    let (mut enq_iv, mut deq_iv, mut enq_rs, mut deq_rs) = (0, 0, 0, 0);
    while emitted < n {
        loop {
            // The least response among the values not emitted yet.
            let least = |list: &[(u32, usize)], pos: &mut usize| {
                while list
                    .get(*pos)
                    .is_some_and(|&(_, i)| state[i] & EMITTED != 0)
                {
                    *pos += 1;
                }
                list.get(*pos).map_or(INF, |&(rs, _)| rs)
            };
            let min_enq_rs = least(&by_enq_rs, &mut enq_rs);
            let min_deq_rs = least(&by_deq_rs, &mut deq_rs);
            let mut advanced = false;
            let mut open = |list: &[(u32, usize)], pos: &mut usize, gate: u8, bound: u32| {
                while let Some(&(_, i)) = list.get(*pos).filter(|&&(iv, _)| iv < bound) {
                    *pos += 1;
                    advanced = true;
                    state[i] |= gate;
                    if state[i] == ENQ_GATE | DEQ_GATE {
                        order.push(i);
                    }
                }
            };
            open(
                &by_enq_iv,
                &mut enq_iv,
                ENQ_GATE,
                min_enq_rs.min(min_deq_rs),
            );
            open(&by_deq_iv, &mut deq_iv, DEQ_GATE, min_deq_rs);
            if !advanced {
                break;
            }
        }
        let &i = order.get(emitted)?;
        state[i] |= EMITTED;
        emitted += 1;
    }
    Some(order)
}

/// Merges the enqueue chain (matched values in FIFO order, then unmatched
/// ones), the dequeue chain and the empty-dequeues into one sequence.
///
/// Empty-dequeues are anchored first: the simulated queue is empty exactly at
/// the *gaps* of the pair sequence (after the first `g` values have been both
/// enqueued and dequeued, before value `g + 1` is enqueued), and an
/// empty-dequeue must precede the first pair whose enqueue or dequeue is
/// invoked after the empty's response. Each empty is therefore assigned that
/// latest feasible gap up front, and the enqueue cursor is barred from
/// crossing a gap that still holds empties — a plain cross-class deadline
/// race would happily start the next enqueue and lock the empty out until
/// the matching dequeue, which may already be invoked too late. Between
/// barriers the two chains interleave by earliest *effective* deadline (each
/// chain position inherits the tightest deadline among its successors,
/// Lawler-style). The sequence replays correctly by construction; only
/// real-time precedence remains to be validated by the caller.
fn merge_schedule(
    matched: &[Pair],
    order: &[usize],
    unmatched: &[(Span, i64)],
    empties: &[Span],
) -> Vec<Span> {
    let pairs = order.len();
    let enq_total = pairs + unmatched.len();
    let enq_span = |pos: usize| -> Span {
        if pos < pairs {
            matched[order[pos]].add
        } else {
            unmatched[pos - pairs].0
        }
    };

    let mut deq_deadline = vec![INF; pairs.max(1)];
    for j in (0..pairs).rev() {
        let next = if j + 1 < pairs {
            deq_deadline[j + 1]
        } else {
            INF
        };
        deq_deadline[j] = matched[order[j]].remove.rs.min(next);
    }
    let mut enq_deadline = vec![INF; enq_total.max(1)];
    for j in (0..enq_total).rev() {
        let next = if j + 1 < enq_total {
            enq_deadline[j + 1]
        } else {
            INF
        };
        let mut deadline = enq_span(j).rs.min(next);
        if j < pairs {
            deadline = deadline.min(deq_deadline[j]);
        }
        enq_deadline[j] = deadline;
    }

    // Gap assignment. An empty at gap `g` is feasible iff every pair before
    // the gap is invoked before the empty responds (`pm[g] <= rs`, upper
    // bound K) and every pair from the gap on — and every unmatched enqueue
    // — responds after the empty is invoked (`sm[g] >= iv`, lower bound L).
    // Occupying a gap also serializes the chains around it (the barrier
    // below), which is only realizable when `sm[g] >= pm[g]`. Within [L, K]
    // the *earliest* serializable gap is chosen: a witness linearization
    // places the empty at some serializable gap in [L, K], and the earliest
    // one is never later than the witness's, so it inherits feasibility.
    // Both bound arrays are monotone, so each empty costs two binary
    // searches. Sorting by (gap, response) keeps consecutive empties
    // mutually realizable: an empty never precedes one that responds before
    // its own invocation.
    let mut pm = vec![0u32; pairs + 1];
    for g in 1..=pairs {
        let pair = matched[order[g - 1]];
        pm[g] = pm[g - 1].max(pair.add.iv).max(pair.remove.iv);
    }
    let mut sm = vec![INF; pairs + 1];
    sm[pairs] = unmatched.iter().map(|&(s, _)| s.rs).min().unwrap_or(INF);
    for g in (0..pairs).rev() {
        let pair = matched[order[g]];
        sm[g] = sm[g + 1].min(pair.add.rs).min(pair.remove.rs);
    }
    let mut next_serializable = vec![usize::MAX; pairs + 2];
    for g in (0..=pairs).rev() {
        next_serializable[g] = if sm[g] >= pm[g] {
            g
        } else {
            next_serializable[g + 1]
        };
    }
    let mut empties: Vec<(usize, Span)> = empties
        .iter()
        .map(|&span| {
            let l = sm.partition_point(|&rs| rs < span.iv);
            // `pm[0] == 0 <= span.rs`, so the partition point is >= 1.
            let k = pm.partition_point(|&iv| iv <= span.rs) - 1;
            // When no serializable gap fits in [L, K] the empty is emitted at
            // K anyway; the caller's validation rejects the sequence and the
            // monitor falls back instead of guessing.
            (next_serializable[l].min(k), span)
        })
        .collect();
    empties.sort_unstable_by_key(|&(gap, span)| (gap, span.rs));

    let mut sequence = Vec::with_capacity(enq_total + pairs + empties.len());
    let (mut e, mut d, mut x) = (0usize, 0usize, 0usize);
    while e < enq_total || d < pairs || x < empties.len() {
        let next_gap = empties.get(x).map_or(usize::MAX, |&(gap, _)| gap);
        if e == d && e == next_gap {
            sequence.push(empties[x].1);
            x += 1;
            continue;
        }
        let deq_ok = d < pairs && d < e;
        // The barrier: `e` stops at the next occupied gap (this also holds
        // unmatched enqueues, whose chain positions are `>= pairs`, behind
        // every remaining empty).
        let enq_ok = e < enq_total && e < next_gap;
        if deq_ok && (!enq_ok || deq_deadline[d] <= enq_deadline[e]) {
            sequence.push(matched[order[d]].remove);
            d += 1;
        } else {
            // Progress is guaranteed: while empties remain, `e <= next_gap
            // <= pairs`, so the only stuck shape would be `e == d ==
            // next_gap` — the empty branch above.
            debug_assert!(enq_ok);
            sequence.push(enq_span(e));
            e += 1;
        }
    }
    sequence
}

#[cfg(test)]
mod tests {
    use super::super::{
        check_specialized, FallbackReason, LinSpec, Route, SpecializedResult, StrategyChecker,
    };
    use linrv_history::{HistoryBuilder, OpValue, ProcessId};
    use linrv_spec::ops::queue as ops;
    use linrv_spec::{ObjectKind, QueueSpec};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run(b: HistoryBuilder) -> SpecializedResult {
        check_specialized(ObjectKind::Queue, &b.build())
    }

    /// A settled cut folds the enqueues still queued into its base and moves only
    /// over an unambiguous queue part: a value enqueued twice, a dequeue of a value
    /// the part never enqueued, a foreign operation or an earlier cut leave it as it
    /// is.
    #[test]
    fn a_settled_cut_folds_only_unambiguous_queue_parts() {
        use super::Settled;
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(1), OpValue::Bool(true));
        b.complete(p(0), ops::enqueue(2), OpValue::Bool(true));
        b.complete(p(0), ops::dequeue(), OpValue::Int(1));
        b.complete(p(0), ops::dequeue(), OpValue::Empty);
        b.complete(p(0), ops::enqueue(3), OpValue::Bool(true));
        b.complete(p(0), ops::enqueue(2), OpValue::Bool(true));
        let (records, _) = b.build().index();
        let mut settled = Settled::default();
        assert!(settled.advance(&records, 4));
        assert!(settled.advance(&records, 8));
        let base: Vec<_> = settled
            .base()
            .iter()
            .map(|r| r.operation.arg.as_int())
            .collect();
        assert_eq!(base, [Some(2)], "enqueue(1) was answered");
        assert_eq!(settled.window(&records).len(), 2);
        assert!(!settled.advance(&records, 4), "an earlier cut");
        assert!(settled.advance(&records, 10));
        assert!(!settled.advance(&records, 12), "2 is enqueued twice");
        assert_eq!(settled.cut(), 10);

        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::dequeue(), OpValue::Int(5));
        let (records, _) = b.build().index();
        assert!(
            !Settled::default().advance(&records, 2),
            "5 was never enqueued"
        );
        let mut b = HistoryBuilder::new();
        b.complete(p(0), linrv_spec::ops::stack::push(5), OpValue::Bool(true));
        let (records, _) = b.build().index();
        let mut settled = Settled::default();
        assert!(!settled.advance(&records, 2), "a push");
        assert_eq!(settled, Settled::default());
    }

    #[test]
    fn sequential_fifo_history_is_member() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(1), OpValue::Bool(true));
        b.complete(p(0), ops::enqueue(2), OpValue::Bool(true));
        b.complete(p(0), ops::dequeue(), OpValue::Int(1));
        b.complete(p(0), ops::dequeue(), OpValue::Int(2));
        b.complete(p(0), ops::dequeue(), OpValue::Empty);
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn overlapping_enqueue_and_dequeue_are_member() {
        // Figure 5 (bottom): enq(1) and deq():1 overlap.
        let mut b = HistoryBuilder::new();
        let enq = b.invoke(p(0), ops::enqueue(1));
        let deq = b.invoke(p(1), ops::dequeue());
        b.respond(deq, OpValue::Int(1));
        b.respond(enq, OpValue::Bool(true));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn pending_enqueue_explains_a_completed_dequeue() {
        let mut b = HistoryBuilder::new();
        let _enq = b.invoke(p(0), ops::enqueue(7));
        let deq = b.invoke(p(1), ops::dequeue());
        b.respond(deq, OpValue::Int(7));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn dequeue_of_never_enqueued_value_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::dequeue(), OpValue::Int(41));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "never-added");
        assert_eq!(pattern.values, [41]);
        assert!(pattern.message.contains("never enqueued"));
    }

    #[test]
    fn double_dequeue_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(5), OpValue::Bool(true));
        b.complete(p(0), ops::dequeue(), OpValue::Int(5));
        b.complete(p(1), ops::dequeue(), OpValue::Int(5));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn forced_fifo_inversion_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(1), OpValue::Bool(true));
        b.complete(p(0), ops::enqueue(2), OpValue::Bool(true));
        b.complete(p(0), ops::dequeue(), OpValue::Int(2));
        b.complete(p(0), ops::dequeue(), OpValue::Int(1));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "order-inversion");
        assert!(pattern.message.contains("FIFO inversion"), "{pattern}");
    }

    #[test]
    fn never_dequeued_value_blocking_a_later_one_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(1), OpValue::Bool(true));
        b.complete(p(0), ops::enqueue(2), OpValue::Bool(true));
        b.complete(p(0), ops::dequeue(), OpValue::Int(2));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn a_pending_dequeue_excuses_the_blocked_value() {
        // Same as above, but a pending Dequeue may still consume value 1.
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(1), OpValue::Bool(true));
        b.complete(p(0), ops::enqueue(2), OpValue::Bool(true));
        let _pending = b.invoke(p(1), ops::dequeue());
        b.complete(p(0), ops::dequeue(), OpValue::Int(2));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn a_pending_dequeue_takes_the_value_an_empty_dequeue_forces_out() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(1), OpValue::Bool(true));
        let _pending = b.invoke(p(1), ops::dequeue());
        b.complete(p(0), ops::dequeue(), OpValue::Empty);
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn where_an_empty_dequeue_lands_can_force_out_more_values() {
        // `recorded queue seed 51 processes 5 faulty Some(2) first 20 events`
        // of the verdict matrix. Only 3000001 answers before an enqueue of a
        // dequeued value is invoked (rule 2). But the empty dequeue must land
        // after deq→3000002, which is invoked after 2 and 1000001 are
        // enqueued, so the pending dequeues must take those two as well.
        let mut b = HistoryBuilder::new();
        let enq1 = b.invoke(p(0), ops::enqueue(1)); // 0
        let enq3000001 = b.invoke(p(3), ops::enqueue(3_000_001)); // 1
        let deq1 = b.invoke(p(1), ops::dequeue()); // 2
        b.respond(enq1, OpValue::Bool(true)); // 3
        b.respond(enq3000001, OpValue::Bool(true)); // 4
        let enq2 = b.invoke(p(0), ops::enqueue(2)); // 5
        let empty = b.invoke(p(4), ops::dequeue()); // 6
        b.respond(deq1, OpValue::Int(1)); // 7
        b.complete(p(3), ops::enqueue(3_000_002), OpValue::Bool(true)); // 8, 9
        b.complete(p(1), ops::enqueue(1_000_001), OpValue::Bool(true)); // 10, 11
        b.respond(enq2, OpValue::Bool(true)); // 12
        let deq3000002 = b.invoke(p(1), ops::dequeue()); // 13
        let _pending = b.invoke(p(0), ops::dequeue()); // 14
        let _pending = b.invoke(p(2), ops::dequeue()); // 15
        b.respond(deq3000002, OpValue::Int(3_000_002)); // 16
        let _pending = b.invoke(p(3), ops::dequeue()); // 17
        let _pending = b.invoke(p(1), ops::enqueue(1_000_002)); // 18
        b.respond(empty, OpValue::Empty); // 19
        let history = b.build();
        assert!(LinSpec::new(QueueSpec::new()).check(&history).is_member());
        let (verdict, route) = StrategyChecker::new(QueueSpec::new()).check_routed(&history);
        assert!(verdict.is_member());
        assert_eq!(route, Route::Specialized);
    }

    #[test]
    fn pending_dequeues_take_values_in_order_of_enqueue_response() {
        // Both values are forced out. 2's enqueue answers first, and the
        // first empty dequeue needs it gone, so the earlier pending dequeue
        // takes 2 and the later one 1, though 1's enqueue was invoked first.
        let mut b = HistoryBuilder::new();
        let enq1 = b.invoke(p(0), ops::enqueue(1)); // 0
        b.complete(p(1), ops::enqueue(2), OpValue::Bool(true)); // 1, 2
        let _pending = b.invoke(p(1), ops::dequeue()); // 3
        b.complete(p(2), ops::dequeue(), OpValue::Empty); // 4, 5
        let _pending = b.invoke(p(3), ops::dequeue()); // 6
        b.respond(enq1, OpValue::Bool(true)); // 7
        b.complete(p(2), ops::dequeue(), OpValue::Empty); // 8, 9
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn more_values_forced_out_than_pending_dequeues_is_never_member() {
        // 1 and 2 must leave before 3; one pending dequeue takes only one.
        let mut b = HistoryBuilder::new();
        for value in 1..=3 {
            b.complete(p(0), ops::enqueue(value), OpValue::Bool(true));
        }
        let _pending = b.invoke(p(1), ops::dequeue());
        b.complete(p(0), ops::dequeue(), OpValue::Int(3));
        let history = b.build();
        let result = check_specialized(ObjectKind::Queue, &history);
        assert_ne!(result, SpecializedResult::Member);
        let (verdict, _) = StrategyChecker::new(QueueSpec::new()).check_routed(&history);
        assert!(verdict.is_violation());
    }

    #[test]
    fn more_values_forced_out_than_pending_dequeues_is_a_bad_pattern() {
        // Forced out by a dequeued value: 1 and 2 must leave before 3.
        let mut b = HistoryBuilder::new();
        for value in 1..=3 {
            b.complete(p(0), ops::enqueue(value), OpValue::Bool(true));
        }
        let _pending = b.invoke(p(1), ops::dequeue());
        b.complete(p(0), ops::dequeue(), OpValue::Int(3));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "order-inversion");
        assert_eq!(pattern.values, vec![1, 2, 3]);
        assert!(
            pattern.message.contains("only 1 pending dequeue "),
            "{pattern}"
        );

        // Forced out by an empty dequeue: all three must leave before it.
        let mut b = HistoryBuilder::new();
        for value in 1..=3 {
            b.complete(p(0), ops::enqueue(value), OpValue::Bool(true));
        }
        let _first = b.invoke(p(1), ops::dequeue());
        let _second = b.invoke(p(2), ops::dequeue());
        b.complete(p(0), ops::dequeue(), OpValue::Empty);
        let history = b.build();
        let SpecializedResult::NotMember(pattern) = check_specialized(ObjectKind::Queue, &history)
        else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "covered-empty");
        assert_eq!(pattern.values, vec![1, 2, 3]);
        assert!(
            pattern.message.contains("only 2 pending dequeues "),
            "{pattern}"
        );
        assert!(!crate::GenLinObject::contains(
            &LinSpec::new(QueueSpec::new()),
            &history
        ));
    }

    #[test]
    fn empty_dequeue_in_a_covered_window_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(1), OpValue::Bool(true));
        b.complete(p(0), ops::dequeue(), OpValue::Empty);
        b.complete(p(0), ops::dequeue(), OpValue::Int(1));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "covered-empty");
        assert!(pattern.message.contains("empty"), "{pattern}");
    }

    #[test]
    fn concurrent_empty_dequeue_is_member() {
        // The empty dequeue overlaps the enqueue: it may linearize first.
        let mut b = HistoryBuilder::new();
        let enq = b.invoke(p(0), ops::enqueue(1));
        let deq = b.invoke(p(1), ops::dequeue());
        b.respond(deq, OpValue::Empty);
        b.respond(enq, OpValue::Bool(true));
        b.complete(p(0), ops::dequeue(), OpValue::Int(1));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn duplicate_enqueues_force_fallback() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(3), OpValue::Bool(true));
        b.complete(p(0), ops::enqueue(3), OpValue::Bool(true));
        b.complete(p(0), ops::dequeue(), OpValue::Int(3));
        assert_eq!(
            run(b),
            SpecializedResult::Fallback(FallbackReason::Ambiguous)
        );
    }

    #[test]
    fn wrong_response_shapes_are_violations() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::enqueue(1), OpValue::Bool(false));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));

        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::dequeue(), OpValue::Bool(true));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));

        let mut b = HistoryBuilder::new();
        b.complete(p(0), linrv_spec::ops::stack::pop(), OpValue::Empty);
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn a_dequeue_answered_before_an_enqueue_is_invoked_orders_their_values() {
        // deq→4 is invoked before deq→3, but deq→3 answers before enq(4) is
        // invoked, so 3 precedes 4: the FIFO order is 2, 3, 4.
        let mut b = HistoryBuilder::new();
        let deq2 = b.invoke(p(0), ops::dequeue()); // 0
        let enq2 = b.invoke(p(1), ops::enqueue(2)); // 1
        b.respond(deq2, OpValue::Int(2)); // 2
        let deq4 = b.invoke(p(0), ops::dequeue()); // 3
        b.respond(enq2, OpValue::Bool(true)); // 4
        let enq3 = b.invoke(p(1), ops::enqueue(3)); // 5
        let deq3 = b.invoke(p(2), ops::dequeue()); // 6
        b.respond(deq3, OpValue::Int(3)); // 7
        let enq4 = b.invoke(p(2), ops::enqueue(4)); // 8
        b.respond(enq3, OpValue::Bool(true)); // 9
        b.respond(deq4, OpValue::Int(4)); // 10
        b.respond(enq4, OpValue::Bool(true)); // 11
        let history = b.build();
        assert_eq!(
            check_specialized(ObjectKind::Queue, &history),
            SpecializedResult::Member
        );
        let checker = StrategyChecker::new(QueueSpec::new());
        let (verdict, route) = checker.check_routed(&history);
        assert!(verdict.is_member());
        assert_eq!(route, Route::Specialized);
    }

    #[test]
    fn empty_history_is_member() {
        assert_eq!(run(HistoryBuilder::new()), SpecializedResult::Member);
    }
}
