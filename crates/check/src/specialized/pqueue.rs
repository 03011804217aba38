//! Specialized min-priority-queue monitor for unambiguous, complete
//! histories.
//!
//! The insert/remove matching and the `covered-empty` pattern are shared
//! (`matching`). What is the priority queue's own:
//!
//! * its order pattern: an extraction of `w` whose whole window is covered
//!   by a *smaller* value necessarily inside the queue (the minimum could
//!   not have been `w`);
//! * its constructive phase: it simulates a binary heap by earliest
//!   deadline, inserting values as late as their deadlines allow so that
//!   smaller values do not block earlier extractions of larger ones, and
//!   validates the emitted order.
//!
//! Both assume a complete history: the dispatch sends a priority-queue
//! history with a pending operation to the general search.

use super::matching::{Kind, Matching, Pair};
use super::util::{compress, respects_precedence, PrefixMax, Span, INF};
use super::BadPattern;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(super) const PRIORITY_QUEUE: Kind = Kind {
    add: "Insert",
    remove: "ExtractMin",
    object: "priority-queue",
    added: "inserted",
    removed: "extracted",
    covered_empty: "an extraction observed an empty priority queue inside a window \
                    where it is necessarily non-empty",
    order_pattern: smaller_value_present,
    construct: |matching| Ok(simulate(matching)),
};

/// An extraction returning `w` while some `v < w` is necessarily in the queue
/// for the extraction's entire window: the minimum cannot have been `w`.
///
/// `v` necessarily occupies gaps `[rs(insert v), iv(extract v) - 1]`
/// (∞-bounded when `v` is never extracted); the single-value coverage
/// condition is `rs(insert v) <= iv(extract w)` and
/// `iv(extract v) >= rs(extract w)`. Swept with a Fenwick prefix-max over
/// values in increasing value order.
fn smaller_value_present(matching: &Matching) -> Option<BadPattern> {
    let Matching {
        matched, unmatched, ..
    } = matching;
    // All values, each contributing (value, rs(insert), iv(extract) or INF).
    let mut values: Vec<(i64, u32, u32)> = matched
        .iter()
        .map(|p| (p.value, p.add.rs, p.remove.iv))
        .collect();
    values.extend(unmatched.iter().map(|&(span, value)| (value, span.rs, INF)));
    values.sort_unstable();
    let insert_rs = compress(values.iter().map(|&(_, rs, _)| rs).collect());
    let mut tree = PrefixMax::new(insert_rs.len());

    let mut extractions: Vec<&Pair> = matched.iter().collect();
    extractions.sort_unstable_by_key(|p| p.value);
    let mut cursor = 0;
    for w in extractions {
        while cursor < values.len() && values[cursor].0 < w.value {
            let (_, ins_rs, ext_iv) = values[cursor];
            let rank = insert_rs.binary_search(&ins_rs).expect("compressed");
            tree.update(rank, ext_iv);
            cursor += 1;
        }
        // v with rs(insert v) <= iv(extract w):
        let prefix = insert_rs.partition_point(|&rs| rs <= w.remove.iv);
        if prefix > 0 && tree.query(prefix - 1) >= w.remove.rs {
            return Some(
                BadPattern::new(
                    "order-inversion",
                    format!(
                        "ExtractMin returned {} while a smaller value was necessarily \
                 in the queue",
                        w.value
                    ),
                )
                .with_values(vec![w.value]),
            );
        }
    }
    None
}

/// Constructive phase: simulate a min-heap by earliest deadline.
///
/// Inserts happen only when forced (their response deadline is nearest), so
/// small values stay out of the way of earlier extractions of larger ones.
/// Serving an extraction of `w` first inserts `w` if needed, then clears
/// every smaller value by serving *its* extraction early (impossible if a
/// smaller value is never extracted — the greedy gives up). Empty-extractions
/// drain the heap the same way. The emitted order replays correctly by
/// construction; the caller's precedence validation decides membership.
fn simulate(matching: Matching) -> bool {
    let Matching {
        matched,
        unmatched,
        mut empties,
        ..
    } = matching;
    // Extraction agenda: every non-empty extraction ordered by response
    // (a linear extension of the extraction interval order), then the
    // empty-extractions merged in by the main loop.
    let mut agenda: Vec<usize> = (0..matched.len()).collect();
    agenda.sort_unstable_by_key(|&i| matched[i].remove.rs);
    let mut served = vec![false; matched.len()];
    let mut next_agenda = 0;

    empties.sort_unstable_by_key(|span| span.rs);
    let mut next_empty = 0;

    // Unified insert ids: matched i = i, unmatched i = matched.len() + i.
    let insert_span = |id: usize| -> Span {
        if id < matched.len() {
            matched[id].add
        } else {
            unmatched[id - matched.len()].0
        }
    };
    let value_of = |id: usize| -> i64 {
        if id < matched.len() {
            matched[id].value
        } else {
            unmatched[id - matched.len()].1
        }
    };
    let total_values = matched.len() + unmatched.len();
    let mut inserted = vec![false; total_values];
    let mut insert_rs: BinaryHeap<Reverse<(u32, usize)>> = (0..total_values)
        .map(|id| Reverse((insert_span(id).rs, id)))
        .collect();
    // The simulated min-heap, keyed by value.
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
    let mut sequence: Vec<Span> = Vec::with_capacity(total_values + matched.len() + empties.len());

    let emit_insert = |id: usize,
                       inserted: &mut Vec<bool>,
                       heap: &mut BinaryHeap<Reverse<(i64, usize)>>,
                       sequence: &mut Vec<Span>| {
        inserted[id] = true;
        heap.push(Reverse((value_of(id), id)));
        sequence.push(insert_span(id));
    };
    // Serves extractions of everything in the heap smaller than `limit`
    // (everything, when None). Fails on an unextracted blocker.
    let clear_below = |limit: Option<i64>,
                       heap: &mut BinaryHeap<Reverse<(i64, usize)>>,
                       served: &mut Vec<bool>,
                       sequence: &mut Vec<Span>|
     -> bool {
        while let Some(&Reverse((value, id))) = heap.peek() {
            if limit.is_some_and(|limit| value >= limit) {
                return true;
            }
            if id >= served.len() {
                return false; // Never extracted: it can never leave the heap.
            }
            heap.pop();
            served[id] = true;
            sequence.push(matched[id].remove);
        }
        true
    };

    loop {
        while next_agenda < agenda.len() && served[agenda[next_agenda]] {
            next_agenda += 1;
        }
        while insert_rs
            .peek()
            .is_some_and(|Reverse((_, id))| inserted[*id])
        {
            insert_rs.pop();
        }
        // (deadline, class): insert < extraction < empty-extraction on ties.
        let mut best: Option<(u32, u8)> = None;
        if let Some(&Reverse((rs, _))) = insert_rs.peek() {
            best = Some((rs, 0));
        }
        if next_agenda < agenda.len() {
            let candidate = (matched[agenda[next_agenda]].remove.rs, 1);
            if best.map_or(true, |b| candidate < b) {
                best = Some(candidate);
            }
        }
        if next_empty < empties.len() {
            let candidate = (empties[next_empty].rs, 2);
            if best.map_or(true, |b| candidate < b) {
                best = Some(candidate);
            }
        }
        match best {
            Some((_, 0)) => {
                let Reverse((_, id)) = insert_rs.pop().expect("peeked above");
                emit_insert(id, &mut inserted, &mut heap, &mut sequence);
            }
            Some((_, 1)) => {
                let i = agenda[next_agenda];
                if !inserted[i] {
                    emit_insert(i, &mut inserted, &mut heap, &mut sequence);
                }
                if !clear_below(
                    Some(matched[i].value),
                    &mut heap,
                    &mut served,
                    &mut sequence,
                ) {
                    return false;
                }
                let Some(Reverse((value, id))) = heap.pop() else {
                    return false;
                };
                debug_assert!(value == matched[i].value && id == i);
                served[i] = true;
                sequence.push(matched[i].remove);
            }
            Some((_, 2)) => {
                if !clear_below(None, &mut heap, &mut served, &mut sequence) {
                    return false;
                }
                sequence.push(empties[next_empty]);
                next_empty += 1;
            }
            _ => break,
        }
    }
    respects_precedence(sequence)
}

#[cfg(test)]
mod tests {
    use super::super::{check_specialized, FallbackReason, SpecializedResult};
    use linrv_history::{HistoryBuilder, OpValue, ProcessId};
    use linrv_spec::ops::priority_queue as ops;
    use linrv_spec::ObjectKind;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run(b: HistoryBuilder) -> SpecializedResult {
        check_specialized(ObjectKind::PriorityQueue, &b.build())
    }

    #[test]
    fn min_extraction_order_is_member() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::insert(5), OpValue::Bool(true));
        b.complete(p(0), ops::insert(3), OpValue::Bool(true));
        b.complete(p(0), ops::extract_min(), OpValue::Int(3));
        b.complete(p(0), ops::extract_min(), OpValue::Int(5));
        b.complete(p(0), ops::extract_min(), OpValue::Empty);
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn extracting_the_larger_value_first_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::insert(5), OpValue::Bool(true));
        b.complete(p(0), ops::insert(3), OpValue::Bool(true));
        b.complete(p(0), ops::extract_min(), OpValue::Int(5));
        b.complete(p(0), ops::extract_min(), OpValue::Int(3));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "order-inversion");
        assert_eq!(pattern.values, [5]);
        assert!(pattern.message.contains("smaller value"), "{pattern}");
    }

    #[test]
    fn concurrent_inserts_extract_in_either_order() {
        let mut b = HistoryBuilder::new();
        let ins5 = b.invoke(p(0), ops::insert(5));
        let ins3 = b.invoke(p(1), ops::insert(3));
        b.respond(ins5, OpValue::Bool(true));
        b.respond(ins3, OpValue::Bool(true));
        b.complete(p(0), ops::extract_min(), OpValue::Int(3));
        b.complete(p(0), ops::extract_min(), OpValue::Int(5));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn larger_before_smaller_is_member_when_insert_overlaps() {
        // insert(3) overlaps the extraction of 5: 3 may be inserted after.
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::insert(5), OpValue::Bool(true));
        let ins3 = b.invoke(p(1), ops::insert(3));
        b.complete(p(0), ops::extract_min(), OpValue::Int(5));
        b.respond(ins3, OpValue::Bool(true));
        b.complete(p(0), ops::extract_min(), OpValue::Int(3));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn extraction_of_never_inserted_value_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::extract_min(), OpValue::Int(1));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn covered_empty_extraction_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::insert(9), OpValue::Bool(true));
        b.complete(p(0), ops::extract_min(), OpValue::Empty);
        b.complete(p(0), ops::extract_min(), OpValue::Int(9));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn duplicate_inserts_force_fallback() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::insert(2), OpValue::Bool(true));
        b.complete(p(0), ops::insert(2), OpValue::Bool(true));
        assert_eq!(
            run(b),
            SpecializedResult::Fallback(FallbackReason::Ambiguous)
        );
    }

    #[test]
    fn unextracted_smaller_value_blocking_extraction_is_a_violation() {
        // 1 is inserted and never extracted; extracting 5 afterwards is
        // impossible: 1 is necessarily the minimum.
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::insert(1), OpValue::Bool(true));
        b.complete(p(0), ops::insert(5), OpValue::Bool(true));
        b.complete(p(0), ops::extract_min(), OpValue::Int(5));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }
}
