//! Specialized LIFO-stack monitor for unambiguous, complete histories.
//!
//! The insert/remove matching and the `covered-empty` pattern are shared
//! (`matching`). What is the stack's own:
//!
//! * its order pattern: in a linearization, value lifetimes (push point to
//!   pop point) form a *laminar* family — any two are nested or disjoint —
//!   so a lifetime forced to start before another's and end inside it is a
//!   violation (a forced crossing);
//! * its constructive phase: it simulates a stack, pushing and popping by
//!   earliest deadline, and validates the emitted order; an unvalidated
//!   construction falls back to the general search.
//!
//! Both assume a complete history: the dispatch sends a stack history with a
//! pending operation to the general search.

use super::matching::{Kind, Matching, Pair};
use super::util::{compress, respects_precedence, PrefixMax, Span, INF};
use super::BadPattern;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(super) const STACK: Kind = Kind {
    add: "Push",
    remove: "Pop",
    object: "stack",
    added: "pushed",
    removed: "popped",
    covered_empty: "a pop observed an empty stack inside a window where the stack \
                    is necessarily non-empty",
    order_pattern: forced_crossing,
    construct: |matching| Ok(simulate(matching)),
};

/// Forced lifetime crossings.
///
/// Matched `v`, `w`: `v`'s lifetime is forced to start before `w`'s
/// (`rs(push v) < iv(push w)`), end before `w`'s (`rs(pop v) < iv(pop w)`),
/// yet overlap it (`rs(push w) < iv(pop v)`) — nested-or-disjoint is
/// impossible. With `v` unmatched (lifetime unbounded): `w` forced to start
/// before `v` and `v` forced to start before `w` ends.
fn forced_crossing(matching: &Matching) -> Option<BadPattern> {
    let Matching {
        matched, unmatched, ..
    } = matching;
    // Matched/matched: sweep w by push invocation; v's enter once their push
    // response is passed; Fenwick prefix-max over rs(pop v) answers
    // "among entered v with rs(pop v) < iv(pop w), the latest iv(pop v)".
    let pop_rs = compress(matched.iter().map(|p| p.remove.rs).collect());
    let mut tree = PrefixMax::new(pop_rs.len());
    let mut by_push_rs: Vec<&Pair> = matched.iter().collect();
    by_push_rs.sort_unstable_by_key(|p| p.add.rs);
    let mut by_push_iv: Vec<&Pair> = matched.iter().collect();
    by_push_iv.sort_unstable_by_key(|p| p.add.iv);
    let mut cursor = 0;
    for w in &by_push_iv {
        while cursor < by_push_rs.len() && by_push_rs[cursor].add.rs < w.add.iv {
            let v = by_push_rs[cursor];
            let rank = pop_rs.binary_search(&v.remove.rs).expect("compressed");
            tree.update(rank, v.remove.iv);
            cursor += 1;
        }
        // Entered v with rs(pop v) < iv(pop w):
        let prefix = pop_rs.partition_point(|&rs| rs < w.remove.iv);
        if prefix > 0 && tree.query(prefix - 1) > w.add.rs {
            return Some(
                BadPattern::new(
                    "order-inversion",
                    format!(
                        "LIFO crossing: {}'s lifetime is forced to cross another value's \
                 (neither nested nor disjoint)",
                        w.value
                    ),
                )
                .with_values(vec![w.value]),
            );
        }
    }

    // Unmatched v / matched w: running max of iv(pop w) over w's whose push
    // completed before v's push invocation.
    let mut v_by_push_iv: Vec<&(Span, i64)> = unmatched.iter().collect();
    v_by_push_iv.sort_unstable_by_key(|(span, _)| span.iv);
    let mut w_by_push_rs: Vec<&Pair> = matched.iter().collect();
    w_by_push_rs.sort_unstable_by_key(|p| p.add.rs);
    let mut cursor = 0;
    let mut latest_pop_iv = 0u32;
    for &&(v, value) in &v_by_push_iv {
        while cursor < w_by_push_rs.len() && w_by_push_rs[cursor].add.rs < v.iv {
            latest_pop_iv = latest_pop_iv.max(w_by_push_rs[cursor].remove.iv);
            cursor += 1;
        }
        if latest_pop_iv > v.rs {
            return Some(
                BadPattern::new(
                    "order-inversion",
                    format!(
                        "LIFO crossing: the never-popped value {value} is forced to be pushed \
                 inside another value's lifetime and outlive it"
                    ),
                )
                .with_values(vec![value]),
            );
        }
    }
    None
}

/// Constructive phase: simulate a stack, acting by earliest deadline.
///
/// At each step the most urgent *kind* of action wins: popping down to the
/// on-stack value whose pop response is nearest, pushing (forced when the
/// nearest push response among unpushed values approaches), or serving an
/// empty-pop (which requires draining the stack). When a push is forced, the
/// value actually pushed is chosen LIFO-aware: among the values whose push
/// invocation precedes the forcing deadline (so pushing them now cannot be
/// premature), the one popped *last* goes down first — never-popped values
/// count as popped at ∞ and sink to the bottom. Matched values are never left
/// below an unmatched one (they could never be popped), so pushing an
/// unmatched value first drains the matched ones above.
///
/// The emitted order replays correctly by construction; it is a linearization
/// iff it also respects real-time precedence, which the caller checks.
/// Returns `false` when the greedy gets stuck or validation fails.
fn simulate(matching: Matching) -> bool {
    let Matching {
        matched,
        unmatched,
        mut empties,
        ..
    } = matching;
    #[derive(Clone, Copy)]
    enum Slot {
        Matched(usize),
        Unmatched,
    }

    // Unpushed values, unified id space: matched `i` = `i`, unmatched `i` =
    // `matched.len() + i`.
    let push_span = |id: usize| -> Span {
        if id < matched.len() {
            matched[id].add
        } else {
            unmatched[id - matched.len()].0
        }
    };
    let pop_deadline_key = |id: usize| -> u32 {
        if id < matched.len() {
            matched[id].remove.rs
        } else {
            INF
        }
    };
    let total_values = matched.len() + unmatched.len();
    let mut pushed = vec![false; total_values];
    // Forcing deadline: min push response over unpushed values (lazy heap).
    let mut push_rs: BinaryHeap<Reverse<(u32, usize)>> = (0..total_values)
        .map(|id| Reverse((push_span(id).rs, id)))
        .collect();
    // Values unlocked for pushing (push invocation before the current forcing
    // deadline), max-heap by pop deadline: the longest-lived goes down first.
    let mut by_push_iv: Vec<usize> = (0..total_values).collect();
    by_push_iv.sort_unstable_by_key(|&id| push_span(id).iv);
    let mut unlock_cursor = 0;
    let mut unlocked: BinaryHeap<(u32, usize)> = BinaryHeap::new();

    empties.sort_unstable_by_key(|span| span.rs);
    let mut next_empty = 0;

    let mut stack: Vec<Slot> = Vec::new();
    // Pop deadlines of matched values currently on the stack (lazy deletion).
    let mut on_stack_pops: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    let mut on_stack = vec![false; matched.len()];
    let mut sequence: Vec<Span> =
        Vec::with_capacity(2 * matched.len() + unmatched.len() + empties.len());

    // Pops the top of the stack down to and including matched value `target`;
    // `None` pops every matched value on top. Returns false on an unmatched
    // blocker (only reachable defensively: unmatched values stay below).
    let pop_down = |stack: &mut Vec<Slot>,
                    on_stack: &mut Vec<bool>,
                    sequence: &mut Vec<Span>,
                    target: Option<usize>|
     -> bool {
        while let Some(&slot) = stack.last() {
            match slot {
                Slot::Unmatched => return target.is_none(),
                Slot::Matched(j) => {
                    stack.pop();
                    on_stack[j] = false;
                    sequence.push(matched[j].remove);
                    if target == Some(j) {
                        return true;
                    }
                }
            }
        }
        target.is_none()
    };

    loop {
        while on_stack_pops
            .peek()
            .is_some_and(|Reverse((_, j))| !on_stack[*j])
        {
            on_stack_pops.pop();
        }
        while push_rs.peek().is_some_and(|Reverse((_, id))| pushed[*id]) {
            push_rs.pop();
        }
        let forcing = push_rs.peek().map(|&Reverse((rs, _))| rs);
        if let Some(forcing) = forcing {
            while unlock_cursor < total_values && push_span(by_push_iv[unlock_cursor]).iv < forcing
            {
                let id = by_push_iv[unlock_cursor];
                unlock_cursor += 1;
                if !pushed[id] {
                    unlocked.push((pop_deadline_key(id), id));
                }
            }
        }
        // (deadline, class): pop < push < empty-pop on ties.
        let mut best: Option<(u32, u8)> = None;
        if let Some(&Reverse((rs, _))) = on_stack_pops.peek() {
            best = Some((rs, 0));
        }
        if let Some(forcing) = forcing {
            let candidate = (forcing, 1);
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
                let Reverse((_, j)) = on_stack_pops.pop().expect("peeked above");
                if !pop_down(&mut stack, &mut on_stack, &mut sequence, Some(j)) {
                    return false;
                }
            }
            Some((_, 1)) => {
                let id = loop {
                    // The deadline holder's own invocation precedes its
                    // response, so it is unlocked: the heap cannot run dry.
                    let Some((_, id)) = unlocked.pop() else {
                        return false;
                    };
                    if !pushed[id] {
                        break id;
                    }
                };
                pushed[id] = true;
                if id < matched.len() {
                    stack.push(Slot::Matched(id));
                    on_stack[id] = true;
                    on_stack_pops.push(Reverse((matched[id].remove.rs, id)));
                } else {
                    // Matched values must not end up below this never-popped
                    // one: drain them first.
                    if !pop_down(&mut stack, &mut on_stack, &mut sequence, None) {
                        return false;
                    }
                    stack.push(Slot::Unmatched);
                }
                sequence.push(push_span(id));
            }
            Some((_, 2)) => {
                if !pop_down(&mut stack, &mut on_stack, &mut sequence, None) {
                    return false;
                }
                if !stack.is_empty() {
                    // Unmatched values remain: the stack can never drain.
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
    use linrv_spec::ops::stack as ops;
    use linrv_spec::ObjectKind;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run(b: HistoryBuilder) -> SpecializedResult {
        check_specialized(ObjectKind::Stack, &b.build())
    }

    #[test]
    fn sequential_lifo_history_is_member() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::push(1), OpValue::Bool(true));
        b.complete(p(0), ops::push(2), OpValue::Bool(true));
        b.complete(p(0), ops::pop(), OpValue::Int(2));
        b.complete(p(0), ops::pop(), OpValue::Int(1));
        b.complete(p(0), ops::pop(), OpValue::Empty);
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn of_several_bad_values_the_smallest_is_reported() {
        // Enough values that a hash-ordered table would not list them sorted.
        let mut b = HistoryBuilder::new();
        for value in (1..=32).rev() {
            b.complete(p(0), ops::push(value), OpValue::Bool(true));
            b.complete(p(0), ops::pop(), OpValue::Int(value));
            b.complete(p(1), ops::pop(), OpValue::Int(value));
        }
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("every value is popped twice");
        };
        assert_eq!(pattern.values, vec![1], "{pattern}");
    }

    #[test]
    fn fifo_order_on_a_stack_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::push(1), OpValue::Bool(true));
        b.complete(p(0), ops::push(2), OpValue::Bool(true));
        b.complete(p(0), ops::pop(), OpValue::Int(1));
        b.complete(p(0), ops::pop(), OpValue::Int(2));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "order-inversion");
        assert!(pattern.message.contains("crossing"), "{pattern}");
    }

    #[test]
    fn overlapping_pushes_may_pop_in_either_order() {
        let mut b = HistoryBuilder::new();
        let push1 = b.invoke(p(0), ops::push(1));
        let push2 = b.invoke(p(1), ops::push(2));
        b.respond(push1, OpValue::Bool(true));
        b.respond(push2, OpValue::Bool(true));
        b.complete(p(0), ops::pop(), OpValue::Int(1));
        b.complete(p(0), ops::pop(), OpValue::Int(2));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn pop_of_never_pushed_value_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::pop(), OpValue::Int(9));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn unmatched_value_crossing_is_a_violation() {
        // push(1) completes; push(2) starts afterwards and completes; pop():1
        // after push(2): 2 is pushed inside 1's lifetime (after 1, popped
        // later), but 2 is never popped while 1 is — forced crossing.
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::push(1), OpValue::Bool(true));
        b.complete(p(0), ops::push(2), OpValue::Bool(true));
        b.complete(p(0), ops::pop(), OpValue::Int(1));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "order-inversion");
        assert_eq!(pattern.values, [2]);
        assert!(pattern.message.contains("never-popped"), "{pattern}");
    }

    #[test]
    fn covered_empty_pop_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::push(1), OpValue::Bool(true));
        b.complete(p(0), ops::pop(), OpValue::Empty);
        b.complete(p(0), ops::pop(), OpValue::Int(1));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn duplicate_pushes_force_fallback() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::push(3), OpValue::Bool(true));
        b.complete(p(0), ops::push(3), OpValue::Bool(true));
        assert_eq!(
            run(b),
            SpecializedResult::Fallback(FallbackReason::Ambiguous)
        );
    }

    #[test]
    fn pending_operations_force_fallback() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::push(1), OpValue::Bool(true));
        let _pending = b.invoke(p(1), ops::pop());
        assert_eq!(run(b), SpecializedResult::Fallback(FallbackReason::Pending));
    }

    #[test]
    fn nested_lifetimes_with_empty_pops_are_member() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::pop(), OpValue::Empty);
        b.complete(p(0), ops::push(1), OpValue::Bool(true));
        b.complete(p(0), ops::push(2), OpValue::Bool(true));
        b.complete(p(0), ops::pop(), OpValue::Int(2));
        b.complete(p(0), ops::pop(), OpValue::Int(1));
        b.complete(p(0), ops::pop(), OpValue::Empty);
        b.complete(p(0), ops::push(3), OpValue::Bool(true));
        assert_eq!(run(b), SpecializedResult::Member);
    }
}
