//! Specialized set monitor for complete histories.
//!
//! The set factorizes per element: a sequential history is legal iff every
//! per-element projection is legal, and independently realizable per-element
//! orders merge into one global linearization (pick points per element; the
//! merged point order extends real-time precedence and projects back onto
//! each element's order). So the monitor decomposes by element, checks sound
//! count/observer bad patterns, and builds each element's order with an
//! alternating add/remove chain plus an earliest-deadline observer state
//! machine. No ambiguity fallback is needed: successful adds and removes of
//! one element alternate in every legal order, so sorting each class by
//! response gives the only chain shape worth trying; failure to validate is
//! an [`Undecided`](super::FallbackReason::Undecided) fallback, never a
//! verdict. Pending operations fall back.

use super::util::{respects_precedence, Span};
use super::{BadPattern, FallbackReason, SpecializedResult};
use linrv_history::{OpRecord, OpValue};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

#[derive(Default)]
struct Element {
    /// Successful adds / removes (`true` responses), the state mutators.
    adds: Vec<Span>,
    removes: Vec<Span>,
    /// Operations legal only while the element is present: failed adds and
    /// `Contains` returning `true`.
    present_obs: Vec<Span>,
    /// Operations legal only while the element is absent: failed removes and
    /// `Contains` returning `false`.
    absent_obs: Vec<Span>,
}

pub(super) fn check(records: &[OpRecord]) -> SpecializedResult {
    let mut elements: BTreeMap<i64, Element> = BTreeMap::new();
    for record in records {
        let span = Span::new(record.invocation_index, record.response_index);
        let kind = record.operation.kind.as_str();
        if !matches!(kind, "Add" | "Remove" | "Contains") {
            return SpecializedResult::NotMember(BadPattern::new(
                "bad-response",
                format!("{kind} is not a set operation"),
            ));
        }
        let Some(value) = record.operation.arg.as_int() else {
            return SpecializedResult::Fallback(FallbackReason::Unsupported);
        };
        let flag = match &record.response {
            Some(OpValue::Bool(flag)) => *flag,
            Some(other) => {
                return SpecializedResult::NotMember(
                    BadPattern::new(
                        "bad-response",
                        format!("{kind}({value}) responded {other}, expected a boolean"),
                    )
                    .with_values(vec![value]),
                );
            }
            None => unreachable!("pending operations force a fallback in the dispatch"),
        };
        let element = elements.entry(value).or_default();
        match (kind, flag) {
            ("Add", true) => element.adds.push(span),
            ("Remove", true) => element.removes.push(span),
            ("Add", false) | ("Contains", true) => element.present_obs.push(span),
            ("Remove", false) | ("Contains", false) => element.absent_obs.push(span),
            _ => unreachable!(),
        }
    }

    for (&value, element) in &mut elements {
        // Counting bad patterns hold in every sequential order: mutators of
        // one element alternate add, remove, add, … starting from absent.
        if element.removes.len() > element.adds.len() {
            return SpecializedResult::NotMember(
                BadPattern::new(
                    "duplicate-remove",
                    format!(
                        "element {value} removed {} times but added only {} times",
                        element.removes.len(),
                        element.adds.len()
                    ),
                )
                .with_values(vec![value]),
            );
        }
        if element.adds.len() > element.removes.len() + 1 {
            return SpecializedResult::NotMember(
                BadPattern::new(
                    "duplicate-add",
                    format!(
                        "element {value} added {} times with only {} removals",
                        element.adds.len(),
                        element.removes.len()
                    ),
                )
                .with_values(vec![value]),
            );
        }
        if element.adds.is_empty() && !element.present_obs.is_empty() {
            return SpecializedResult::NotMember(
                BadPattern::new(
                    "never-added",
                    format!("element {value} observed present but never successfully added"),
                )
                .with_values(vec![value]),
            );
        }
        match realize(element) {
            Some(order) if respects_precedence(order.iter().copied()) => {}
            _ => return SpecializedResult::Fallback(FallbackReason::Undecided),
        }
    }
    SpecializedResult::Member
}

/// Builds a candidate order for one element, or `None` when the greedy gets
/// stuck. Replay is valid by construction: the chain alternates starting
/// absent, and observers are emitted only in their matching state.
fn realize(element: &mut Element) -> Option<Vec<Span>> {
    element.adds.sort_unstable_by_key(|span| span.rs);
    element.removes.sort_unstable_by_key(|span| span.rs);
    // chain[0] = adds[0], chain[1] = removes[0], chain[2] = adds[1], …
    let chain_len = element.adds.len() + element.removes.len();
    let chain = |i: usize| -> Span {
        if i % 2 == 0 {
            element.adds[i / 2]
        } else {
            element.removes[i / 2]
        }
    };
    let mut present: BinaryHeap<Reverse<(u32, u32)>> = element
        .present_obs
        .iter()
        .map(|span| Reverse((span.rs, span.iv)))
        .collect();
    let mut absent: BinaryHeap<Reverse<(u32, u32)>> = element
        .absent_obs
        .iter()
        .map(|span| Reverse((span.rs, span.iv)))
        .collect();

    let mut order = Vec::with_capacity(chain_len + present.len() + absent.len());
    let mut next_chain = 0;
    loop {
        // The element is present after an odd number of chain mutators.
        let (eligible, blocked) = if next_chain % 2 == 1 {
            (&mut present, &mut absent)
        } else {
            (&mut absent, &mut present)
        };
        let chain_rs = (next_chain < chain_len).then(|| chain(next_chain).rs);
        match (eligible.peek(), chain_rs) {
            // Earliest deadline first between the eligible observer and the
            // next mutator.
            (Some(&Reverse((rs, iv))), Some(c_rs)) if rs < c_rs => {
                eligible.pop();
                order.push(Span { iv, rs });
            }
            (Some(&Reverse((rs, iv))), None) => {
                eligible.pop();
                order.push(Span { iv, rs });
            }
            (_, Some(_)) => {
                // Advance the chain: either it is the most urgent op, or a
                // blocked observer needs the state flipped.
                order.push(chain(next_chain));
                next_chain += 1;
            }
            (None, None) => {
                // Only observers of the wrong state remain: stuck.
                return blocked.is_empty().then_some(order);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{check_specialized, FallbackReason, SpecializedResult};
    use linrv_history::{HistoryBuilder, OpValue, ProcessId};
    use linrv_spec::ops::set as ops;
    use linrv_spec::ObjectKind;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run(b: HistoryBuilder) -> SpecializedResult {
        check_specialized(ObjectKind::Set, &b.build())
    }

    #[test]
    fn add_contains_remove_round_trip_is_member() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::contains(7), OpValue::Bool(false));
        b.complete(p(0), ops::add(7), OpValue::Bool(true));
        b.complete(p(0), ops::contains(7), OpValue::Bool(true));
        b.complete(p(0), ops::add(7), OpValue::Bool(false));
        b.complete(p(0), ops::remove(7), OpValue::Bool(true));
        b.complete(p(0), ops::remove(7), OpValue::Bool(false));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn elements_are_independent() {
        let mut b = HistoryBuilder::new();
        let add3 = b.invoke(p(0), ops::add(3));
        b.complete(p(1), ops::add(8), OpValue::Bool(true));
        b.respond(add3, OpValue::Bool(true));
        b.complete(p(1), ops::remove(3), OpValue::Bool(true));
        b.complete(p(0), ops::contains(8), OpValue::Bool(true));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn contains_true_without_add_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::contains(1), OpValue::Bool(true));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "never-added");
        assert!(
            pattern.message.contains("never successfully added"),
            "{pattern}"
        );
    }

    #[test]
    fn more_removes_than_adds_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::add(5), OpValue::Bool(true));
        b.complete(p(0), ops::remove(5), OpValue::Bool(true));
        b.complete(p(0), ops::remove(5), OpValue::Bool(true));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn two_successful_adds_without_a_remove_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::add(5), OpValue::Bool(true));
        b.complete(p(0), ops::add(5), OpValue::Bool(true));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn stale_absent_observation_falls_back_for_the_general_search() {
        // contains(2)=false strictly after the add completed: no sound bad
        // pattern, but no realizable order either — the monitor declines and
        // the general search will reject.
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::add(2), OpValue::Bool(true));
        b.complete(p(0), ops::contains(2), OpValue::Bool(false));
        assert_eq!(
            run(b),
            SpecializedResult::Fallback(FallbackReason::Undecided)
        );
    }

    #[test]
    fn concurrent_observers_may_see_either_state() {
        let mut b = HistoryBuilder::new();
        let add = b.invoke(p(0), ops::add(4));
        b.complete(p(1), ops::contains(4), OpValue::Bool(false));
        b.complete(p(2), ops::contains(4), OpValue::Bool(true));
        b.respond(add, OpValue::Bool(true));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn pending_operations_fall_back() {
        let mut b = HistoryBuilder::new();
        b.invoke(p(0), ops::add(1));
        assert_eq!(run(b), SpecializedResult::Fallback(FallbackReason::Pending));
    }
}
