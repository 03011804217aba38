//! Specialized fetch-and-increment counter monitor for complete histories.
//!
//! The counter is fully deterministic: `k` increments must return exactly the
//! values `0..k-1` (each once), which fixes the increments' relative order,
//! and a read returning `r` must sit between the `r`-th and `(r+1)`-th
//! increment. Sound bad patterns are the counting violations (duplicate or
//! out-of-range increment results, a read outside `0..=k`). The only
//! remaining freedom is where reads with equal results go relative to each
//! other, which invocation order settles, so a single validated construction
//! decides everything else. Pending operations fall back.

use super::util::{respects_precedence, Span};
use super::{BadPattern, FallbackReason, SpecializedResult};
use linrv_history::{OpRecord, OpValue};

pub(super) fn check(records: &[OpRecord]) -> SpecializedResult {
    let mut incs: Vec<(i64, Span)> = Vec::new();
    let mut reads: Vec<(i64, Span)> = Vec::new();
    for record in records {
        let span = Span::new(record.invocation_index, record.response_index);
        let kind = record.operation.kind.as_str();
        if !matches!(kind, "Inc" | "Read") {
            return SpecializedResult::NotMember(BadPattern::new(
                "bad-response",
                format!("{kind} is not a counter operation"),
            ));
        }
        match &record.response {
            Some(OpValue::Int(value)) => {
                if kind == "Inc" {
                    incs.push((*value, span));
                } else {
                    reads.push((*value, span));
                }
            }
            Some(other) => {
                return SpecializedResult::NotMember(BadPattern::new(
                    "bad-response",
                    format!("{kind} returned {other}, expected an integer"),
                ));
            }
            None => unreachable!("pending operations force a fallback in the dispatch"),
        }
    }

    // The k increment results must be a permutation of 0..k-1.
    let k = incs.len() as i64;
    incs.sort_unstable_by_key(|&(value, _)| value);
    for (expected, &(value, _)) in incs.iter().enumerate() {
        if value != expected as i64 {
            return SpecializedResult::NotMember(
                BadPattern::new(
                    "count-mismatch",
                    format!(
                        "{k} increments must return each value in 0..{k} exactly once; \
                 saw {value} where {expected} was required"
                    ),
                )
                .with_values(vec![value]),
            );
        }
    }
    for &(value, _) in &reads {
        if !(0..=k).contains(&value) {
            return SpecializedResult::NotMember(
                BadPattern::new(
                    "count-mismatch",
                    format!("Read returned {value}, impossible with {k} increments"),
                )
                .with_values(vec![value]),
            );
        }
    }

    // Construction: [reads 0] inc0 [reads 1] inc1 … inc(k-1) [reads k], reads
    // within one window sorted by invocation.
    reads.sort_unstable_by_key(|&(value, span)| (value, span.iv));
    let mut sequence: Vec<Span> = Vec::with_capacity(incs.len() + reads.len());
    let mut next_read = 0;
    for (window, &(_, inc)) in incs.iter().enumerate() {
        while next_read < reads.len() && reads[next_read].0 == window as i64 {
            sequence.push(reads[next_read].1);
            next_read += 1;
        }
        sequence.push(inc);
    }
    sequence.extend(reads[next_read..].iter().map(|&(_, span)| span));

    if respects_precedence(sequence) {
        SpecializedResult::Member
    } else {
        SpecializedResult::Fallback(FallbackReason::Undecided)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{check_specialized, FallbackReason, SpecializedResult};
    use linrv_history::{HistoryBuilder, OpValue, ProcessId};
    use linrv_spec::ops::counter as ops;
    use linrv_spec::ObjectKind;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run(b: HistoryBuilder) -> SpecializedResult {
        check_specialized(ObjectKind::Counter, &b.build())
    }

    #[test]
    fn fetch_and_increment_run_is_member() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::read(), OpValue::Int(0));
        b.complete(p(0), ops::inc(), OpValue::Int(0));
        b.complete(p(1), ops::inc(), OpValue::Int(1));
        b.complete(p(0), ops::read(), OpValue::Int(2));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn concurrent_increments_take_either_ticket() {
        let mut b = HistoryBuilder::new();
        let i0 = b.invoke(p(0), ops::inc());
        let i1 = b.invoke(p(1), ops::inc());
        b.respond(i1, OpValue::Int(0));
        b.respond(i0, OpValue::Int(1));
        b.complete(p(2), ops::read(), OpValue::Int(2));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn duplicate_increment_results_are_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::inc(), OpValue::Int(0));
        b.complete(p(0), ops::inc(), OpValue::Int(0));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn read_larger_than_increment_count_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::inc(), OpValue::Int(0));
        b.complete(p(0), ops::read(), OpValue::Int(2));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn stale_read_after_increment_falls_back_undecided() {
        // Read of 0 strictly after the increment completed: no counting
        // pattern fires, but no realizable order exists either.
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::inc(), OpValue::Int(0));
        b.complete(p(0), ops::read(), OpValue::Int(0));
        assert_eq!(
            run(b),
            SpecializedResult::Fallback(FallbackReason::Undecided)
        );
    }

    #[test]
    fn pending_operations_fall_back() {
        let mut b = HistoryBuilder::new();
        b.invoke(p(0), ops::inc());
        assert_eq!(run(b), SpecializedResult::Fallback(FallbackReason::Pending));
    }
}
