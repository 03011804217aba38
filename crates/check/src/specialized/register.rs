//! Specialized read/write register monitor for unambiguous, complete
//! histories.
//!
//! With distinct written values every read names the unique write it
//! observed, in the style of Abdulla et al.'s register analysis. The initial
//! value `0` acts as a *virtual write* preceding every event (which is why a
//! real write of `0` counts as ambiguous). Sound bad patterns: a read of a
//! never-written value, a read completing before its write was invoked, a
//! forced new–old inversion (two writes real-time ordered, yet a read of the
//! newer value completes before a read of the older one starts), and a forced
//! overwrite (some write starts after `Write(v)` completed yet finishes
//! before a read of `v` starts). For the constructive phase observe that any
//! linearization is a concatenation of *blocks* — a write followed by every
//! read of its value — so block `A` must precede block `B` exactly when some
//! operation of `A` real-time-precedes one of `B`, i.e. when
//! `min_rs(A) < max_iv(B)`. Under that relation the block minimizing
//! `max_iv` is always a Kahn source when any source exists, so emitting
//! blocks in `max_iv` order (virtual block first, reads sorted by invocation
//! inside each block) and validating the result decides membership; a failed
//! validation falls back. Pending operations fall back.

use super::util::{respects_precedence, Span, INF};
use super::{BadPattern, FallbackReason, SpecializedResult};
use linrv_history::{OpRecord, OpValue};
use std::collections::BTreeMap;

struct Block {
    write: Span,
    reads: Vec<Span>,
}

pub(super) fn check(records: &[OpRecord]) -> SpecializedResult {
    let mut writes: BTreeMap<i64, Span> = BTreeMap::new();
    let mut reads: Vec<(i64, Span)> = Vec::new();
    for record in records {
        let span = Span::new(record.invocation_index, record.response_index);
        match record.operation.kind.as_str() {
            "Write" => {
                let Some(value) = record.operation.arg.as_int() else {
                    return SpecializedResult::Fallback(FallbackReason::Unsupported);
                };
                match &record.response {
                    Some(OpValue::Bool(true)) => {}
                    Some(other) => {
                        return SpecializedResult::NotMember(
                            BadPattern::new(
                                "bad-response",
                                format!("Write({value}) acknowledged with {other} instead of true"),
                            )
                            .with_values(vec![value]),
                        );
                    }
                    None => unreachable!("pending operations force a fallback in the dispatch"),
                }
                if value == 0 || writes.insert(value, span).is_some() {
                    // A write of the initial value, or two writes of the same
                    // value: reads no longer name their write uniquely.
                    return SpecializedResult::Fallback(FallbackReason::Ambiguous);
                }
            }
            "Read" => match &record.response {
                Some(OpValue::Int(value)) => reads.push((*value, span)),
                Some(other) => {
                    return SpecializedResult::NotMember(BadPattern::new(
                        "bad-response",
                        format!("Read returned {other}, expected an integer"),
                    ));
                }
                None => unreachable!("pending operations force a fallback in the dispatch"),
            },
            other => {
                return SpecializedResult::NotMember(BadPattern::new(
                    "bad-response",
                    format!("{other} is not a register operation"),
                ));
            }
        }
    }

    let mut initial_reads: Vec<Span> = Vec::new();
    let mut by_value: BTreeMap<i64, Vec<Span>> = BTreeMap::new();
    for (value, span) in reads {
        if value == 0 {
            initial_reads.push(span);
            continue;
        }
        let Some(write) = writes.get(&value) else {
            return SpecializedResult::NotMember(
                BadPattern::new(
                    "never-added",
                    format!("Read returned {value}, which was never written"),
                )
                .with_values(vec![value]),
            );
        };
        if span.precedes(write) {
            return SpecializedResult::NotMember(
                BadPattern::new(
                    "remove-before-add",
                    format!("Read returned {value} before Write({value}) was invoked"),
                )
                .with_values(vec![value]),
            );
        }
        by_value.entry(value).or_default().push(span);
    }
    let blocks: Vec<Block> = writes
        .iter()
        .map(|(value, &write)| Block {
            write,
            reads: by_value.remove(value).unwrap_or_default(),
        })
        .collect();

    if let Some(pattern) = forced_inversion(&blocks, &initial_reads) {
        return SpecializedResult::NotMember(pattern);
    }
    if simulate(blocks, initial_reads) {
        SpecializedResult::Member
    } else {
        SpecializedResult::Fallback(FallbackReason::Undecided)
    }
}

/// The two forced-precedence bad patterns, swept in O(n log n).
fn forced_inversion(blocks: &[Block], initial_reads: &[Span]) -> Option<BadPattern> {
    let max_read_iv = |reads: &[Span]| reads.iter().map(|r| r.iv).max().unwrap_or(0);
    let min_read_rs = |reads: &[Span]| reads.iter().map(|r| r.rs).min().unwrap_or(INF);

    // New–old inversion. When `rs(W_old) < iv(W_new)` the writes are ordered,
    // every read of the old value must linearize before `W_new` and every
    // read of the new value after it; a new-read completing before an
    // old-read starts is then impossible. The virtual initial write precedes
    // every real write, so reads of `0` seed the running maximum.
    let mut by_iv: Vec<usize> = (0..blocks.len()).collect();
    by_iv.sort_unstable_by_key(|&i| blocks[i].write.iv);
    let mut by_rs: Vec<usize> = (0..blocks.len()).collect();
    by_rs.sort_unstable_by_key(|&i| blocks[i].write.rs);
    let mut run_max = max_read_iv(initial_reads);
    let mut cursor = 0;
    for &new in &by_iv {
        while cursor < by_rs.len() && blocks[by_rs[cursor]].write.rs < blocks[new].write.iv {
            run_max = run_max.max(max_read_iv(&blocks[by_rs[cursor]].reads));
            cursor += 1;
        }
        if min_read_rs(&blocks[new].reads) < run_max {
            return Some(BadPattern::new(
                "stale-read",
                "new-old inversion: a read of an overwritten value started after a \
                 read of the overwriting value completed",
            ));
        }
    }

    // Forced overwrite: a write with `iv > rs(W_v)` linearizes after `W_v`,
    // so every read of `v` must precede it; impossible once it completed
    // before the read started. Suffix minimum of write responses over blocks
    // sorted by write invocation.
    let mut suffix_min_rs = vec![INF; blocks.len() + 1];
    for (pos, &i) in by_iv.iter().enumerate().rev() {
        suffix_min_rs[pos] = suffix_min_rs[pos + 1].min(blocks[i].write.rs);
    }
    let overwrite_after = |write_rs: u32| -> u32 {
        let from = by_iv.partition_point(|&i| blocks[i].write.iv <= write_rs);
        suffix_min_rs[from]
    };
    for block in blocks {
        if max_read_iv(&block.reads) > overwrite_after(block.write.rs) {
            return Some(BadPattern::new(
                "stale-read",
                "a read observed a value after an overwriting write had already \
                 completed",
            ));
        }
    }
    // Every real write overwrites the initial value.
    if max_read_iv(initial_reads) > suffix_min_rs[0] {
        return Some(
            BadPattern::new(
                "stale-read",
                "a read observed the initial value after a write had already completed",
            )
            .with_values(vec![0]),
        );
    }
    None
}

/// Constructive phase: blocks in `max_iv` order (see the module docs for why
/// that is a valid Kahn source order), the virtual initial block first, reads
/// sorted by invocation inside each block.
fn simulate(mut blocks: Vec<Block>, mut initial_reads: Vec<Span>) -> bool {
    let block_max_iv = |block: &Block| {
        block
            .reads
            .iter()
            .map(|r| r.iv)
            .max()
            .unwrap_or(0)
            .max(block.write.iv)
    };
    blocks.sort_unstable_by_key(block_max_iv);
    initial_reads.sort_unstable_by_key(|r| r.iv);
    let mut sequence = initial_reads;
    for block in &mut blocks {
        sequence.push(block.write);
        block.reads.sort_unstable_by_key(|r| r.iv);
        sequence.append(&mut block.reads);
    }
    respects_precedence(sequence)
}

#[cfg(test)]
mod tests {
    use super::super::{check_specialized, FallbackReason, SpecializedResult};
    use linrv_history::{HistoryBuilder, OpValue, ProcessId};
    use linrv_spec::ops::register as ops;
    use linrv_spec::ObjectKind;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run(b: HistoryBuilder) -> SpecializedResult {
        check_specialized(ObjectKind::Register, &b.build())
    }

    #[test]
    fn sequential_writes_and_reads_are_member() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::read(), OpValue::Int(0));
        b.complete(p(0), ops::write(1), OpValue::Bool(true));
        b.complete(p(0), ops::read(), OpValue::Int(1));
        b.complete(p(0), ops::write(2), OpValue::Bool(true));
        b.complete(p(0), ops::read(), OpValue::Int(2));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn new_old_inversion_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::write(1), OpValue::Bool(true));
        b.complete(p(0), ops::write(2), OpValue::Bool(true));
        b.complete(p(1), ops::read(), OpValue::Int(2));
        b.complete(p(1), ops::read(), OpValue::Int(1));
        let SpecializedResult::NotMember(pattern) = run(b) else {
            panic!("expected a violation");
        };
        assert_eq!(pattern.name, "stale-read");
        assert!(pattern.message.contains("new-old inversion"), "{pattern}");
    }

    #[test]
    fn reading_an_overwritten_value_late_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::write(1), OpValue::Bool(true));
        b.complete(p(0), ops::write(2), OpValue::Bool(true));
        b.complete(p(0), ops::read(), OpValue::Int(1));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn reading_the_initial_value_after_a_write_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::write(7), OpValue::Bool(true));
        b.complete(p(0), ops::read(), OpValue::Int(0));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn reading_a_never_written_value_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::read(), OpValue::Int(9));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn read_completing_before_its_write_starts_is_a_violation() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::read(), OpValue::Int(5));
        b.complete(p(0), ops::write(5), OpValue::Bool(true));
        assert!(matches!(run(b), SpecializedResult::NotMember(_)));
    }

    #[test]
    fn concurrent_writes_linearize_around_the_observed_value() {
        let mut b = HistoryBuilder::new();
        let w1 = b.invoke(p(0), ops::write(1));
        b.complete(p(1), ops::write(2), OpValue::Bool(true));
        b.respond(w1, OpValue::Bool(true));
        b.complete(p(0), ops::read(), OpValue::Int(2));
        assert_eq!(run(b), SpecializedResult::Member);
    }

    #[test]
    fn writing_the_initial_value_falls_back() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::write(0), OpValue::Bool(true));
        assert_eq!(
            run(b),
            SpecializedResult::Fallback(FallbackReason::Ambiguous)
        );
    }

    #[test]
    fn duplicate_writes_fall_back() {
        let mut b = HistoryBuilder::new();
        b.complete(p(0), ops::write(3), OpValue::Bool(true));
        b.complete(p(0), ops::write(3), OpValue::Bool(true));
        assert_eq!(
            run(b),
            SpecializedResult::Fallback(FallbackReason::Ambiguous)
        );
    }

    #[test]
    fn pending_operations_fall_back() {
        let mut b = HistoryBuilder::new();
        b.invoke(p(0), ops::write(1));
        assert_eq!(run(b), SpecializedResult::Fallback(FallbackReason::Pending));
    }
}
