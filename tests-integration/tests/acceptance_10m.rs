//! The tentpole acceptance test: a 10-million-operation unambiguous queue
//! history must be decided in under a minute — and by the specialized
//! log-linear monitor alone, not the general search.
//!
//! Ignored by default because it allocates a 20-million-event history; run it
//! in release mode, where the budget holds comfortably:
//!
//! ```text
//! cargo test --release -p tests-integration --test acceptance_10m -- --ignored
//! ```

use linrv_check::{check_specialized, SpecializedResult};
use linrv_history::{History, HistoryBuilder, OpValue, ProcessId};
use linrv_spec::ops::queue;
use linrv_spec::ObjectKind;
use std::time::Instant;

/// Two overlapping process lanes: every enqueue overlaps its dequeue, values
/// are unique, FIFO. The monitor sees real concurrency, not a sequential
/// fast path.
fn unambiguous_queue_history(operations: usize) -> History {
    let mut b = HistoryBuilder::new();
    let producer = ProcessId::new(0);
    let consumer = ProcessId::new(1);
    for value in 0..(operations / 2) as i64 {
        let enq = b.invoke(producer, queue::enqueue(value));
        let deq = b.invoke(consumer, queue::dequeue());
        b.respond(enq, OpValue::Bool(true));
        b.respond(deq, OpValue::Int(value));
    }
    b.build()
}

#[test]
#[ignore = "10M-operation stress: run in release mode"]
fn ten_million_op_queue_trace_checks_in_under_a_minute() {
    const OPERATIONS: usize = 10_000_000;
    let history = unambiguous_queue_history(OPERATIONS);
    assert_eq!(history.operations().len(), OPERATIONS);

    // `check_specialized` cannot fall back: a decision here *is* proof the
    // log-linear queue monitor did the work.
    let start = Instant::now();
    let result = check_specialized(ObjectKind::Queue, &history);
    let elapsed = start.elapsed();

    assert_eq!(result, SpecializedResult::Member);
    assert!(
        elapsed.as_secs() < 60,
        "checked {OPERATIONS} operations in {elapsed:?}, budget is 60s"
    );
}
