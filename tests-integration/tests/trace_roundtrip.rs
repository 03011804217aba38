//! Property tests for the trace subsystem:
//!
//! * JSONL ↔ binary ↔ `History` round-trips are lossless for all seven
//!   specifications, over both correct and fault-injected executions;
//! * offline-checking a round-tripped trace yields the same verdict as the
//!   in-memory checker on the original history (the whole point of making
//!   traces portable);
//! * the scheduled recorder is deterministic per seed — same seed, same
//!   history, byte-for-byte same trace.

use linrv_check::stream::check_events;
use linrv_check::LinSpec;
use linrv_history::History;
use linrv_runtime::{faulty, impls, record_scheduled, RecorderOptions, Workload, WorkloadKind};
use linrv_spec::{with_spec, ObjectKind};
use linrv_trace::{read_history, write_history, Provenance, TraceError, TraceFormat, TraceHeader};
use proptest::prelude::*;

/// A deterministic scheduled run for the generated parameters: correct
/// (sequential specification) or faulty (the kind's fault injector).
fn generate(kind: ObjectKind, seed: u64, faulty: bool, processes: usize, ops: usize) -> History {
    let object = if faulty {
        faulty::faulty_object(kind, 3)
    } else {
        impls::spec_object(kind)
    };
    record_scheduled(
        &*object,
        Workload::new(WorkloadKind::for_object(kind), seed),
        RecorderOptions {
            processes,
            ops_per_process: ops,
        },
        seed ^ 0xDECAF,
    )
    .history
}

/// In-memory verdict on `history`, and the streamed verdict on `events`; both
/// as `is_violation`.
fn verdicts(kind: ObjectKind, history: &History, round_tripped: &History) -> (bool, bool) {
    with_spec!(kind, |spec| {
        let batch = LinSpec::new(spec).check(history);
        let streamed =
            check_events::<_, TraceError>(spec, round_tripped.events().iter().cloned().map(Ok))
                .expect("in-memory events cannot fail")
                .1;
        (batch.is_violation(), streamed.is_violation())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// JSONL ↔ binary ↔ `History` is lossless for every spec, and the verdict
    /// survives the round trip.
    #[test]
    fn round_trips_are_lossless_and_verdict_preserving(
        kind_index in 0..7usize,
        seed in 0..1_000u64,
        faulty in any::<bool>(),
        processes in 1..4usize,
        ops in 1..10usize,
    ) {
        let kind = ObjectKind::ALL[kind_index];
        let history = generate(kind, seed, faulty, processes, ops);
        let header = TraceHeader::new(kind)
            .with_seed(seed)
            .with_processes(processes as u32)
            .with_ops_per_process(ops as u32)
            .with_provenance(if faulty { Provenance::Faulty } else { Provenance::Correct });

        // History → jsonl → History.
        let mut jsonl = Vec::new();
        write_history(&mut jsonl, TraceFormat::Jsonl, &header, &history).unwrap();
        let (h1, from_jsonl) = read_history(jsonl.as_slice()).unwrap();
        prop_assert_eq!(&h1, &header);
        prop_assert_eq!(&from_jsonl, &history);

        // History → binary → History.
        let mut binary = Vec::new();
        write_history(&mut binary, TraceFormat::Binary, &header, &history).unwrap();
        let (h2, from_binary) = read_history(binary.as_slice()).unwrap();
        prop_assert_eq!(&h2, &header);
        prop_assert_eq!(&from_binary, &history);

        // The chained conversion jsonl → binary → jsonl is byte-identical.
        let mut jsonl_again = Vec::new();
        write_history(&mut jsonl_again, TraceFormat::Jsonl, &h2, &from_binary).unwrap();
        prop_assert_eq!(&jsonl_again, &jsonl);

        // Checking the round-tripped trace = checking the original history.
        let (batch, streamed) = verdicts(kind, &history, &from_binary);
        prop_assert_eq!(batch, streamed);
        if !faulty {
            prop_assert!(!batch, "spec-object runs are correct by construction");
        }
    }

    /// Bit-for-bit determinism: the same seed reproduces the same trace bytes;
    /// different seeds diverge (for workloads with any randomness).
    #[test]
    fn scheduled_traces_are_deterministic_per_seed(
        kind_index in 0..7usize,
        seed in 0..1_000u64,
    ) {
        let kind = ObjectKind::ALL[kind_index];
        let header = TraceHeader::new(kind).with_seed(seed);
        let encode = |history: &History| {
            let mut bytes = Vec::new();
            write_history(&mut bytes, TraceFormat::Binary, &header, history).unwrap();
            bytes
        };
        let a = encode(&generate(kind, seed, false, 3, 8));
        let b = encode(&generate(kind, seed, false, 3, 8));
        prop_assert_eq!(a, b);
    }
}
