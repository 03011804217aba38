//! Differential tests for the per-event frontier behind
//! [`StreamingChecker`]: on recorded executions of every object kind —
//! correct and fault-injected, whole and cut short with operations pending —
//! it must latch a violation at exactly the event where a reference that
//! runs the batch [`StrategyChecker`] on *every prefix* first sees one, and
//! end with the same verdict — also when the checker settles after every
//! event, as `linrv-pool` runs it. Ill-formed streams must come out of the
//! fallback with the batch checker's own verdict, and a non-deterministic
//! specification must be tracked exactly.

use linrv_check::{StrategyChecker, StreamingChecker};
use linrv_history::{Event, History, OpId, OpValue, Operation, ProcessId};
use linrv_runtime::{faulty, impls, record_scheduled, RecorderOptions, Workload, WorkloadKind};
use linrv_spec::{ops, with_spec, ObjectKind, QueueSpec, SequentialSpec, SpecError};
use proptest::prelude::*;

/// The reference: the batch checker on every prefix, from scratch. Returns
/// the length of the first prefix that is not linearizable.
fn reference_latch<S: SequentialSpec>(
    batch: &StrategyChecker<S>,
    events: &[Event],
) -> Option<usize> {
    let mut prefix = History::new();
    events
        .iter()
        .position(|event| {
            prefix.push(event.clone());
            batch.check(&prefix).is_violation()
        })
        .map(|index| index + 1)
}

/// Streams `events` and asserts latch index, verdict and certificate against
/// the reference; then streams them again, settling after every event, and
/// asserts the same latch index and verdict. Returns the latch index and the
/// events the settle points dropped.
fn assert_tracks_reference<S: SequentialSpec + Clone>(
    spec: S,
    events: &[Event],
    label: &str,
) -> (Option<usize>, usize) {
    let batch = StrategyChecker::new(spec.clone());
    let expected = reference_latch(&batch, events);

    let mut settling = StreamingChecker::new(spec.clone());
    let mut dropped = 0;
    let latched = events
        .iter()
        .position(|event| {
            let latched = settling.push(event.clone()).is_some();
            dropped += settling.settle();
            latched
        })
        .map(|index| index + 1);
    assert_eq!(latched, expected, "{label}: latch index with settle points");
    let verdict = settling.finish().1;
    assert_eq!(
        verdict.is_violation(),
        expected.is_some(),
        "{label}: {verdict}"
    );

    let mut checker = StreamingChecker::new(spec);
    let latched = events
        .iter()
        .position(|event| checker.push(event.clone()).is_some())
        .map(|index| index + 1);
    assert_eq!(latched, expected, "{label}: latch index");
    let (consumed, verdict) = checker.finish();
    match expected {
        Some(length) => {
            assert_eq!(consumed.events(), &events[..length], "{label}: certificate");
            assert_eq!(verdict, batch.check(&consumed), "{label}: violation");
        }
        None => assert!(verdict.is_member(), "{label}: {verdict}"),
    }
    (expected, dropped)
}

/// [`assert_tracks_reference`] for a shipped kind, plus: a stream that opens
/// with an operation nothing overlaps, answered correctly, settles at least
/// once (every shipped specification is deterministic). Returns whether that
/// premise held.
fn assert_kind_tracks_reference(kind: ObjectKind, events: &[Event], label: &str) -> bool {
    let (latched, dropped) = with_spec!(kind, |spec| assert_tracks_reference(spec, events, label));
    let settles = events.len() >= 2
        && events[0].is_invocation()
        && events[1].is_response()
        && events[0].op_id == events[1].op_id
        && latched != Some(2);
    if settles {
        assert!(dropped > 0, "{label}: no settle point");
    }
    settles
}

/// Sized so that the frontier decides every history within its bound: the
/// checker under test runs the geometric schedule, whose first re-check is
/// beyond the end of these histories, so a fallback on a violating history
/// would show up as a late latch. The last twelve seeds record on one
/// process, which makes a sequential history.
#[test]
fn recorded_histories_latch_where_the_every_prefix_reference_does() {
    let mut settled = 0;
    for kind in ObjectKind::ALL {
        for seed in 0..72u64 {
            let processes = if seed < 60 {
                2 + (seed % 4) as usize
            } else {
                1
            };
            let options = RecorderOptions {
                processes,
                ops_per_process: if processes <= 3 { 24 / processes } else { 4 },
            };
            for faulty_every in [None, Some(2), Some(3), Some(5)] {
                let object = match faulty_every {
                    Some(every) => faulty::faulty_object(kind, every),
                    None => impls::correct_object(kind),
                };
                let workload = Workload::new(WorkloadKind::for_object(kind), seed);
                let history = record_scheduled(&*object, workload, options, seed ^ 0xF00D).history;
                let events = history.events();
                // Whole, and cut where operations are still pending.
                for length in [events.len(), events.len() * 2 / 3, events.len() / 2] {
                    let label = format!(
                        "{kind} seed {seed} processes {processes} faulty {faulty_every:?} \
                         first {length} events"
                    );
                    settled += usize::from(assert_kind_tracks_reference(
                        kind,
                        &events[..length],
                        &label,
                    ));
                }
            }
        }
    }
    assert!(settled >= 7 * 12, "only {settled} streams settled");
}

#[test]
fn golden_traces_latch_where_the_every_prefix_reference_does() {
    let mut seen = 0;
    for (path, header, history) in tests_integration::golden_traces() {
        seen += 1;
        let label = path.display().to_string();
        assert_kind_tracks_reference(header.kind, history.events(), &label);
    }
    assert!(seen >= 17, "only {seen} golden traces found");
}

/// Streams `events` and asserts the verdict is the batch checker's on the
/// consumed prefix, field for field.
fn assert_fallback_matches_batch(events: &[Event]) {
    let mut checker = StreamingChecker::new(QueueSpec::new());
    for event in events {
        if checker.push(event.clone()).is_some() {
            break;
        }
    }
    let (consumed, verdict) = checker.finish();
    let batch = StrategyChecker::new(QueueSpec::new()).check(&consumed);
    assert!(batch.is_violation(), "an ill-formed history is no member");
    assert_eq!(verdict, batch);
}

#[test]
fn ill_formed_streams_get_the_batch_verdict() {
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let enqueue =
        |process, id, value| Event::invocation(process, OpId::new(id), ops::queue::enqueue(value));
    let done = |process, id| Event::response(process, OpId::new(id), OpValue::Bool(true));
    // A well-formed tail after the offending event: it changes nothing.
    let tail = [
        enqueue(p1, 50, 5),
        done(p1, 50),
        enqueue(p1, 51, 6),
        done(p1, 51),
    ];
    let ill_formed: [(&str, Vec<Event>); 4] = [
        (
            "re-used operation id",
            vec![
                enqueue(p0, 0, 1),
                done(p0, 0),
                enqueue(p0, 0, 2),
                done(p0, 0),
            ],
        ),
        (
            "response without invocation",
            vec![enqueue(p0, 0, 1), done(p0, 7)],
        ),
        (
            "response on the wrong process",
            vec![enqueue(p0, 0, 1), done(p1, 0)],
        ),
        (
            "two open operations of one process",
            vec![
                enqueue(p0, 0, 1),
                enqueue(p0, 1, 2),
                done(p0, 0),
                done(p0, 1),
            ],
        ),
    ];
    for (name, mut events) in ill_formed {
        events.extend(tail.iter().cloned());
        assert!(
            !History::from_events(events.clone()).is_well_formed(),
            "{name}"
        );
        assert_fallback_matches_batch(&events);
    }
}

/// A register whose `Bump` silently adds one *or* two — two successors per
/// step, told apart only by a later `Get`. Declaring a kind without a
/// specialized monitor routes the reference to the general search.
#[derive(Clone)]
struct Fuzzy;

impl SequentialSpec for Fuzzy {
    type State = i64;

    fn kind(&self) -> ObjectKind {
        ObjectKind::Consensus
    }

    fn initial_state(&self) -> i64 {
        0
    }

    fn step(&self, state: &i64, operation: &Operation) -> Result<Vec<(i64, OpValue)>, SpecError> {
        match operation.kind.as_str() {
            "Bump" => Ok(vec![(state + 1, OpValue::Unit), (state + 2, OpValue::Unit)]),
            "Get" => Ok(vec![(*state, OpValue::Int(*state))]),
            other => Err(SpecError::UnknownOperation(other.to_owned())),
        }
    }
}

/// A well-formed three-process history driven by `choices`: each choice picks
/// a process, which invokes if idle and responds otherwise. Operations take
/// effect on a real `Fuzzy` state when they respond, so an untampered run is
/// linearizable; a choice in a hundred reports a `Get` off by one.
fn fuzzy_events(choices: &[u32]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut open: [Option<(OpId, bool)>; 3] = [None; 3];
    let mut state = 0i64;
    for (index, choice) in choices.iter().enumerate() {
        let lane = (choice % 3) as usize;
        let process = ProcessId::new(lane as u32);
        match open[lane].take() {
            None => {
                let id = OpId::new(index as u64);
                let bump = choice / 3 % 2 == 0;
                open[lane] = Some((id, bump));
                let kind = if bump { "Bump" } else { "Get" };
                events.push(Event::invocation(process, id, Operation::nullary(kind)));
            }
            Some((id, true)) => {
                state += 1 + i64::from(choice / 6 % 2);
                events.push(Event::response(process, id, OpValue::Unit));
            }
            Some((id, false)) => {
                let tampered = i64::from(choice / 6 % 100 == 0);
                events.push(Event::response(process, id, OpValue::Int(state + tampered)));
            }
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_non_deterministic_specification_is_tracked_exactly(
        choices in proptest::collection::vec(0..6_000u32, 4..48),
    ) {
        assert_tracks_reference(Fuzzy, &fuzzy_events(&choices), "fuzzy");
    }
}
