//! Differential tests for the per-event frontier behind
//! [`StreamingChecker`] on the streams the verdict matrix
//! (`tests/verdict_matrix.rs`) has no case for: ill-formed streams must come
//! out of the fallback with the batch [`StrategyChecker`]'s own verdict, and a
//! non-deterministic specification must be tracked exactly — the same latch
//! index as the batch checker on every prefix, with and without settle points.

use linrv_check::{StrategyChecker, StreamingChecker};
use linrv_history::{Event, History, OpId, OpValue, Operation, ProcessId};
use linrv_spec::{ops, ObjectKind, QueueSpec, SequentialSpec, SpecError};
use proptest::prelude::*;
use tests_integration::assert_stream_tracks_reference;

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
        assert_stream_tracks_reference(Fuzzy, &fuzzy_events(&choices), "fuzzy");
    }
}
