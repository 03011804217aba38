//! Differential test for [`History::index`], the one pass that returns a
//! history's operation table together with its first well-formedness error.
//!
//! The oracle is the two passes it replaced, copied here verbatim in behaviour:
//! a well-formedness check that stops at the first violation, and a table
//! builder that never checks anything. On every history of the corpus
//! (`golden_cases`, `recorded_cases`, `drv_cases`), and on ill-formed
//! mutations of the golden cases (one event dropped, one event duplicated, one
//! response moved to another process), the merged pass must return the same
//! records and the same first error: the same variant at the same `index`.

use linrv_history::{Event, EventKind, History, OpId, OpRecord, ProcessId, WellFormedError};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use tests_integration::{drv_cases, golden_cases, recorded_cases, Case};

/// The first pass: the Section 2 conditions, scanned until the first violation.
fn oracle_well_formed(events: &[Event]) -> Result<(), WellFormedError> {
    let mut pending_by_process: BTreeMap<ProcessId, OpId> = BTreeMap::new();
    let mut seen_invocations: BTreeSet<OpId> = BTreeSet::new();
    let mut seen_responses: BTreeSet<OpId> = BTreeSet::new();
    let mut invoking_process: BTreeMap<OpId, ProcessId> = BTreeMap::new();
    for (index, event) in events.iter().enumerate() {
        let op = event.op_id;
        match &event.kind {
            EventKind::Invocation { .. } => {
                if seen_invocations.contains(&op) {
                    return Err(WellFormedError::DuplicateInvocation { index, op });
                }
                if pending_by_process.contains_key(&event.process) {
                    return Err(WellFormedError::OverlappingInvocations {
                        index,
                        process: event.process,
                    });
                }
                seen_invocations.insert(op);
                invoking_process.insert(op, event.process);
                pending_by_process.insert(event.process, op);
            }
            EventKind::Response { .. } => {
                if !seen_invocations.contains(&op) {
                    return Err(WellFormedError::ResponseWithoutInvocation { index, op });
                }
                if seen_responses.contains(&op) {
                    return Err(WellFormedError::DuplicateResponse { index, op });
                }
                if invoking_process.get(&op) != Some(&event.process) {
                    return Err(WellFormedError::ProcessMismatch { index, op });
                }
                seen_responses.insert(op);
                pending_by_process.remove(&event.process);
            }
        }
    }
    Ok(())
}

/// The second pass: one record per invocation; a response fills in the latest
/// record invoked under its identifier.
fn oracle_records(events: &[Event]) -> Vec<OpRecord> {
    let mut records: Vec<OpRecord> = Vec::new();
    let mut index_of: BTreeMap<OpId, usize> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        match &event.kind {
            EventKind::Invocation { op } => {
                index_of.insert(event.op_id, records.len());
                records.push(OpRecord {
                    id: event.op_id,
                    process: event.process,
                    operation: op.clone(),
                    invocation_index: i,
                    response_index: None,
                    response: None,
                });
            }
            EventKind::Response { value } => {
                if let Some(&slot) = index_of.get(&event.op_id) {
                    records[slot].response_index = Some(i);
                    records[slot].response = Some(value.clone());
                }
            }
        }
    }
    records
}

/// Asserts the merged pass agrees with both oracle passes; returns the first
/// error.
fn assert_index_matches(label: &str, events: Vec<Event>) -> Result<(), WellFormedError> {
    let expected_error = oracle_well_formed(&events);
    let expected_records = oracle_records(&events);
    let (records, first_error) = History::from_events(events).index();
    assert_eq!(first_error, expected_error, "{label}: first error");
    assert_eq!(records, expected_records, "{label}: operation table");
    first_error
}

/// The ill-formed neighbours of one history: every event dropped, every event
/// duplicated in place, every response moved to the next process.
fn mutations(events: &[Event]) -> Vec<(String, Vec<Event>)> {
    let mut out = Vec::new();
    for i in 0..events.len() {
        let mut dropped = events.to_vec();
        dropped.remove(i);
        out.push((format!("event {i} dropped"), dropped));

        let mut duplicated = events.to_vec();
        duplicated.insert(i, events[i].clone());
        out.push((format!("event {i} duplicated"), duplicated));

        if events[i].is_response() {
            let mut moved = events.to_vec();
            moved[i].process = ProcessId::new(events[i].process.index() as u32 + 1);
            out.push((format!("response {i} moved"), moved));
        }
    }
    out
}

fn assert_corpus(cases: &[Case]) {
    assert!(!cases.is_empty());
    for case in cases {
        let first_error = assert_index_matches(&case.label, case.history.events().to_vec());
        assert!(
            first_error.is_ok(),
            "{}: the corpus holds no ill-formed case",
            case.label
        );
    }
}

#[test]
fn golden_histories_and_their_ill_formed_mutations() {
    let cases = golden_cases();
    assert_corpus(&cases);
    let mut reached = HashSet::new();
    for case in &cases {
        for (what, events) in mutations(case.history.events()) {
            let label = format!("{} with {what}", case.label);
            if let Err(err) = assert_index_matches(&label, events) {
                reached.insert(std::mem::discriminant(&err));
            }
        }
    }
    // Every kind of first error is reached at least once.
    assert_eq!(reached.len(), 5, "the mutations reach all five variants");
}

#[test]
fn recorded_histories() {
    assert_corpus(&recorded_cases());
}

#[test]
fn drv_sketches() {
    assert_corpus(&drv_cases());
}
