//! Finite histories and their basic algebra.
//!
//! A [`History`] is its events and nothing else. What the algebra needs about its
//! operations comes from one left-to-right pass, [`History::index`], which returns
//! the operation table together with the first well-formedness error: the first in
//! event order, whatever the kind, and the same error a pass that stopped there
//! would report. That pass is an [`OpTable`] fed every event. The table is never
//! cached on the history or maintained on `push`: a cache field costs every history
//! its bytes, and a monitor pool holds two histories per object (see
//! `a_history_is_only_its_events` for the measured cost). A caller deciding membership
//! indexes once and hands the table on. The one caller that keeps a table is the
//! verifier's sketch (`linrv-core`): its events change only above a stable prefix, so
//! it rolls its [`OpTable`] back to a mark there and pushes only the events above, and
//! the table is a box that only a monitor that decides allocates.

use crate::event::{Event, EventKind};
use crate::op::{OpId, OpValue, Operation};
use crate::process::ProcessId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Completion status of an operation within a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpStatus {
    /// Both invocation and response appear in the history.
    Complete,
    /// Only the invocation appears in the history.
    Pending,
}

/// A per-operation summary extracted from a history: the invoking process, the
/// operation description, the positions of its invocation/response events and the
/// response value (if the operation is complete).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Operation instance identifier.
    pub id: OpId,
    /// Invoking process.
    pub process: ProcessId,
    /// Operation description.
    pub operation: Operation,
    /// Index of the invocation event in the history.
    pub invocation_index: usize,
    /// Index of the response event in the history, when complete.
    pub response_index: Option<usize>,
    /// Response value, when complete.
    pub response: Option<OpValue>,
}

impl OpRecord {
    /// Completion status of the operation.
    pub fn status(&self) -> OpStatus {
        if self.response_index.is_some() {
            OpStatus::Complete
        } else {
            OpStatus::Pending
        }
    }

    /// Returns `true` when the operation is complete.
    pub fn is_complete(&self) -> bool {
        self.status() == OpStatus::Complete
    }
}

/// Why a sequence of events fails to be a well-formed history (Section 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormedError {
    /// A response appears whose operation was never invoked before it.
    ResponseWithoutInvocation {
        /// Offending event index.
        index: usize,
        /// Operation identifier of the response.
        op: OpId,
    },
    /// A process invokes a new operation while a previous one of its operations is
    /// still pending (violates per-process sequentiality).
    OverlappingInvocations {
        /// Offending event index.
        index: usize,
        /// Process that violated sequentiality.
        process: ProcessId,
    },
    /// The same operation identifier is invoked twice.
    DuplicateInvocation {
        /// Offending event index.
        index: usize,
        /// Duplicated operation identifier.
        op: OpId,
    },
    /// The same operation receives two responses.
    DuplicateResponse {
        /// Offending event index.
        index: usize,
        /// Operation identifier responded to twice.
        op: OpId,
    },
    /// A response is attributed to a different process than its invocation.
    ProcessMismatch {
        /// Offending event index.
        index: usize,
        /// Operation identifier with mismatched processes.
        op: OpId,
    },
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::ResponseWithoutInvocation { index, op } => {
                write!(
                    f,
                    "event {index}: response to {op} without a prior invocation"
                )
            }
            WellFormedError::OverlappingInvocations { index, process } => {
                write!(
                    f,
                    "event {index}: {process} invoked an operation while another was pending"
                )
            }
            WellFormedError::DuplicateInvocation { index, op } => {
                write!(f, "event {index}: duplicate invocation of {op}")
            }
            WellFormedError::DuplicateResponse { index, op } => {
                write!(f, "event {index}: duplicate response for {op}")
            }
            WellFormedError::ProcessMismatch { index, op } => {
                write!(
                    f,
                    "event {index}: response to {op} by a different process than its invocation"
                )
            }
        }
    }
}

impl std::error::Error for WellFormedError {}

/// The operation table of a sequence of events, built one event at a time: one
/// [`OpRecord`] per invocation, in invocation order, and the first violation of
/// well-formedness (Section 2) in event order — the first whatever its kind, and the
/// same error a pass that stopped there would report. [`History::index`] is this
/// table fed every event of a history.
///
/// A response fills in the latest record invoked under its identifier, so an
/// ill-formed sequence still gets a table: a second response overwrites the first
/// and a response with no invocation is dropped.
///
/// A caller whose events change only above a prefix that never changes (the
/// verifier's sketch above its stable prefix) keeps one table and
/// [`reindex`](Self::reindex)es it: the table marks its state after that prefix and
/// later rolls back to the mark, so only the events above the prefix are pushed again.
/// It keeps the slot of each process's open operation for this, and a rollback costs
/// `O(n log n)` for `n` processes plus a map removal per record invoked since the mark.
#[derive(Debug, Clone, Default)]
pub struct OpTable {
    records: Vec<OpRecord>,
    first_error: Option<WellFormedError>,
    /// Events pushed so far: the index of the next one.
    events: usize,
    /// The slot of the latest record invoked under each identifier.
    slot_of: BTreeMap<OpId, usize>,
    /// The slot of each process's pending operation, tracked only until the first
    /// error.
    open: BTreeMap<ProcessId, usize>,
    /// What a rollback returns to: the event and record counts and the open slots at
    /// the last mark, at first the empty table.
    mark: Mark,
}

#[derive(Debug, Clone, Default)]
struct Mark {
    events: usize,
    records: usize,
    open: Vec<(ProcessId, usize)>,
}

impl OpTable {
    /// Adds the next event: a new record for an invocation, the response of the
    /// latest record under its identifier for a response.
    fn push(&mut self, event: &Event) {
        let index = self.events;
        self.events += 1;
        let op = event.op_id;
        match &event.kind {
            EventKind::Invocation { op: operation } => {
                if self.first_error.is_none() {
                    if self.slot_of.contains_key(&op) {
                        self.first_error = Some(WellFormedError::DuplicateInvocation { index, op });
                    } else if self.open.contains_key(&event.process) {
                        self.first_error = Some(WellFormedError::OverlappingInvocations {
                            index,
                            process: event.process,
                        });
                    } else {
                        self.open.insert(event.process, self.records.len());
                    }
                }
                self.slot_of.insert(op, self.records.len());
                self.records.push(OpRecord {
                    id: op,
                    process: event.process,
                    operation: operation.clone(),
                    invocation_index: index,
                    response_index: None,
                    response: None,
                });
            }
            EventKind::Response { value } => {
                let Some(&slot) = self.slot_of.get(&op) else {
                    if self.first_error.is_none() {
                        self.first_error =
                            Some(WellFormedError::ResponseWithoutInvocation { index, op });
                    }
                    return;
                };
                let record = &mut self.records[slot];
                if self.first_error.is_none() {
                    if record.response_index.is_some() {
                        self.first_error = Some(WellFormedError::DuplicateResponse { index, op });
                    } else if record.process != event.process {
                        self.first_error = Some(WellFormedError::ProcessMismatch { index, op });
                    } else {
                        self.open.remove(&event.process);
                    }
                }
                record.response_index = Some(index);
                record.response = Some(value.clone());
            }
        }
    }

    /// The records, in invocation order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// The first violation of well-formedness among the events pushed.
    pub fn well_formed(&self) -> Result<(), WellFormedError> {
        self.first_error.clone().map_or(Ok(()), Err)
    }

    /// Makes this the table of `events`, marked after the first `mark` of them, when
    /// the events it was last marked after are the first events of `events`: it rolls
    /// back to that mark and pushes only the events after it. It indexes from the
    /// first event instead when the table holds a well-formedness violation (an
    /// ill-formed event may have overwritten a record or a slot from before the mark)
    /// or when `mark` lies before the old one. A table never marked is marked at 0.
    ///
    /// With `n` processes and `k` events after the old mark, this costs `O(n log n)`
    /// plus `O(log r)` per event for `r` records.
    pub fn reindex(&mut self, events: &[Event], mark: usize) {
        if !(mark >= self.mark.events && self.rollback()) {
            *self = OpTable::default();
        }
        for event in &events[self.events..mark] {
            self.push(event);
        }
        self.mark();
        for event in &events[mark..] {
            self.push(event);
        }
    }

    /// Remembers the current state for [`rollback`](Self::rollback).
    fn mark(&mut self) {
        self.mark.events = self.events;
        self.mark.records = self.records.len();
        self.mark.open.clear();
        self.mark
            .open
            .extend(self.open.iter().map(|(&process, &slot)| (process, slot)));
    }

    /// Returns the table to its state at the last [`mark`](Self::mark): drops the
    /// records invoked since and takes back the responses of the operations open at
    /// the mark. Only a well-formed table can; this returns `false`, and leaves the
    /// table as it is, when the events pushed hold a violation.
    fn rollback(&mut self) -> bool {
        if self.first_error.is_some() {
            return false;
        }
        for record in self.records.drain(self.mark.records..) {
            self.slot_of.remove(&record.id);
        }
        self.open.clear();
        for &(process, slot) in &self.mark.open {
            let record = &mut self.records[slot];
            record.response_index = None;
            record.response = None;
            self.open.insert(process, slot);
        }
        self.events = self.mark.events;
        true
    }
}

/// A finite history: a sequence of invocation and response events (Section 2).
///
/// Histories are the only information a verifier can obtain from a black-box
/// implementation. All of the paper's correctness machinery (linearizability,
/// similarity, the `GenLin` family, views and sketches) is defined over histories.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History { events: Vec::new() }
    }

    /// Creates a history from a sequence of events.
    ///
    /// The events are not checked for well-formedness; use [`History::check_well_formed`]
    /// or [`History::is_well_formed`] for that.
    pub fn from_events(events: Vec<Event>) -> Self {
        History { events }
    }

    /// The events of the history, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events in the history.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when the history contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event to the history.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Keeps the first `len` events and drops the rest (no effect when the history is
    /// not longer than `len`).
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }

    /// One pass over the events: the operation table and the first violation of
    /// well-formedness (Section 2), in the order the events meet them.
    ///
    /// This is an [`OpTable`] fed every event; its docs state what the table holds,
    /// also for an ill-formed history. Every other view of the operations
    /// ([`History::check_well_formed`], [`History::operations`],
    /// [`History::complete_operations`], [`History::pending_operations`],
    /// [`RealTimeOrder::full_order`](crate::RealTimeOrder::full_order) and
    /// [`similar`](crate::similar)) reads this table; a caller that needs two of
    /// them calls `index` once and keeps both.
    pub fn index(&self) -> (Vec<OpRecord>, Result<(), WellFormedError>) {
        let mut table = OpTable {
            records: Vec::with_capacity(self.events.len().div_ceil(2)),
            ..OpTable::default()
        };
        for event in &self.events {
            table.push(event);
        }
        let well_formed = table.well_formed();
        (table.records, well_formed)
    }

    /// Checks the well-formedness conditions of Section 2 and reports the first
    /// violation found, if any.
    ///
    /// A history is well formed when (1) each process is sequential — it invokes a new
    /// operation only after its previous one has responded — and (2) every response is
    /// preceded by a matching invocation of the same operation by the same process.
    pub fn check_well_formed(&self) -> Result<(), WellFormedError> {
        self.index().1
    }

    /// Returns `true` when the history is well formed (Section 2).
    pub fn is_well_formed(&self) -> bool {
        self.check_well_formed().is_ok()
    }

    /// Per-operation records in invocation order: the table of [`History::index`].
    pub fn operations(&self) -> Vec<OpRecord> {
        self.index().0
    }

    /// Iterator over the complete operations of the history.
    pub fn complete_operations(&self) -> impl Iterator<Item = OpRecord> {
        self.operations().into_iter().filter(|r| r.is_complete())
    }

    /// Iterator over the pending operations of the history.
    pub fn pending_operations(&self) -> impl Iterator<Item = OpRecord> {
        self.operations().into_iter().filter(|r| !r.is_complete())
    }

    /// `E|p_i`: the subsequence of events performed by `process` (Section 4).
    pub fn project(&self, process: ProcessId) -> History {
        History {
            events: self
                .events
                .iter()
                .filter(|e| e.process == process)
                .cloned()
                .collect(),
        }
    }

    /// The set of processes that appear in the history.
    pub fn processes(&self) -> BTreeSet<ProcessId> {
        self.events.iter().map(|e| e.process).collect()
    }

    /// Two histories are *equivalent* when every process performs the same sequence of
    /// invocations and responses in both (Section 4).
    pub fn equivalent(&self, other: &History) -> bool {
        let procs: BTreeSet<ProcessId> = self
            .processes()
            .union(&other.processes())
            .copied()
            .collect();
        procs.iter().all(|&p| {
            let a = self.project(p);
            let b = other.project(p);
            a.events == b.events
        })
    }

    /// The prefix of the history with the first `len` events.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the number of events.
    pub fn prefix(&self, len: usize) -> History {
        History {
            events: self.events[..len].to_vec(),
        }
    }

    /// Iterator over all prefixes of the history, from the empty history to the full
    /// history.
    pub fn prefixes(&self) -> impl Iterator<Item = History> + '_ {
        (0..=self.events.len()).map(move |len| self.prefix(len))
    }

    /// Returns `true` when the history is *sequential*: the real-time order `<_E` over
    /// its complete operations is total and no operation is pending (Section 4).
    pub fn is_sequential(&self) -> bool {
        // Sequential ⇔ the events strictly alternate inv/res of the same operation.
        let records = self.operations();
        2 * records.len() == self.events.len()
            && records
                .iter()
                .enumerate()
                .all(|(i, r)| r.invocation_index == 2 * i && r.response_index == Some(2 * i + 1))
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

impl FromIterator<Event> for History {
    fn from_iter<T: IntoIterator<Item = Event>>(iter: T) -> Self {
        History {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;

    fn sample() -> History {
        // p1: Enqueue(1):true ; p2: Dequeue():1 overlapping.
        let p1 = ProcessId::new(0);
        let p2 = ProcessId::new(1);
        let mut b = HistoryBuilder::new();
        let enq = b.invoke(p1, Operation::new("Enqueue", OpValue::Int(1)));
        let deq = b.invoke(p2, Operation::nullary("Dequeue"));
        b.respond(enq, OpValue::Bool(true));
        b.respond(deq, OpValue::Int(1));
        b.build()
    }

    #[test]
    fn well_formedness_of_sample() {
        assert!(sample().is_well_formed());
    }

    #[test]
    fn a_history_is_only_its_events() {
        assert_eq!(
            std::mem::size_of::<History>(),
            std::mem::size_of::<Vec<Event>>(),
            "History must stay a bare Vec<Event>: on the pool-short benchmark (five paired \
             runs each), 16 bytes of padding cost +12 % verdict_ms and +0.45 % peak_rss_mb, \
             and a boxed OnceLock table cache +17 % verdict_ms"
        );
    }

    fn inv(process: u32, id: u64) -> Event {
        Event::invocation(
            ProcessId::new(process),
            OpId::new(id),
            Operation::nullary("Pop"),
        )
    }

    fn res(process: u32, id: u64) -> Event {
        Event::response(
            ProcessId::new(process),
            OpId::new(id),
            OpValue::Int(id as i64),
        )
    }

    /// `table.reindex(events, mark)` and asserts that the table is `History::index`
    /// of `events`: the same records, the same first error.
    fn reindex_as_index(table: &mut OpTable, events: &[Event], mark: usize) {
        table.reindex(events, mark);
        let (records, well_formed) = History::from_events(events.to_vec()).index();
        assert_eq!(table.records(), records.as_slice());
        assert_eq!(table.well_formed(), well_formed);
    }

    #[test]
    fn a_rollback_takes_back_the_responses_of_operations_open_at_the_mark() {
        // p0's op 0 and p1's op 1 are open at the mark after three events.
        let prefix = [inv(0, 0), inv(1, 1), inv(2, 2)];
        let mut table = OpTable::default();
        reindex_as_index(&mut table, &prefix, 3);
        let mut events = prefix.to_vec();
        events.extend([res(1, 1), res(0, 0), inv(1, 3)]);
        reindex_as_index(&mut table, &events, 3);
        assert!(table.records()[0].is_complete() && table.records()[1].is_complete());

        // Back at the mark, a different suffix: only op 2 answers, and p1 invokes
        // again only after its op 1 did.
        assert!(table.rollback());
        assert!(table.records()[..2].iter().all(|r| !r.is_complete()));
        assert_eq!(table.records().len(), 3);
        events.truncate(3);
        events.extend([res(2, 2), res(1, 1), inv(1, 4)]);
        reindex_as_index(&mut table, &events, 5);
        assert!(!table.records()[0].is_complete());
        assert_eq!(table.records()[3].id, OpId::new(4));
    }

    #[test]
    fn a_suffix_that_reuses_an_identifier_of_the_prefix_is_a_duplicate_invocation() {
        let prefix = [inv(0, 0), res(0, 0), inv(1, 1)];
        let mut table = OpTable::default();
        reindex_as_index(&mut table, &prefix, 2);
        let mut events = prefix.to_vec();
        events.push(inv(2, 0));
        reindex_as_index(&mut table, &events, 2);
        assert_eq!(
            table.well_formed(),
            Err(WellFormedError::DuplicateInvocation {
                index: 3,
                op: OpId::new(0)
            })
        );
    }

    #[test]
    fn after_an_ill_formed_suffix_the_table_indexes_from_the_first_event() {
        let prefix = vec![inv(0, 0), res(0, 0), inv(1, 1)];
        let mut table = OpTable::default();
        reindex_as_index(&mut table, &prefix, 3);
        // Op 0 answered twice (its record is below the mark), then p1 twice at once.
        let mut bad = prefix.clone();
        bad.push(res(0, 0));
        reindex_as_index(&mut table, &bad, 3);
        assert!(!table.rollback(), "an ill-formed table rolled back");
        let mut overlap = prefix.clone();
        overlap.push(inv(1, 2));
        reindex_as_index(&mut table, &overlap, 3);
        // Well-formed steps after them, the mark moving up each time.
        let mut events = prefix;
        for (step, mark) in [(vec![res(1, 1), inv(1, 2)], 4), (vec![res(1, 2)], 6)] {
            events.extend(step);
            reindex_as_index(&mut table, &events, mark);
        }
        assert!(table.rollback());
        // A mark below the old one indexes from the first event.
        reindex_as_index(&mut table, &events, 1);
    }

    #[test]
    fn detects_overlapping_invocations_by_one_process() {
        let p = ProcessId::new(0);
        let mut h = History::new();
        h.push(Event::invocation(
            p,
            OpId::new(0),
            Operation::nullary("Pop"),
        ));
        h.push(Event::invocation(
            p,
            OpId::new(1),
            Operation::nullary("Pop"),
        ));
        assert_eq!(
            h.check_well_formed(),
            Err(WellFormedError::OverlappingInvocations {
                index: 1,
                process: p
            })
        );
    }

    #[test]
    fn detects_response_without_invocation() {
        let p = ProcessId::new(0);
        let mut h = History::new();
        h.push(Event::response(p, OpId::new(0), OpValue::Unit));
        assert_eq!(
            h.check_well_formed(),
            Err(WellFormedError::ResponseWithoutInvocation {
                index: 0,
                op: OpId::new(0)
            })
        );
    }

    #[test]
    fn detects_duplicate_invocation_and_response() {
        let p = ProcessId::new(0);
        let q = ProcessId::new(1);
        let mut h = History::new();
        h.push(Event::invocation(
            p,
            OpId::new(0),
            Operation::nullary("Pop"),
        ));
        h.push(Event::invocation(
            q,
            OpId::new(0),
            Operation::nullary("Pop"),
        ));
        assert_eq!(
            h.check_well_formed(),
            Err(WellFormedError::DuplicateInvocation {
                index: 1,
                op: OpId::new(0)
            })
        );

        let mut h = History::new();
        h.push(Event::invocation(
            p,
            OpId::new(0),
            Operation::nullary("Pop"),
        ));
        h.push(Event::response(p, OpId::new(0), OpValue::Empty));
        h.push(Event::invocation(
            p,
            OpId::new(1),
            Operation::nullary("Pop"),
        ));
        h.push(Event::response(p, OpId::new(0), OpValue::Empty));
        assert_eq!(
            h.check_well_formed(),
            Err(WellFormedError::DuplicateResponse {
                index: 3,
                op: OpId::new(0)
            })
        );
    }

    #[test]
    fn detects_process_mismatch() {
        let p = ProcessId::new(0);
        let q = ProcessId::new(1);
        let mut h = History::new();
        h.push(Event::invocation(
            p,
            OpId::new(0),
            Operation::nullary("Pop"),
        ));
        h.push(Event::response(q, OpId::new(0), OpValue::Empty));
        assert_eq!(
            h.check_well_formed(),
            Err(WellFormedError::ProcessMismatch {
                index: 1,
                op: OpId::new(0)
            })
        );
    }

    #[test]
    fn complete_and_pending_operations() {
        let p1 = ProcessId::new(0);
        let p2 = ProcessId::new(1);
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p1, Operation::new("Enqueue", OpValue::Int(1)));
        let _pending = b.invoke(p2, Operation::nullary("Dequeue"));
        b.respond(a, OpValue::Bool(true));
        let h = b.build();
        assert_eq!(h.complete_operations().count(), 1);
        assert_eq!(h.pending_operations().count(), 1);
    }

    #[test]
    fn projection_and_equivalence() {
        let h = sample();
        let p1 = ProcessId::new(0);
        assert_eq!(h.project(p1).len(), 2);
        assert!(h.equivalent(&h));

        // Reordering events of different processes preserves equivalence.
        let mut events = h.events().to_vec();
        events.swap(0, 1);
        let g = History::from_events(events);
        assert!(h.equivalent(&g));
    }

    #[test]
    fn sequential_detection() {
        let p = ProcessId::new(0);
        let mut b = HistoryBuilder::new();
        let a = b.invoke(p, Operation::new("Push", OpValue::Int(1)));
        b.respond(a, OpValue::Bool(true));
        let c = b.invoke(p, Operation::nullary("Pop"));
        b.respond(c, OpValue::Int(1));
        assert!(b.build().is_sequential());
        assert!(!sample().is_sequential());
    }

    #[test]
    fn prefixes_enumerated() {
        let h = sample();
        assert_eq!(h.prefixes().count(), h.len() + 1);
        assert!(h.prefix(0).is_empty());
        assert_eq!(h.prefix(h.len()), h);
    }
}
