//! The verdict matrix: every case of the `tests_integration` corpus runs
//! through every decision path that accepts it, and all must reach the
//! verdict of the every-prefix reference (Theorems 8.1 and 8.2 make the
//! Enforce path, the Observe path and the certificate one verdict; the offline
//! checkers must agree with them). The monitors replay each case's recorded
//! responses through sessions, on a snapshot backend that rotates with the
//! case index. The library docs list the corpus, the paths, what each skips
//! and the seed strides. A disagreement names the case and the two paths.

use linrv::prelude::*;
use linrv::runtime::ConcurrentObject;
use linrv::Staged;
use linrv_check::{FallbackReason, LinSpec, Route, StrategyChecker};
use linrv_forensics::check_history;
use linrv_history::{History, OpValue, Operation, ProcessId};
use linrv_pool::PoolBuilder;
use linrv_spec::{with_spec, ObjectKind, QueueSpec};
use linrv_trace::Provenance;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};
use tests_integration::{
    assert_stream_tracks_reference, drv_cases, drv_grid, golden_cases, golden_traces, is_shrunk,
    recorded_cases, recorded_grid, Case, REFERENCE,
};

const BACKENDS: [SnapshotBackend; 2] = [SnapshotBackend::Afek, SnapshotBackend::Locked];

/// What the matrix saw on one case, for the census checks.
#[derive(Clone, Copy)]
struct Outcome {
    /// The length of the first violating prefix, per the reference.
    latch: Option<usize>,
    /// The route `StrategyChecker::check_routed` took on the whole case.
    route: Route,
    /// Whether the case opens with an operation nothing overlaps, answered
    /// correctly, so that the settling frontier must have dropped events.
    opens_alone: bool,
}

/// Asserts that two paths agree on `label`, naming both when they do not.
fn agree<T: PartialEq + Debug>(
    label: &str,
    (path, value): (&str, T),
    (other, expected): (&str, T),
) {
    assert!(
        value == expected,
        "{label}: {path} says {value:?}, {other} says {expected:?}"
    );
}

/// The session slots a replay of `history` needs: process `p` replays on slot
/// `p.index()`, the slot a fresh monitor hands out `p.index()`-th.
fn slots(history: &History) -> usize {
    history
        .processes()
        .last()
        .map_or(1, |process| process.index() + 1)
}

/// The implementation behind a case: each process's recorded responses, in order.
struct Replay(ObjectKind, Vec<Mutex<VecDeque<OpValue>>>);

impl Replay {
    fn new(case: &Case) -> Self {
        let mut responses = vec![VecDeque::new(); slots(&case.history)];
        for event in case.history.events() {
            if let Some(value) = event.value() {
                responses[event.process.index()].push_back(value.clone());
            }
        }
        Replay(case.kind, responses.into_iter().map(Mutex::new).collect())
    }
}

impl ConcurrentObject for Replay {
    fn kind(&self) -> ObjectKind {
        self.0
    }

    fn apply(&self, process: ProcessId, _op: &Operation) -> OpValue {
        self.1[process.index()]
            .lock()
            .unwrap()
            .pop_front()
            .expect("a recorded response")
    }
}

/// Replays `history` through `sessions`, one per slot: stage at each
/// invocation, execute and commit at each response; pending operations stay
/// staged. `on_commit` sees the length of the prefix each response ends and
/// the commit's rejection, if any; it stops the replay by returning `false`.
fn replay<A: ConcurrentObject, S: TypedObject>(
    sessions: &[&Session<A, S>],
    history: &History,
    mut on_commit: impl FnMut(usize, Option<Rejected>) -> bool,
) {
    let mut staged: Vec<Option<Staged<S::Op>>> = sessions.iter().map(|_| None).collect();
    for (index, event) in history.events().iter().enumerate() {
        let slot = event.process.index();
        assert_eq!(
            sessions[slot].slot(),
            slot,
            "sessions register in slot order"
        );
        if let Some(operation) = event.operation() {
            let op = S::Op::try_decode(operation).expect("a typed operation");
            staged[slot] = Some(sessions[slot].stage(op));
        } else {
            let executed = sessions[slot].execute(staged[slot].take().expect("well-formed"));
            if !on_commit(index + 1, sessions[slot].commit(executed).err()) {
                return;
            }
        }
    }
}

/// Replays `case` through a fresh monitor in `mode` and returns the monitor.
fn replay_monitor<S: TypedObject + Copy>(
    spec: S,
    case: &Case,
    (backend, mode): (SnapshotBackend, Mode),
    on_commit: impl FnMut(usize, Option<Rejected>) -> bool,
) -> Monitor<Replay, S> {
    let processes = slots(&case.history);
    let monitor = Monitor::builder(spec)
        .processes(processes)
        .snapshot(backend)
        .mode(mode)
        .build(Replay::new(case));
    let sessions: Vec<_> = (0..processes)
        .map(|_| monitor.register().unwrap())
        .collect();
    replay(
        &sessions.iter().collect::<Vec<_>>(),
        &case.history,
        on_commit,
    );
    monitor
}

/// Runs every case through every path that accepts it; one outcome per case.
fn judge(cases: Vec<Case>) -> (Arc<Vec<Case>>, Vec<Outcome>) {
    let cases = Arc::new(cases);
    let mut outcomes = vec![None; cases.len()];
    for kind in ObjectKind::ALL {
        with_spec!(kind, |spec| judge_kind(spec, &cases, &mut outcomes));
    }
    (
        cases,
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("judged"))
            .collect(),
    )
}

/// [`judge`] for the cases of `spec`'s kind: one row of verdicts per case,
/// each held to the reference's.
fn judge_kind<S: TypedObject + Copy + Send + Sync + 'static>(
    spec: S,
    cases: &Arc<Vec<Case>>,
    outcomes: &mut [Option<Outcome>],
) {
    let pools = BACKENDS.map(|backend| {
        let cases = Arc::clone(cases);
        PoolBuilder::new(spec)
            .shards(1)
            .workers(1)
            .sessions_per_object(5)
            .snapshot(backend)
            .build(move |object| Replay::new(&cases[object as usize]))
    });
    let (general, strategy) = (LinSpec::new(spec), StrategyChecker::new(spec));
    let of_kind = cases
        .iter()
        .enumerate()
        .filter(|(_, case)| case.kind == spec.kind());
    let mut pooled_cases = 0;
    for (index, case) in of_kind {
        let (label, history, events) = (&*case.label, &case.history, case.history.events());
        let (latch, dropped) = assert_stream_tracks_reference(spec, events, label);
        let (verdict, route) = strategy.check_routed(history);
        let forensics = check_history(case.kind, history);
        let routed = "StrategyChecker::check_routed";
        assert!(
            forensics == verdict,
            "{label}: linrv_forensics::check_history says {forensics}, {routed} says {verdict}"
        );
        let mut row = vec![
            ("LinSpec::check", general.check(history).is_violation()),
            (routed, verdict.is_violation()),
        ];
        let opens_alone = events.len() >= 2
            && (events[0].is_invocation() && events[1].is_response())
            && events[0].op_id == events[1].op_id
            && latch != Some(2);
        assert!(
            dropped > 0 || !opens_alone,
            "{label}: the settling frontier never settled"
        );
        outcomes[index] = Some(Outcome {
            latch,
            route,
            opens_alone,
        });

        if history.is_well_formed() {
            let backend = BACKENDS[index % BACKENDS.len()];
            let mut rejected_at = None;
            replay_monitor(spec, case, (backend, Mode::Enforce), |length, rejected| {
                let Some(Rejected::Violation { witness, .. }) = rejected else {
                    return true;
                };
                let member = general.check(&witness).is_member();
                assert!(
                    !member,
                    "{label}: the Enforce witness at {length} events is a member"
                );
                rejected_at = Some(length);
                false
            });
            let enforce = (
                "the Enforce monitor's first Rejected::Violation",
                rejected_at,
            );
            agree(label, enforce, (REFERENCE, latch));
            let observe = replay_monitor(spec, case, (backend, Mode::Observe), |_, _| true);
            row.push(("Monitor::check (Observe)", !observe.check().is_correct()));
            row.push((
                "Monitor::certificate (Observe)",
                !observe.certificate().correct,
            ));

            let pool = &pools[index % BACKENDS.len()];
            let pooled: Vec<_> = (0..slots(history))
                .map(|_| pool.session(index as u64))
                .collect();
            let pooled: Vec<_> = pooled
                .iter()
                .map(|session| &**session.as_ref().unwrap())
                .collect();
            replay(&pooled, history, |_, _| true);
            pooled_cases += 1;
        }
        for (path, says) in row {
            agree(label, (path, says), (REFERENCE, latch.is_some()));
        }
    }

    let verdicts: Vec<_> = pools.iter().flat_map(|pool| pool.check_all()).collect();
    assert_eq!(
        verdicts.len(),
        pooled_cases,
        "one pool verdict per replayed case"
    );
    for (object, verdict) in verdicts {
        let label = &cases[object as usize].label;
        let latch = outcomes[object as usize].expect("judged").latch;
        let pool = ("MonitorPool::check_all", !verdict.is_correct());
        agree(label, pool, (REFERENCE, latch.is_some()));
        if let Some(violation) = verdict.violation() {
            let id = ("the pool violation's object", violation.object);
            agree(label, id, ("the case", object));
            assert!(
                !violation.witness.is_empty(),
                "{label}: the pool witness is empty"
            );
        }
    }
}

#[test]
fn golden_traces_get_one_verdict_on_every_path() {
    let (cases, outcomes) = judge(golden_cases());
    assert!(
        cases.len() >= 17,
        "only {} golden traces found",
        cases.len()
    );

    // A trace's declared provenance is its verdict. The per-kind traces' file
    // names and generator seed agree with their headers too: a mislabelled
    // corpus entry would silently weaken every path above.
    let traces = golden_traces();
    for ((path, header, _), outcome) in traces.iter().zip(&outcomes) {
        let name = path.file_stem().unwrap().to_string_lossy();
        let faulty = match header.provenance {
            Provenance::Faulty => true,
            Provenance::Correct => false,
            Provenance::Unknown => panic!("{name}: golden traces must declare provenance"),
        };
        agree(
            &name,
            ("the provenance", faulty),
            (REFERENCE, outcome.latch.is_some()),
        );
        let suffix = if faulty { "-faulty" } else { "-correct" };
        assert!(
            is_shrunk(path) || name.ends_with(suffix),
            "{name}: header says {suffix}"
        );
        assert!(
            is_shrunk(path) || header.seed == Some(42),
            "{name}: corpus uses seed 42"
        );
    }
    let per_kind = traces.iter().filter(|(path, ..)| !is_shrunk(path)).count();
    assert_eq!(per_kind, 14, "two traces per kind, seven kinds");
}

#[test]
fn recorded_histories_get_one_verdict_on_every_path() {
    let (cases, outcomes) = judge(recorded_cases());
    let settled = outcomes
        .iter()
        .filter(|outcome| outcome.opens_alone)
        .count();
    assert!(settled >= 7 * 12, "only {settled} streams settled");

    let undecided = queue_census(
        cases
            .iter()
            .zip(&outcomes)
            .map(|(case, outcome)| (case, outcome.latch.is_none(), outcome.route)),
    );
    assert!(
        undecided <= RECORDED_UNDECIDED,
        "{undecided} violating recorded queue cases fell back undecided"
    );
}

/// Violating queue cases of the thinned recorded grid, each with a pending
/// operation, that no bad pattern rejects (they fall back `Undecided`): a
/// pattern added later may only lower the count.
const RECORDED_UNDECIDED: usize = 9;

/// The queue census over `(case, member, route)` rows. Workload values are
/// unique, so every queue case is unambiguous. A member one, pending
/// operations or not, must be decided on the specialized route (how the
/// queue monitor places pending dequeues is on its module page), and so must
/// a complete one, member or violation. Returns the number of violating
/// queue cases with a pending operation that fell back `Undecided`.
fn queue_census<'a>(rows: impl IntoIterator<Item = (&'a Case, bool, Route)>) -> usize {
    let mut undecided = 0;
    for (case, member, route) in rows {
        if case.kind != ObjectKind::Queue {
            continue;
        }
        let complete = case.history.pending_operations().next().is_none();
        if member || complete {
            let census = ("the queue census", Route::Specialized);
            agree(&case.label, ("the route", route), census);
        } else if route == Route::GeneralFallback(FallbackReason::Undecided) {
            undecided += 1;
        }
    }
    undecided
}

#[test]
#[ignore = "the queue census on unthinned grids; CI runs it in release"]
fn queue_census_holds_on_the_unthinned_grids() {
    let mut cases = recorded_grid(ObjectKind::Queue, 1);
    cases.extend(drv_grid(ObjectKind::Queue, 1));
    let (general, strategy) = (
        LinSpec::new(QueueSpec::new()),
        StrategyChecker::new(QueueSpec::new()),
    );
    let rows = cases.iter().map(|case| {
        let member = general.check(&case.history).is_member();
        let (verdict, route) = strategy.check_routed(&case.history);
        let routed = ("StrategyChecker::check_routed", verdict.is_member());
        agree(&case.label, routed, ("LinSpec::check", member));
        (case, member, route)
    });
    let undecided = queue_census(rows);
    assert!(
        undecided <= UNTHINNED_UNDECIDED,
        "{undecided} violating queue cases fell back undecided"
    );
}

/// [`RECORDED_UNDECIDED`] for both grids unthinned.
const UNTHINNED_UNDECIDED: usize = 51;

#[test]
fn drv_sketches_get_one_verdict_on_every_path() {
    let (cases, outcomes) = judge(drv_cases());

    // Every kind with a specialized monitor decides sketches on it, and the
    // queue monitor decides one with a pending operation.
    let specialized: Vec<&Case> = cases
        .iter()
        .zip(&outcomes)
        .filter_map(|(case, outcome)| (outcome.route == Route::Specialized).then_some(case))
        .collect();
    for kind in ObjectKind::ALL {
        let decided = specialized.iter().any(|case| case.kind == kind);
        let covered = (
            "a specialized monitor exists",
            kind != ObjectKind::Consensus,
        );
        agree(
            &format!("{kind} sketches"),
            ("the specialized route", decided),
            covered,
        );
    }
    assert!(
        specialized.iter().any(|case| case.kind == ObjectKind::Queue
            && case.history.pending_operations().next().is_some()),
        "no queue sketch with a pending operation took the specialized route"
    );
    let undecided = queue_census(
        cases
            .iter()
            .zip(&outcomes)
            .map(|(case, outcome)| (case, outcome.latch.is_none(), outcome.route)),
    );
    // None since more values forced out than pending dequeues is a bad pattern.
    assert_eq!(
        undecided, 0,
        "{undecided} violating queue sketches fell back undecided"
    );
}
