//! Cross-crate integration and property tests for the `linrv` workspace.
//!
//! The tests live under `tests/`. This library holds what several of them
//! share: the golden-trace loader, the one runner of seeded `DRV` schedules,
//! the streaming checker's every-prefix assertion and the corpus that
//! `tests/verdict_matrix.rs` judges.
//!
//! # The corpus
//!
//! A [`Case`] is a label, an object kind and a [`History`]. There are three
//! sources, each a list of cases:
//!
//! * [`golden_cases`]: the committed traces under `traces/` (one correct and one
//!   faulty trace per kind) and `traces/shrunk/` (minimal fuzz witnesses);
//! * [`recorded_cases`]: executions recorded under the seeded scheduler, every
//!   kind × seeds × {correct, faulty every 2, 3, 5 applies}, each cut at its
//!   whole length, at ⅔ and at ½ (the cuts leave operations pending);
//! * [`drv_cases`]: the sketches `X(τ)` a monitor's verifier decides, one after
//!   every publication of a seeded [`drive_drv`] schedule, every kind × seeds ×
//!   1–5 processes × the same four fault settings.
//!
//! Both generated grids also run the queue's foreign-value source
//! ([`sources`]): the correct queue behind a [`MutatedObject`], whose corrupted
//! dequeues return values that were never enqueued. The queue's fault injector
//! only loses values, so without it no case dequeues a foreign value.
//!
//! Each grid is thinned by a fixed seed stride ([`RECORDED_SEED_STRIDE`],
//! [`DRV_SEED_STRIDE`]) so that the matrix stays within the time of the
//! differential suites it replaced; no kind, fault setting, cut or source is
//! dropped. [`recorded_grid`] and [`drv_grid`] build one kind's grid at any
//! stride; the matrix's ignored queue census runs both unthinned.
//!
//! # The paths
//!
//! `tests/verdict_matrix.rs` runs every case through every path that accepts
//! it and holds each to the every-prefix reference ([`REFERENCE`]): the batch
//! [`StrategyChecker`] on every prefix, whose first violating prefix is the
//! case's *latch*.
//!
//! | path | owner | skips |
//! |---|---|---|
//! | `LinSpec::check` (general search) | `linrv-check` | none |
//! | `StrategyChecker::check_routed` (specialized monitors) | `linrv-check` | none |
//! | `check_history` (forensics' re-check) | `linrv-forensics` | none |
//! | `StreamingChecker` (frontier), with and without `settle()` | `linrv-check` | none |
//! | Enforce `Session::commit`: first `Rejected::Violation` | `linrv`, `linrv-core` | ill-formed cases: sessions cannot replay them |
//! | Observe `Monitor::check` (incremental sketch) | `linrv`, `linrv-core` | ill-formed cases |
//! | Observe `Monitor::certificate` (`Verifier::audit`) | `linrv`, `linrv-core` | ill-formed cases |
//! | `MonitorPool::check_all` | `linrv-pool` | ill-formed cases |
//!
//! The corpus holds no ill-formed case today; `tests/stream_differential.rs`
//! feeds ill-formed streams to the checkers that accept them, and
//! `tests/index_differential.rs` holds `History::index` to its two-pass oracle
//! on the corpus and on ill-formed mutations of the golden cases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use linrv_check::{StrategyChecker, StreamingChecker};
use linrv_core::drv::{Announced, Drv};
use linrv_core::sketch::sketch_history;
use linrv_core::view::{TupleSet, ViewTuple};
use linrv_history::{Event, History, OpValue, Operation, ProcessId};
use linrv_runtime::faulty::{self, MutatedObject};
use linrv_runtime::{
    impls, record_scheduled, ConcurrentObject, RecorderOptions, Workload, WorkloadKind,
};
use linrv_spec::{ObjectKind, SequentialSpec};
use linrv_trace::{read_history, TraceHeader};
use std::fs::File;
use std::path::{Path, PathBuf};

/// Shorthand used across the integration tests.
pub fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// splitmix64: schedules drawn from it are a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A number in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The committed golden corpus: `(path, header, history)` of every `.jsonl` trace
/// under `traces/` (one correct and one faulty trace per object kind) and
/// `traces/shrunk/` (minimal fuzz witnesses), in path order.
///
/// # Panics
///
/// Panics when a directory or a trace cannot be read: a corpus entry that does
/// not parse is a format break.
pub fn golden_traces() -> Vec<(PathBuf, TraceHeader, History)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let mut paths: Vec<PathBuf> = [root.clone(), root.join("shrunk")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("golden trace directory"))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let file = File::open(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            let (header, history) =
                read_history(file).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            (path, header, history)
        })
        .collect()
}

/// Whether a golden trace is a shrunk fuzz witness (lives under `traces/shrunk/`).
pub fn is_shrunk(path: &Path) -> bool {
    path.parent().is_some_and(|dir| dir.ends_with("shrunk"))
}

/// One corpus entry: a history of an object of `kind`, named by `label`.
#[derive(Debug, Clone)]
pub struct Case {
    /// Where the history came from, precise enough to rebuild it.
    pub label: String,
    /// The object kind whose specification judges the history.
    pub kind: ObjectKind,
    /// The history itself.
    pub history: History,
}

/// The golden traces as cases, in [`golden_traces`] order, labelled by path.
pub fn golden_cases() -> Vec<Case> {
    golden_traces()
        .into_iter()
        .map(|(path, header, history)| Case {
            label: path.display().to_string(),
            kind: header.kind,
            history,
        })
        .collect()
}

/// The fault settings of the generated grids: the kind's correct implementation,
/// or its fault injector corrupting every 2nd, 3rd or 5th apply.
pub const FAULT_SETTINGS: [Option<u64>; 4] = [None, Some(2), Some(3), Some(5)];

/// [`recorded_cases`] keeps every this-many-th of its 72 seeds; odd, so the kept
/// seeds still cycle through 2–5 processes.
pub const RECORDED_SEED_STRIDE: usize = 3;

/// [`drv_cases`] keeps every this-many-th of its 8 seeds.
pub const DRV_SEED_STRIDE: usize = 4;

/// The kind's correct implementation, or its fault injector corrupting every
/// `every`-th apply.
pub fn implementation(kind: ObjectKind, faulty_every: Option<u64>) -> Box<dyn ConcurrentObject> {
    match faulty_every {
        Some(every) => faulty::faulty_object(kind, every),
        None => impls::correct_object(kind),
    }
}

/// What the generated grids run for `kind`, each with its label: the
/// [`implementation`] of every one of the [`FAULT_SETTINGS`], and for the queue
/// also the correct queue behind a [`MutatedObject`] corrupting every 3rd
/// apply. Its corrupted dequeues return values nothing enqueued (an integer
/// gains `MutatedObject::OFFSET`, `empty` becomes it), which the queue's fault
/// injector, `LossyQueue`, never does: it only loses values.
pub fn sources(kind: ObjectKind) -> Vec<(String, Box<dyn ConcurrentObject>)> {
    let mut sources: Vec<(String, Box<dyn ConcurrentObject>)> = FAULT_SETTINGS
        .into_iter()
        .map(|faulty| (format!("faulty {faulty:?}"), implementation(kind, faulty)))
        .collect();
    if kind == ObjectKind::Queue {
        let correct = impls::correct_object(kind);
        let foreign = Box::new(MutatedObject::new(correct, 3));
        sources.push(("foreign values every 3".to_string(), foreign));
    }
    sources
}

/// Recorded executions of every kind, correct and faulty, whole and cut short:
/// [`recorded_grid`] of each kind at [`RECORDED_SEED_STRIDE`].
pub fn recorded_cases() -> Vec<Case> {
    ObjectKind::ALL
        .into_iter()
        .flat_map(|kind| recorded_grid(kind, RECORDED_SEED_STRIDE))
        .collect()
}

/// Recorded executions of `kind` over every [`sources`] entry, each cut at its
/// whole length, at ⅔ and at ½, for every `seed_stride`-th of 72 seeds. Seeds
/// below 60 record on 2–5 processes; the last twelve on one process, which
/// makes a sequential history. Sized so that the streaming frontier decides
/// every history within its bound.
pub fn recorded_grid(kind: ObjectKind, seed_stride: usize) -> Vec<Case> {
    let mut cases = Vec::new();
    for seed in (0..72u64).step_by(seed_stride) {
        let processes = if seed < 60 { 2 + seed as usize % 4 } else { 1 };
        let ops_per_process = if processes <= 3 { 24 / processes } else { 4 };
        let options = RecorderOptions {
            processes,
            ops_per_process,
        };
        for (source, object) in sources(kind) {
            let workload = Workload::new(WorkloadKind::for_object(kind), seed);
            let history = record_scheduled(&*object, workload, options, seed ^ 0xF00D).history;
            let events = history.events();
            for length in [events.len(), events.len() * 2 / 3, events.len() / 2] {
                let label = format!("recorded {kind} seed {seed} processes {processes}");
                cases.push(Case {
                    label: format!("{label} {source} first {length} events"),
                    kind,
                    history: History::from_events(events[..length].to_vec()),
                });
            }
        }
    }
    cases
}

/// Drives a `DRV` wrapper (Figure 7) through one schedule. Each step moves one
/// process one phase — announce its next operation, call the implementation,
/// collect its view into the tuples it holds — or publishes what it holds into
/// `τ`.
///
/// `next_op(process)` supplies a process's operations (`None` once it has no
/// more). `choose()` names the process that steps next and whether it
/// publishes rather than move on (a process with nothing else to do publishes
/// either way, one with nothing at all skips); `None` ends the schedule, as
/// does a state where no process can step. `on_publish` sees `τ` after every
/// publication. Returns `τ`.
pub fn drive_drv<A: ConcurrentObject>(
    drv: &Drv<A>,
    mut next_op: impl FnMut(usize) -> Option<Operation>,
    mut choose: impl FnMut() -> Option<(usize, bool)>,
    mut on_publish: impl FnMut(&TupleSet),
) -> TupleSet {
    enum Phase {
        Idle(Option<Operation>),
        Announced(Announced),
        Called(Announced, OpValue),
    }
    let mut lanes: Vec<(Phase, Vec<ViewTuple>)> = (0..drv.processes())
        .map(|process| (Phase::Idle(next_op(process)), Vec::new()))
        .collect();
    let advances = |phase: &Phase| !matches!(phase, Phase::Idle(None));
    let mut published = TupleSet::new();
    while lanes
        .iter()
        .any(|(phase, held)| advances(phase) || !held.is_empty())
    {
        let Some((process, publish)) = choose() else {
            break;
        };
        let (phase, held) = &mut lanes[process];
        if !held.is_empty() && (publish || !advances(phase)) {
            published.extend(held.drain(..));
            on_publish(&published);
            continue;
        }
        *phase = match std::mem::replace(phase, Phase::Idle(None)) {
            Phase::Idle(Some(op)) => {
                let announced = drv.announce(ProcessId::new(process as u32), &op);
                Phase::Announced(announced)
            }
            Phase::Idle(None) => Phase::Idle(None),
            Phase::Announced(announced) => {
                let value = drv.call_inner(&announced);
                Phase::Called(announced, value)
            }
            Phase::Called(announced, value) => {
                held.push(drv.collect(announced, value).tuple());
                Phase::Idle(next_op(process))
            }
        };
    }
    published
}

/// The sketches `X(τ)` a monitor's verifier decides, for every kind:
/// [`drv_grid`] of each kind at [`DRV_SEED_STRIDE`].
///
/// # Panics
///
/// As [`drv_grid`].
pub fn drv_cases() -> Vec<Case> {
    ObjectKind::ALL
        .into_iter()
        .flat_map(|kind| drv_grid(kind, DRV_SEED_STRIDE))
        .collect()
}

/// The sketches `X(τ)` of seeded `DRV` schedules over `kind`'s [`sources`],
/// one after every publication, for every `seed_stride`-th of 8 seeds and 1–5
/// processes. Each process runs five operations of the kind's workload and
/// publishes its tuple before it announces again, as a `Session` does; the
/// others move in between, so a sketch carries their announced, uncollected
/// operations as pending ones.
///
/// # Panics
///
/// Panics when a schedule's views do not sketch, which a `DRV` wrapper over a
/// linearizable snapshot cannot produce (Remark 7.2).
pub fn drv_grid(kind: ObjectKind, seed_stride: usize) -> Vec<Case> {
    let mut cases = Vec::new();
    for seed in (0..8u64).step_by(seed_stride) {
        let runs = (1..=5).flat_map(|n| sources(kind).into_iter().map(move |run| (n, run)));
        for (processes, (source, object)) in runs {
            let drv = Drv::new(object, processes);
            let workload = Workload::new(WorkloadKind::for_object(kind), seed);
            let mut plans: Vec<_> = (0..processes)
                .map(|process| workload.operations_for(process, 5).into_iter())
                .collect();
            let mut rng = Rng(seed ^ 0x5CE7_C4ED);
            let label = format!("sketch of {kind} DRV seed {seed} processes {processes} {source}");
            drive_drv(
                &drv,
                |process| plans[process].next(),
                || Some((rng.below(processes), true)),
                |published| {
                    cases.push(Case {
                        label: format!("{label} after {} tuples", published.len()),
                        kind,
                        history: sketch_history(published).expect("DRV views sketch"),
                    });
                },
            );
        }
    }
    cases
}

/// The every-prefix reference's name in assertion messages.
pub const REFERENCE: &str = "the every-prefix reference";

/// Runs `events` through the every-prefix reference — the batch
/// [`StrategyChecker`] on every prefix, from scratch — and through a
/// [`StreamingChecker`], once as is and once settling after every event as
/// `linrv-pool` runs it. Both must latch at the reference's first violating
/// prefix and end with its verdict; the unsettled one must also have consumed
/// exactly that prefix and give the batch checker's violation on it. Returns
/// the reference's latch and the number of events the settle points dropped.
///
/// # Panics
///
/// Panics, naming `label` and the two paths, when a run disagrees with the
/// reference.
pub fn assert_stream_tracks_reference<S: SequentialSpec + Clone>(
    spec: S,
    events: &[Event],
    label: &str,
) -> (Option<usize>, usize) {
    let batch = StrategyChecker::new(spec.clone());
    let mut prefix = History::new();
    let latch = events
        .iter()
        .position(|event| {
            prefix.push(event.clone());
            batch.check(&prefix).is_violation()
        })
        .map(|index| index + 1);
    let mut dropped = 0;
    for (path, settle) in [
        ("StreamingChecker", false),
        ("StreamingChecker with settle points", true),
    ] {
        let mut checker = StreamingChecker::new(spec.clone());
        let latched = events
            .iter()
            .position(|event| {
                let latched = checker.push(event.clone()).is_some();
                dropped += if settle { checker.settle() } else { 0 };
                latched
            })
            .map(|index| index + 1);
        assert_eq!(
            latched, latch,
            "{label}: {path} latches at {latched:?}, {REFERENCE} at {latch:?}"
        );
        let (consumed, verdict) = checker.finish();
        assert_eq!(
            verdict.is_violation(),
            latch.is_some(),
            "{label}: {path} ends with {verdict}, {REFERENCE} latches at {latch:?}"
        );
        if let (Some(length), false) = (latch, settle) {
            let (prefix, batch) = (&events[..length], batch.check(&consumed));
            let consumed = consumed.events() == prefix;
            assert!(
                consumed,
                "{label}: {path} consumed other events than {REFERENCE}'s {length}"
            );
            assert!(
                verdict == batch,
                "{label}: {path} says {verdict}, the batch StrategyChecker says {batch}"
            );
        }
    }
    (latch, dropped)
}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_builds_process_ids() {
        assert_eq!(super::p(3).index(), 3);
    }
}
