//! Ground-truth execution recorder.
//!
//! The recorder drives `n` threads of operations against a [`ConcurrentObject`] and
//! logs every invocation and response into a single totally ordered history. No process
//! *inside* an asynchronous system could build this log — that is precisely the
//! impossibility of Theorem 5.1 — so the recorder serialises its log appends through a
//! mutex and exists purely as experimental scaffolding (testing soundness of the
//! verifier against correct objects, measuring detection latency against faulty ones).
//!
//! Because an operation's invocation is logged slightly *before* `apply` is entered and
//! its response slightly *after* `apply` returns, the recorded intervals are stretched
//! relative to the true execution, exactly like the paper's detected history `E'`
//! (Figure 5). Stretching only removes real-time constraints, so a linearizable object
//! always yields a linearizable recorded history (the property soundness tests rely
//! on).

use crate::object::ConcurrentObject;
use crate::workload::{Workload, WorkloadSource};
use linrv_history::{Event, History, OpId, OpValue, Operation, ProcessId};
use linrv_trace::EventSink;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Options controlling a recorded run.
#[derive(Debug, Clone, Copy)]
pub struct RecorderOptions {
    /// Number of processes (threads).
    pub processes: usize,
    /// Operations each process performs.
    pub ops_per_process: usize,
}

impl Default for RecorderOptions {
    fn default() -> Self {
        RecorderOptions {
            processes: 3,
            ops_per_process: 50,
        }
    }
}

/// Result of a recorded run.
#[derive(Debug, Clone)]
pub struct RecordedExecution {
    /// The recorded (stretched) real-time history.
    pub history: History,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Total number of operations performed.
    pub operations: usize,
}

/// Shared event log with globally ordered appends.
///
/// When a trace sink is attached, every append is forwarded to it *inside* the
/// log's critical section, so the trace's event order is exactly the recorded
/// history's order.
struct EventLog<'s> {
    events: Mutex<Vec<Event>>,
    next_op: AtomicU64,
    sink: Option<&'s dyn EventSink>,
}

impl<'s> EventLog<'s> {
    fn new(sink: Option<&'s dyn EventSink>) -> Self {
        EventLog {
            events: Mutex::new(Vec::new()),
            next_op: AtomicU64::new(0),
            sink,
        }
    }

    fn fresh_op(&self) -> OpId {
        OpId::new(self.next_op.fetch_add(1, Ordering::Relaxed))
    }

    fn log(&self, event: Event) {
        let mut events = self.events.lock();
        if let Some(sink) = self.sink {
            sink.event(&event);
        }
        events.push(event);
    }

    fn log_invocation(&self, process: ProcessId, id: OpId, op: &Operation) {
        self.log(Event::invocation(process, id, op.clone()));
    }

    fn log_response(&self, process: ProcessId, id: OpId, value: &OpValue) {
        self.log(Event::response(process, id, value.clone()));
    }
}

/// Runs `workload` against `object` with the given options and returns the recorded
/// history.
pub fn record_execution(
    object: &(impl ConcurrentObject + ?Sized),
    workload: Workload,
    options: RecorderOptions,
) -> RecordedExecution {
    let log = EventLog::new(None);
    let started = Instant::now();
    let operations = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for proc_index in 0..options.processes {
            let log = &log;
            let object = &object;
            handles.push(scope.spawn(move || {
                let process = ProcessId::new(proc_index as u32);
                let ops = workload.operations_for(proc_index, options.ops_per_process);
                for op in &ops {
                    let id = log.fresh_op();
                    log.log_invocation(process, id, op);
                    let response = object.apply(process, op);
                    log.log_response(process, id, &response);
                }
                ops.len()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    });
    let duration = started.elapsed();
    let history = History::from_events(log.events.into_inner());
    RecordedExecution {
        history,
        duration,
        operations,
    }
}

/// One process's progress through its operation sequence in a scheduled run.
enum Phase {
    /// Between operations.
    Idle,
    /// Invocation logged, `apply` not called yet.
    Invoked(OpId, Operation),
    /// `apply` returned; the response has not been logged yet.
    Applied(OpId, OpValue),
}

/// Derives the interleaving seed of [`record_scheduled`] from a user's seed
/// that also seeds the workload. Any fixed mixing works; what matters is that
/// it is deterministic and distinct from the workload seed, so the two RNG
/// streams do not correlate. `linrv gen`/`record` and the scenario runner
/// both call it, so one `--seed` means one schedule everywhere.
pub fn schedule_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_01A7_C0DE
}

/// Runs `workload` against `object` under a **deterministic seeded scheduler**
/// and returns the recorded history.
///
/// Unlike [`record_execution`], no threads are involved: a single loop driven
/// by an RNG seeded with `schedule_seed` repeatedly picks one enabled process
/// and advances it by one step — log its invocation, call `apply`, or log its
/// response. Splitting each operation into three separately scheduled steps
/// still produces overlapping intervals (an operation stays pending while
/// others are scheduled), but the interleaving — and therefore the recorded
/// history — is **bit-for-bit reproducible** from `(workload, options,
/// schedule_seed)`. This is what makes `linrv gen`/`linrv record` deterministic
/// per `--seed`, and what the golden-trace corpus is generated with.
///
/// The `apply` calls themselves are serialised, so the recorded history of a
/// correct (linearizable) implementation is always linearizable, while the
/// deterministically fault-injected implementations in [`crate::faulty`] still
/// misbehave on schedule.
pub fn record_scheduled(
    object: &(impl ConcurrentObject + ?Sized),
    workload: Workload,
    options: RecorderOptions,
    schedule_seed: u64,
) -> RecordedExecution {
    record_scheduled_from(object, workload, options, schedule_seed, None)
}

/// [`record_scheduled`], additionally streaming every logged event into `sink`
/// as it is appended.
pub fn record_scheduled_traced(
    object: &(impl ConcurrentObject + ?Sized),
    workload: Workload,
    options: RecorderOptions,
    schedule_seed: u64,
    sink: &dyn EventSink,
) -> RecordedExecution {
    record_scheduled_from(object, workload, options, schedule_seed, Some(sink))
}

/// A fault-free [`record_scheduled_controlled`] run over `workload`'s
/// pre-computed sequences.
fn record_scheduled_from(
    object: &(impl ConcurrentObject + ?Sized),
    workload: Workload,
    options: RecorderOptions,
    schedule_seed: u64,
    sink: Option<&dyn EventSink>,
) -> RecordedExecution {
    let mut source = WorkloadSource::new(&workload, options.processes, options.ops_per_process);
    record_scheduled_controlled(
        object,
        &mut source,
        options.processes,
        schedule_seed,
        &mut NoFaults,
        sink,
    )
    .execution
}

/// One step pulled from an [`OpSource`].
#[derive(Debug, Clone, PartialEq)]
pub enum SourceStep {
    /// Invoke this operation next.
    Invoke(Operation),
    /// Stay quiescent for this many scheduler steps before pulling again
    /// (burst/quiescence timing; clamped to [`MAX_IDLE_TICKS`]).
    Pause(u64),
}

/// A pull-based source of per-process operations for
/// [`record_scheduled_controlled`], generalising [`Workload`] (which
/// pre-computes each process's sequence — see [`WorkloadSource`]) to lazy,
/// stateful generators.
pub trait OpSource {
    /// The next step for `process`: an operation, a pause, or `None` when the
    /// process has no further operations.
    fn next_step(&mut self, process: usize) -> Option<SourceStep>;
}

/// A fault command applied to the controlled scheduler (see [`ScheduleFaults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCmd {
    /// Crash the process **mid-operation**: if an operation is in flight it
    /// never completes (its invocation stays pending forever); if the process
    /// is between operations it crashes right after logging its next
    /// invocation. Crashed processes take no further steps.
    Crash(usize),
    /// Withhold scheduling from the process for this many scheduler steps
    /// (stretching its current interval, as in Figures 5–6 of the paper;
    /// clamped to [`MAX_IDLE_TICKS`]).
    Stall(usize, u64),
}

/// Deterministic fault hooks consulted by [`record_scheduled_controlled`] once
/// per scheduler step. Implementations must be pure functions of the step
/// number (plus their own seeded state) for runs to stay reproducible.
pub trait ScheduleFaults {
    /// The commands to apply at `step`, before any process is granted.
    fn at_step(&mut self, step: u64) -> Vec<FaultCmd>;
}

/// The trivial [`ScheduleFaults`]: no faults, ever.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl ScheduleFaults for NoFaults {
    fn at_step(&mut self, _step: u64) -> Vec<FaultCmd> {
        Vec::new()
    }
}

/// Upper bound on a single pause/stall duration, so a pathological
/// `Pause(u64::MAX)` cannot spin the scheduler forever.
pub const MAX_IDLE_TICKS: u64 = 1 << 16;

/// Result of a controlled scheduled run.
#[derive(Debug, Clone)]
pub struct ControlledRun {
    /// The recorded execution (crashed processes leave pending operations).
    pub execution: RecordedExecution,
    /// Processes crashed by a [`FaultCmd::Crash`], in crash order. Each has
    /// exactly one pending operation in the history, unless it was already
    /// exhausted when the crash arrived.
    pub crashed: Vec<usize>,
    /// Total scheduler steps taken (grants plus idle ticks).
    pub steps: u64,
}

/// Per-process scheduler state of a controlled run.
struct ProcState {
    phase: Phase,
    /// Pulled from the source but not yet invoked.
    next: Option<Operation>,
    exhausted: bool,
    crashed: bool,
    /// A crash arrived while idle: die right after the next invocation logs.
    crash_on_invoke: bool,
    /// Stalled or pausing until this scheduler step.
    wake_at: u64,
}

impl ProcState {
    fn live(&self) -> bool {
        !(self.crashed
            || self.exhausted && self.next.is_none() && matches!(self.phase, Phase::Idle))
    }
}

/// [`record_scheduled`] with **pull-based operations and fault injection**: the
/// deterministic seeded scheduler, extended with per-step [`ScheduleFaults`]
/// hooks (process crash mid-operation, stall/pause) and an [`OpSource`] in
/// place of a pre-computed [`Workload`].
///
/// The interleaving is bit-for-bit reproducible from `(source, processes,
/// schedule_seed, faults)`: the RNG is consumed exactly once per grant, fault
/// hooks run at every step, and pauses/stalls advance the step counter without
/// touching the RNG. [`record_scheduled`] is this function with [`NoFaults`]
/// and a [`WorkloadSource`], so scenario runs and plain seeded runs share one
/// scheduler.
pub fn record_scheduled_controlled(
    object: &(impl ConcurrentObject + ?Sized),
    source: &mut dyn OpSource,
    processes: usize,
    schedule_seed: u64,
    faults: &mut dyn ScheduleFaults,
    sink: Option<&dyn EventSink>,
) -> ControlledRun {
    let log = EventLog::new(sink);
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(schedule_seed);
    let mut procs: Vec<ProcState> = (0..processes)
        .map(|_| ProcState {
            phase: Phase::Idle,
            next: None,
            exhausted: false,
            crashed: false,
            crash_on_invoke: false,
            wake_at: 0,
        })
        .collect();
    let mut crashed = Vec::new();
    let mut operations = 0usize;
    let mut step: u64 = 0;
    loop {
        for cmd in faults.at_step(step) {
            match cmd {
                FaultCmd::Crash(p) if p < processes && !procs[p].crashed => {
                    if matches!(procs[p].phase, Phase::Idle) {
                        procs[p].crash_on_invoke = true;
                    } else {
                        procs[p].crashed = true;
                        crashed.push(p);
                    }
                }
                FaultCmd::Stall(p, ticks) if p < processes => {
                    let until = step.saturating_add(ticks.clamp(1, MAX_IDLE_TICKS));
                    procs[p].wake_at = procs[p].wake_at.max(until);
                }
                _ => {}
            }
        }
        // Refill: awake idle processes pull their next step from the source.
        // Pauses are consumed here (extending `wake_at`) so a paused process
        // simply drops out of the enabled set below.
        for (p, state) in procs.iter_mut().enumerate() {
            let ready = !state.crashed
                && !state.exhausted
                && state.next.is_none()
                && matches!(state.phase, Phase::Idle)
                && step >= state.wake_at;
            if !ready {
                continue;
            }
            match source.next_step(p) {
                None => state.exhausted = true,
                Some(SourceStep::Invoke(op)) => state.next = Some(op),
                Some(SourceStep::Pause(ticks)) => {
                    state.wake_at = step.saturating_add(ticks.clamp(1, MAX_IDLE_TICKS));
                }
            }
        }
        let enabled: Vec<usize> = (0..processes)
            .filter(|&p| {
                let state = &procs[p];
                !state.crashed
                    && step >= state.wake_at
                    && (!matches!(state.phase, Phase::Idle) || state.next.is_some())
            })
            .collect();
        if enabled.is_empty() {
            // Nothing runnable: done, unless someone is merely stalled/paused —
            // then tick the clock forward (no RNG consumption on idle ticks).
            if procs.iter().any(ProcState::live) {
                step += 1;
                continue;
            }
            break;
        }
        let process_index = enabled[rng.gen_range(0..enabled.len())];
        let process = ProcessId::new(process_index as u32);
        let state = &mut procs[process_index];
        state.phase = match std::mem::replace(&mut state.phase, Phase::Idle) {
            Phase::Idle => {
                let op = state.next.take().expect("enabled idle process has an op");
                let id = log.fresh_op();
                log.log_invocation(process, id, &op);
                if state.crash_on_invoke {
                    state.crashed = true;
                    crashed.push(process_index);
                }
                Phase::Invoked(id, op)
            }
            Phase::Invoked(id, op) => {
                let value = object.apply(process, &op);
                Phase::Applied(id, value)
            }
            Phase::Applied(id, value) => {
                log.log_response(process, id, &value);
                operations += 1;
                Phase::Idle
            }
        };
        step += 1;
    }
    ControlledRun {
        execution: RecordedExecution {
            history: History::from_events(log.events.into_inner()),
            duration: started.elapsed(),
            operations,
        },
        crashed,
        steps: step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::LossyQueue;
    use crate::impls::{AtomicCounter, MsQueue, SpecObject, TreiberStack};
    use crate::workload::WorkloadKind;
    use linrv_check::{GenLinObject, LinSpec};
    use linrv_spec::{CounterSpec, QueueSpec, StackSpec};

    #[test]
    fn recorded_histories_are_well_formed() {
        let queue = MsQueue::new();
        let run = record_execution(
            &queue,
            Workload::new(WorkloadKind::Queue, 3),
            RecorderOptions {
                processes: 3,
                ops_per_process: 20,
            },
        );
        assert!(run.history.is_well_formed());
        assert_eq!(run.operations, 60);
        assert_eq!(run.history.len(), 120);
        assert_eq!(run.history.pending_operations().count(), 0);
    }

    #[test]
    fn correct_queue_produces_linearizable_recorded_history() {
        let queue = SpecObject::new(QueueSpec::new());
        let run = record_execution(
            &queue,
            Workload::new(WorkloadKind::Queue, 11),
            RecorderOptions {
                processes: 2,
                ops_per_process: 15,
            },
        );
        assert!(LinSpec::new(QueueSpec::new()).contains(&run.history));
    }

    #[test]
    fn correct_stack_produces_linearizable_recorded_history() {
        let stack = TreiberStack::new();
        let run = record_execution(
            &stack,
            Workload::new(WorkloadKind::Stack, 5),
            RecorderOptions {
                processes: 2,
                ops_per_process: 15,
            },
        );
        assert!(LinSpec::new(StackSpec::new()).contains(&run.history));
    }

    #[test]
    fn correct_counter_produces_linearizable_recorded_history() {
        let counter = AtomicCounter::new();
        let run = record_execution(
            &counter,
            Workload::new(WorkloadKind::Counter, 5),
            RecorderOptions {
                processes: 2,
                ops_per_process: 12,
            },
        );
        assert!(LinSpec::new(CounterSpec::new()).contains(&run.history));
    }

    #[test]
    fn scheduled_runs_are_bit_for_bit_deterministic() {
        let options = RecorderOptions {
            processes: 3,
            ops_per_process: 40,
        };
        let runs: Vec<History> = (0..2)
            .map(|_| {
                let queue = MsQueue::new();
                record_scheduled(&queue, Workload::new(WorkloadKind::Queue, 42), options, 42)
                    .history
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        // A different schedule seed yields a different interleaving.
        let queue = MsQueue::new();
        let other =
            record_scheduled(&queue, Workload::new(WorkloadKind::Queue, 42), options, 43).history;
        assert_ne!(runs[0], other);
    }

    #[test]
    fn scheduled_histories_are_well_formed_overlapping_and_linearizable() {
        for kind in [WorkloadKind::Queue, WorkloadKind::Stack, WorkloadKind::Set] {
            let object = crate::impls::spec_object(kind.object_kind());
            let run = record_scheduled(
                &*object,
                Workload::new(kind, 7),
                RecorderOptions {
                    processes: 3,
                    ops_per_process: 25,
                },
                7,
            );
            assert!(run.history.is_well_formed());
            assert_eq!(run.operations, 75);
            assert_eq!(run.history.pending_operations().count(), 0);
        }
        let run = record_scheduled(
            &SpecObject::new(QueueSpec::new()),
            Workload::new(WorkloadKind::Queue, 3),
            RecorderOptions {
                processes: 2,
                ops_per_process: 20,
            },
            3,
        );
        assert!(LinSpec::new(QueueSpec::new()).contains(&run.history));
    }

    #[test]
    fn scheduled_faulty_objects_produce_violations() {
        let queue = LossyQueue::new(2);
        let run = record_scheduled(
            &queue,
            Workload::new(WorkloadKind::Queue, 9),
            RecorderOptions {
                processes: 2,
                ops_per_process: 30,
            },
            9,
        );
        assert!(!LinSpec::new(QueueSpec::new()).contains(&run.history));
    }

    #[test]
    fn traced_runs_stream_exactly_the_recorded_events() {
        use linrv_trace::{read_history, SharedTraceWriter, TraceFormat, TraceHeader};
        let sink = SharedTraceWriter::new(
            Vec::new(),
            TraceFormat::Binary,
            &TraceHeader::new(linrv_spec::ObjectKind::Queue),
        )
        .unwrap();
        let queue = MsQueue::new();
        let run = record_scheduled_traced(
            &queue,
            Workload::new(WorkloadKind::Queue, 5),
            RecorderOptions {
                processes: 2,
                ops_per_process: 10,
            },
            5,
            &sink,
        );
        let bytes = sink.finish().unwrap();
        let (_, traced) = read_history(bytes.as_slice()).unwrap();
        assert_eq!(traced, run.history);
    }

    #[test]
    fn every_kind_has_correct_and_faulty_factories() {
        use linrv_spec::ObjectKind;
        for kind in ObjectKind::ALL {
            assert_eq!(crate::impls::correct_object(kind).kind(), kind);
            assert_eq!(crate::impls::spec_object(kind).kind(), kind);
            assert_eq!(crate::faulty::faulty_object(kind, 3).kind(), kind);
        }
    }

    /// A fixed schedule of fault commands, keyed by step.
    struct At(Vec<(u64, FaultCmd)>);

    impl ScheduleFaults for At {
        fn at_step(&mut self, step: u64) -> Vec<FaultCmd> {
            self.0
                .iter()
                .filter(|(s, _)| *s == step)
                .map(|(_, cmd)| *cmd)
                .collect()
        }
    }

    #[test]
    fn crashing_a_process_leaves_exactly_one_pending_operation() {
        use crate::workload::WorkloadSource;
        let workload = Workload::new(WorkloadKind::Queue, 5);
        let queue = SpecObject::new(QueueSpec::new());
        let mut source = WorkloadSource::new(&workload, 3, 20);
        let mut faults = At(vec![(10, FaultCmd::Crash(1))]);
        let run = record_scheduled_controlled(&queue, &mut source, 3, 5, &mut faults, None);
        assert_eq!(run.crashed, vec![1]);
        let pending: Vec<_> = run.execution.history.pending_operations().collect();
        assert_eq!(pending.len(), 1, "crash mid-op leaves one pending op");
        assert_eq!(pending[0].process.index(), 1);
        assert!(run.execution.history.is_well_formed());
        // The survivors finish their full sequences.
        assert!(LinSpec::new(QueueSpec::new()).contains(&run.execution.history));
    }

    #[test]
    fn stalls_and_pauses_keep_runs_deterministic_and_complete() {
        use crate::workload::WorkloadSource;
        let histories: Vec<History> = (0..2)
            .map(|_| {
                let workload = Workload::new(WorkloadKind::Stack, 9);
                let stack = TreiberStack::new();
                let mut source = WorkloadSource::new(&workload, 2, 15);
                let mut faults = At(vec![
                    (3, FaultCmd::Stall(0, 17)),
                    (20, FaultCmd::Stall(1, 5)),
                ]);
                record_scheduled_controlled(&stack, &mut source, 2, 9, &mut faults, None)
                    .execution
                    .history
            })
            .collect();
        assert_eq!(histories[0], histories[1]);
        assert_eq!(histories[0].pending_operations().count(), 0);
        assert!(LinSpec::new(StackSpec::new()).contains(&histories[0]));
        // Stalling changed the interleaving relative to a fault-free run.
        let workload = Workload::new(WorkloadKind::Stack, 9);
        let stack = TreiberStack::new();
        let mut source = WorkloadSource::new(&workload, 2, 15);
        let plain = record_scheduled_controlled(&stack, &mut source, 2, 9, &mut NoFaults, None);
        assert_ne!(histories[0], plain.execution.history);
    }

    #[test]
    fn pauses_from_the_source_are_honoured() {
        struct Pausing {
            emitted: usize,
        }
        impl OpSource for Pausing {
            fn next_step(&mut self, process: usize) -> Option<SourceStep> {
                if process != 0 || self.emitted >= 4 {
                    return None;
                }
                self.emitted += 1;
                Some(if self.emitted == 2 {
                    SourceStep::Pause(50)
                } else {
                    SourceStep::Invoke(
                        crate::workload::Workload::new(WorkloadKind::Counter, 1)
                            .operations_for(0, 1)[0]
                            .clone(),
                    )
                })
            }
        }
        let counter = AtomicCounter::new();
        let mut source = Pausing { emitted: 0 };
        let run = record_scheduled_controlled(&counter, &mut source, 1, 3, &mut NoFaults, None);
        // 3 Invokes and 1 Pause: all operations complete, and the pause shows
        // up as idle scheduler ticks (steps > 3 ops * 3 grants).
        assert_eq!(run.execution.operations, 3);
        assert!(
            run.steps > 9 + 49,
            "pause must cost idle ticks: {}",
            run.steps
        );
    }

    #[test]
    fn lossy_queue_eventually_produces_a_non_linearizable_history() {
        // Single-process run: the recorded history is exactly the real one, and losing
        // an enqueued element while later observing `empty` is a violation.
        let queue = LossyQueue::new(2);
        let run = record_execution(
            &queue,
            Workload::new(WorkloadKind::Queue, 9),
            RecorderOptions {
                processes: 1,
                ops_per_process: 30,
            },
        );
        assert!(!LinSpec::new(QueueSpec::new()).contains(&run.history));
    }
}
