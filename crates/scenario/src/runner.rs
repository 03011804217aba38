//! Scenario execution: replays a derived [`Scenario`] against its target and
//! checks the resulting history.
//!
//! Scheduler-targeted scenarios run through the runtime's deterministic
//! controlled scheduler, so a scenario's history is a pure function of its
//! seed. Pool-targeted scenarios drive a [`linrv_pool::MonitorPool`] through
//! pool sessions on a single thread (one operation in flight at a time), which
//! keeps them equally deterministic while exercising session recycling and
//! retirement.

use crate::generator::GeneratorSource;
use crate::nemesis::{ChurnPlan, PlannedFaults};
use crate::scenario::{Scenario, Target};
use linrv_check::{Verdict, Violation};
use linrv_forensics::check_history;
use linrv_history::{Event, History, OpId, ProcessId};
use linrv_pool::{PoolBuilder, PoolSession, PoolVerdict};
use linrv_runtime::faulty::MutatedObject;
use linrv_runtime::{impls, record_scheduled_controlled, schedule_seed, ConcurrentObject};
use linrv_spec::{with_spec, ObjectKind, SequentialSpec, TypedObject, TypedOp};

/// The outcome of one executed scenario.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The scenario's label (`kind/generator/nemesis`).
    pub label: String,
    /// The checked object kind.
    pub kind: ObjectKind,
    /// The recorded history (pool scenarios: the driving mirror, which the
    /// monitor's internal history refines).
    pub history: History,
    /// The checker's verdict on `history` (pool scenarios: the pool's own
    /// verdict, with the violating witness when one exists).
    pub verdict: Verdict,
    /// Processes crashed mid-operation (each leaves one pending invocation).
    pub crashed: Vec<usize>,
}

impl RunOutcome {
    /// `true` when the scenario produced a non-linearizable history.
    pub fn violated(&self) -> bool {
        self.verdict.is_violation()
    }
}

/// Executes `scenario` end to end and checks the result.
pub fn run_scenario(scenario: &Scenario) -> RunOutcome {
    match scenario.target() {
        Target::Scheduler => run_scheduler_scenario(scenario),
        Target::Pool => run_pool_scenario(scenario),
    }
}

fn run_scheduler_scenario(scenario: &Scenario) -> RunOutcome {
    let kind = scenario.kind.object_kind();
    let plan = scenario.nemesis().plan(scenario.seed, scenario.shape());
    let object: Box<dyn ConcurrentObject> = match plan.inject_every {
        Some(every) => Box::new(MutatedObject::new(impls::spec_object(kind), every)),
        None => impls::spec_object(kind),
    };
    let mut source = GeneratorSource::new(scenario.seed, scenario.generators());
    let mut faults = PlannedFaults::new(plan.commands);
    let run = record_scheduled_controlled(
        &object,
        &mut source,
        scenario.processes,
        schedule_seed(scenario.seed),
        &mut faults,
        None,
    );
    let verdict = check_history(kind, &run.execution.history);
    RunOutcome {
        label: scenario.label(),
        kind,
        history: run.execution.history,
        verdict,
        crashed: run.crashed,
    }
}

fn run_pool_scenario(scenario: &Scenario) -> RunOutcome {
    with_spec!(scenario.kind.object_kind(), |spec| run_pool_with(
        scenario, spec
    ))
}

/// Drives the scenario's generators through pool sessions of one shared
/// object of a [`MonitorPool`](linrv_pool::MonitorPool), recycling sessions
/// per the churn plan and crashing one mid-operation (stage, never commit,
/// drop) to exercise slot retirement. The pool hosts the correct (spec-backed)
/// implementation, so the monitor must converge with no violation.
fn run_pool_with<S>(scenario: &Scenario, spec: S) -> RunOutcome
where
    S: TypedObject + SequentialSpec + Clone + Send + Sync + 'static,
{
    let kind = spec.kind();
    let plan = scenario.nemesis().plan(scenario.seed, scenario.shape());
    let churn = plan.churn.unwrap_or(ChurnPlan {
        recycle_every: usize::MAX,
        crash_one: false,
    });
    let pool = PoolBuilder::new(spec)
        .shards(2)
        .workers(1)
        .build(move |_object| impls::spec_object(kind));

    let mut source = GeneratorSource::new(scenario.seed, scenario.generators());
    type Sess<S> = PoolSession<Box<dyn ConcurrentObject>, S>;
    let mut sessions: Vec<Option<Sess<S>>> = (0..scenario.processes).map(|_| None).collect();
    // Mirror history of everything we drove, with per-incarnation process ids:
    // a crashed session's slot is retired, so its successor must not share a
    // process id with the still-pending announced operation.
    let mut events: Vec<Event> = Vec::new();
    let mut incarnation: Vec<usize> = vec![0; scenario.processes];
    let mut next_id = 0u64;
    let mut crashed = Vec::new();
    let mut applied: Vec<usize> = vec![0; scenario.processes];
    let crash_at = scenario.ops_per_process / 2;
    let mut live = true;
    while live {
        live = false;
        for process in 0..scenario.processes {
            let Some(op) = source.next_op(process) else {
                continue;
            };
            live = true;
            // Recycle: drop the session (all its operations committed) and
            // re-open one, exercising registry slot reuse.
            if applied[process] > 0 && applied[process] % churn.recycle_every == 0 {
                sessions[process] = None;
            }
            let session = match &mut sessions[process] {
                Some(session) => session,
                slot => slot.insert(pool.session(0).expect("pool registry exhausted")),
            };
            let mirror =
                ProcessId::new((process + incarnation[process] * scenario.processes) as u32);
            // Crash exactly one session mid-operation: announce (stage) and
            // drop without committing. The announced invocation stays pending
            // forever and the slot is retired, never recycled.
            if churn.crash_one
                && crashed.is_empty()
                && process == scenario.processes / 2
                && applied[process] == crash_at
            {
                if let Ok(typed) = <S::Op as TypedOp>::try_decode(&op) {
                    let staged = session.stage(typed);
                    events.push(Event::invocation(mirror, OpId::new(next_id), op.clone()));
                    next_id += 1;
                    drop(staged);
                    sessions[process] = None;
                    incarnation[process] += 1;
                    crashed.push(process);
                    applied[process] += 1;
                    continue;
                }
            }
            let response = session.apply_raw(&op);
            let id = OpId::new(next_id);
            next_id += 1;
            events.push(Event::invocation(mirror, id, op.clone()));
            events.push(Event::response(mirror, id, response.underlying.clone()));
            applied[process] += 1;
        }
    }
    drop(sessions);
    // `check_all`, not `violations`: a fallen-back frontier decides only there.
    let verdict = match pool.check_all().remove(&0) {
        Some(PoolVerdict::Violation(violation)) => Verdict::NotMember {
            violation: Violation::new(violation.witness, violation.explanation),
        },
        _ => Verdict::Member {
            linearization: None,
        },
    };
    RunOutcome {
        label: scenario.label(),
        kind,
        history: History::from_events(events),
        verdict,
        crashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{GeneratorKind, NemesisKind};
    use linrv_runtime::WorkloadKind;

    fn scenario(
        kind: WorkloadKind,
        generator: GeneratorKind,
        nemesis: NemesisKind,
        seed: u64,
    ) -> Scenario {
        Scenario {
            index: 0,
            seed,
            kind,
            processes: 3,
            ops_per_process: if kind == WorkloadKind::Consensus {
                1
            } else {
                12
            },
            generator,
            nemesis,
        }
    }

    #[test]
    fn quiet_scenarios_on_correct_objects_stay_linearizable() {
        for (kind, generator) in [
            (WorkloadKind::Queue, GeneratorKind::Uniform),
            (WorkloadKind::Set, GeneratorKind::HotKey),
            (WorkloadKind::Stack, GeneratorKind::FillThenDrain),
            (WorkloadKind::Counter, GeneratorKind::Bursty),
            (WorkloadKind::Register, GeneratorKind::PerProcess),
        ] {
            let outcome = run_scenario(&scenario(kind, generator, NemesisKind::Quiet, 42));
            assert!(
                !outcome.violated(),
                "{}: {:?}",
                outcome.label,
                outcome.verdict
            );
            assert!(outcome.crashed.is_empty());
            assert_eq!(outcome.history.len(), 2 * 3 * 12);
        }
    }

    #[test]
    fn runs_are_bit_for_bit_deterministic() {
        for nemesis in [NemesisKind::Crash, NemesisKind::Stall, NemesisKind::Inject] {
            let s = scenario(WorkloadKind::Queue, GeneratorKind::Bursty, nemesis, 7);
            let a = run_scenario(&s);
            let b = run_scenario(&s);
            assert_eq!(a.history.events(), b.history.events(), "{nemesis}");
            assert_eq!(a.crashed, b.crashed);
        }
    }

    #[test]
    fn crash_scenarios_leave_pending_operations_but_stay_linearizable() {
        let outcome = run_scenario(&scenario(
            WorkloadKind::Register,
            GeneratorKind::Uniform,
            NemesisKind::Crash,
            19,
        ));
        assert!(!outcome.violated(), "{:?}", outcome.verdict);
        assert!(!outcome.crashed.is_empty());
        assert_eq!(
            outcome.history.pending_operations().count(),
            outcome.crashed.len()
        );
    }

    #[test]
    fn injected_faults_are_detected() {
        for kind in [
            WorkloadKind::Queue,
            WorkloadKind::Stack,
            WorkloadKind::PriorityQueue,
            WorkloadKind::Counter,
            WorkloadKind::Register,
        ] {
            let outcome = run_scenario(&scenario(
                kind,
                GeneratorKind::Uniform,
                NemesisKind::Inject,
                23,
            ));
            assert!(outcome.violated(), "{} should violate", outcome.label);
        }
    }

    #[test]
    fn pool_churn_converges_with_no_false_violation() {
        let s = scenario(
            WorkloadKind::Counter,
            GeneratorKind::Uniform,
            NemesisKind::Churn,
            31,
        );
        let outcome = run_scenario(&s);
        assert!(!outcome.violated(), "{:?}", outcome.verdict);
        // The mirror history itself must be linearizable too (and well-formed
        // despite the crashed incarnation).
        assert!(outcome.history.is_well_formed());
        assert!(!check_history(ObjectKind::Counter, &outcome.history).is_violation());
        // Determinism extends to the pool path.
        let again = run_scenario(&s);
        assert_eq!(outcome.history.events(), again.history.events());
        assert_eq!(outcome.crashed, again.crashed);
    }
}
