//! Facade integration tests: the typed layer is a *lossless encoding* of the raw
//! untyped API, and a typed session run produces verdicts identical to the raw
//! API on the same workload.

use linrv::prelude::*;
use linrv::raw::core::enforce::{decide, step};
use linrv::raw::{LinSpec, ProcessId, SelfEnforced};
use linrv::runtime::faulty::LossyQueue;
use linrv::runtime::impls::MsQueue;
use linrv::runtime::{Workload, WorkloadKind};
use linrv::spec::typed::queue::QueueOp;
use linrv::spec::typed::{consensus, counter, priority_queue, queue, register, set, stack};
use proptest::prelude::*;

/// Encode → decode must reproduce the typed operation exactly.
fn round_trip_op<Op: TypedOp>(op: Op) {
    let wire = op.encode();
    assert_eq!(Op::try_decode(&wire), Ok(op), "lossy encoding of {wire}");
}

/// Encode → decode must reproduce the typed response exactly.
fn round_trip_response<Op: TypedOp>(op: &Op, response: Op::Response) {
    let wire = op.encode_response(&response);
    assert_eq!(
        op.decode_response(&wire),
        Ok(response),
        "lossy response encoding via {wire}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite: for every spec, random typed operations encode to
    /// `Operation`/`OpValue` and decode back losslessly — operations *and*
    /// responses.
    #[test]
    fn typed_layer_round_trips_for_every_spec(
        variant in 0..14usize, v in any::<i64>(), flag in any::<bool>()
    ) {
        let take = if flag { Some(v) } else { None };
        match variant {
            0 => {
                round_trip_op(queue::Enqueue(v));
                round_trip_response(&queue::Enqueue(v), ());
            }
            1 => {
                round_trip_op(queue::Dequeue);
                round_trip_response(&queue::Dequeue, take);
            }
            2 => {
                round_trip_op(stack::Push(v));
                round_trip_response(&stack::Push(v), ());
            }
            3 => {
                round_trip_op(stack::Pop);
                round_trip_response(&stack::Pop, take);
            }
            4 => {
                round_trip_op(set::Add(v));
                round_trip_response(&set::Add(v), flag);
            }
            5 => {
                round_trip_op(set::Remove(v));
                round_trip_response(&set::Remove(v), flag);
            }
            6 => {
                round_trip_op(set::Contains(v));
                round_trip_response(&set::Contains(v), flag);
            }
            7 => {
                round_trip_op(priority_queue::Insert(v));
                round_trip_response(&priority_queue::Insert(v), ());
            }
            8 => {
                round_trip_op(priority_queue::ExtractMin);
                round_trip_response(&priority_queue::ExtractMin, take);
            }
            9 => {
                round_trip_op(counter::Inc);
                round_trip_response(&counter::Inc, v);
            }
            10 => {
                round_trip_op(counter::Read);
                round_trip_response(&counter::Read, v);
            }
            11 => {
                round_trip_op(register::Write(v));
                round_trip_response(&register::Write(v), ());
            }
            12 => {
                round_trip_op(register::Read);
                round_trip_response(&register::Read, v);
            }
            _ => {
                round_trip_op(consensus::Decide(v));
                round_trip_response(&consensus::Decide(v), v);
            }
        }
    }

    /// The uniform per-object enums decode any wire operation of their interface
    /// and re-encode it unchanged.
    #[test]
    fn uniform_enums_round_trip_the_wire_format(enqueue in any::<bool>(), v in any::<i64>()) {
        let wire = if enqueue {
            linrv::spec::ops::queue::enqueue(v)
        } else {
            linrv::spec::ops::queue::dequeue()
        };
        let decoded = QueueOp::try_decode(&wire).expect("interface is covered");
        assert_eq!(decoded.encode(), wire);
    }

    /// Satellite: a typed session run over `LockedSnapshot` produces verdicts
    /// identical to the raw untyped API on the same seed — operation by
    /// operation, including the underlying value carried by rejections — and so
    /// does `Session::apply_raw`; an Observe-mode monitor likewise matches raw
    /// `step(.., Mode::Observe)` + `decide` (Figure 12). All of them are callers of
    /// one publish→verify step.
    #[test]
    fn typed_sessions_match_raw_verdicts_on_the_same_seed(
        seed in any::<u64>(), len in 1..20usize, drop_every in 2..6u64, procs in 1..4usize
    ) {
        let build = |mode| {
            let monitor = Monitor::builder(QueueSpec::new())
                .processes(procs)
                .snapshot(SnapshotBackend::Locked)
                .mode(mode)
                .build(LossyQueue::new(drop_every));
            let sessions: Vec<_> = (0..procs)
                .map(|_| monitor.register().expect("capacity matches procs"))
                .collect();
            (monitor, sessions)
        };
        let (monitor, sessions) = build(Mode::Enforce);
        let (wire_monitor, wire_sessions) = build(Mode::Enforce);
        let raw = SelfEnforced::new(
            LossyQueue::new(drop_every),
            LinSpec::new(QueueSpec::new()),
            procs,
        );
        let (observed, observing) = build(Mode::Observe);
        let decoupled = SelfEnforced::new(
            LossyQueue::new(drop_every),
            LinSpec::new(QueueSpec::new()),
            procs,
        );

        let workload = Workload::new(WorkloadKind::Queue, seed);
        let plans: Vec<_> = (0..procs)
            .map(|p| workload.operations_for(p, len))
            .collect();

        // Drive all stacks through the identical sequential interleaving.
        for k in 0..len {
            for (p, plan) in plans.iter().enumerate() {
                let wire = &plan[k];
                let process = ProcessId::new(p as u32);
                let typed_op = QueueOp::try_decode(wire).expect("queue workload");
                let typed = sessions[p].apply(typed_op);
                let raw_response = raw.apply_verified(process, wire);
                assert_eq!(
                    wire_sessions[p].apply_raw(wire),
                    raw_response,
                    "apply_raw diverged from the raw API"
                );
                match typed {
                    Ok(value) => {
                        assert!(
                            raw_response.is_verified(),
                            "typed accepted what raw rejected"
                        );
                        assert_eq!(value, raw_response.value);
                    }
                    Err(rejected) => {
                        assert!(
                            rejected.is_violation(),
                            "workload responses always decode: {rejected}"
                        );
                        assert!(
                            !raw_response.is_verified(),
                            "typed rejected what raw accepted"
                        );
                        assert_eq!(rejected.underlying(), &raw_response.underlying);
                    }
                }
                // Figure 12 twice: neither gates, both return the underlying value.
                let response = decoupled.drv().apply_drv(process, wire);
                let produced = step(decoupled.verifier(), process, response, Mode::Observe).value;
                assert_eq!(produced, raw_response.underlying);
                assert_eq!(observing[p].apply(typed_op), Ok(produced));
            }
        }
        let correct = raw.certificate().is_correct();
        for enforcing in [&monitor, &wire_monitor] {
            assert_eq!(enforcing.certificate().is_correct(), correct, "final verdicts diverged");
            assert_eq!(enforcing.check().is_correct(), correct, "check diverged");
        }
        assert_eq!(
            decide(decoupled.verifier(), ProcessId::new(0)).is_none(),
            correct,
            "decoupled verdict diverged"
        );
        assert_eq!(observed.check().is_correct(), correct, "observed verdict diverged");
        assert_eq!(observed.certificate().is_correct(), correct, "observed certificate diverged");
    }
}

/// Dynamic registration replaces the fixed upfront process count: slots are
/// leased, enforced and recycled, and the verifier state survives recycling.
#[test]
fn registration_is_capacity_bounded_and_recycles() {
    let monitor = Monitor::builder(QueueSpec::new())
        .processes(2)
        .build(MsQueue::new());
    let a = monitor.register().expect("slot 0");
    let b = monitor.register().expect("slot 1");
    let err = monitor.register().expect_err("capacity is 2");
    assert_eq!(err.capacity, 2);

    a.enqueue(1).unwrap();
    drop(a);
    let c = monitor.register().expect("slot 0 recycled");
    assert_eq!(c.dequeue().unwrap(), Some(1), "state survives recycling");
    drop(b);
    drop(c);
    assert_eq!(monitor.registered(), 0);
    assert!(monitor.certificate().is_correct());
}

/// Sessions move into worker threads; a correct queue is never rejected
/// (soundness, end to end through the facade).
#[test]
fn concurrent_typed_sessions_over_a_correct_queue_never_reject() {
    let monitor = Monitor::builder(QueueSpec::new())
        .processes(3)
        .build(MsQueue::new());
    let rejected: usize = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..3i64 {
            let session = monitor.register().expect("one slot per thread");
            handles.push(scope.spawn(move || {
                let mut rejections = 0usize;
                for i in 0..20 {
                    let outcome = if (t + i) % 2 == 0 {
                        session.enqueue(t * 1000 + i).err()
                    } else {
                        session.dequeue().err()
                    };
                    if outcome.is_some() {
                        rejections += 1;
                    }
                }
                rejections
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(rejected, 0, "false alarm on a correct queue");
    assert!(monitor.check().is_correct());
}
