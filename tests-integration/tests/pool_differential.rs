//! Differential tests for `linrv-pool`: on seeded multi-object workloads the
//! pool's per-object verdicts must equal the verdicts of independent
//! single-object [`Monitor`]s driven with the same operations — correct and
//! fault-injected, across every snapshot backend — and the scale acceptance
//! run must show bounded memory via settle points.

use linrv::prelude::*;
use linrv::runtime::{faulty, impls, ConcurrentObject, Workload, WorkloadKind};
use linrv::spec::ObjectKind;
use linrv_pool::PoolBuilder;
use linrv_spec::typed::counter::Inc;
use linrv_spec::{
    CounterSpec, PriorityQueueSpec, QueueSpec, RegisterSpec, SetSpec, StackSpec, TypedObject,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const KINDS: [ObjectKind; 6] = [
    ObjectKind::Counter,
    ObjectKind::Register,
    ObjectKind::Queue,
    ObjectKind::Stack,
    ObjectKind::Set,
    ObjectKind::PriorityQueue,
];

const BACKENDS: [SnapshotBackend; 3] = [
    SnapshotBackend::Afek,
    SnapshotBackend::DoubleCollect,
    SnapshotBackend::Locked,
];

/// Builds the object instance for `id`: the kind's canonical correct
/// implementation, or its deterministic fault injector for the chosen bad ids.
/// Both the pool and the reference monitors call this, so the two runs see
/// byte-identical implementation behaviour under identical op sequences.
fn build_object(kind: ObjectKind, id: u64, bad: &[u64]) -> Box<dyn ConcurrentObject> {
    if bad.contains(&id) {
        faulty::faulty_object(kind, 3)
    } else {
        impls::correct_object(kind)
    }
}

/// Drives `objects` objects through a pool and through independent single
/// monitors with identical seeded op sequences (sequentially, so responses are
/// deterministic), then asserts the per-object verdicts agree bit-for-bit.
fn differential_pool<S>(spec: S, kind: ObjectKind, seed: u64, backend: SnapshotBackend, bad: &[u64])
where
    S: TypedObject + Copy + Send + Sync + 'static,
{
    let objects: u64 = 6;
    let ops_per_object = 10usize;
    let bad_owned = bad.to_vec();
    let pool = PoolBuilder::new(spec)
        .shards(3)
        .workers(2)
        .sessions_per_object(1)
        .snapshot(backend)
        .build(move |id| build_object(kind, id, &bad_owned));

    let mut expected = BTreeMap::new();
    for id in 0..objects {
        let operations = Workload::new(WorkloadKind::for_object(kind), seed ^ id)
            .operations_for(0, ops_per_object);
        // Pool run.
        let session = pool.session(id).expect("first session of the object");
        for op in &operations {
            let _ = session.apply_raw(op);
        }
        drop(session);
        // Reference run: an independent single-object monitor over an
        // identically-built implementation instance.
        let monitor = Monitor::builder(spec)
            .processes(1)
            .snapshot(backend)
            .mode(Mode::Observe)
            .build(build_object(kind, id, bad));
        let reference = monitor.register().expect("one slot");
        for op in &operations {
            let _ = reference.apply_raw(op);
        }
        drop(reference);
        expected.insert(id, monitor.check().is_correct());
    }

    let verdicts = pool.check_all();
    assert_eq!(verdicts.len(), objects as usize);
    for id in 0..objects {
        assert_eq!(
            verdicts[&id].is_correct(),
            expected[&id],
            "pool and single-monitor verdicts diverge for object {id} \
             (kind {kind}, seed {seed}, backend {backend:?}, bad {bad:?})"
        );
        if let Some(violation) = verdicts[&id].violation() {
            assert_eq!(violation.object, id, "violations carry their object id");
            assert!(
                !violation.witness.is_empty(),
                "violations carry a witness prefix"
            );
        }
    }
}

fn differential_for(kind: ObjectKind, seed: u64, backend: SnapshotBackend, bad: &[u64]) {
    macro_rules! run {
        ($spec:expr) => {
            differential_pool($spec, kind, seed, backend, bad)
        };
    }
    match kind {
        ObjectKind::Counter => run!(CounterSpec::new()),
        ObjectKind::Register => run!(RegisterSpec::new()),
        ObjectKind::Queue => run!(QueueSpec::new()),
        ObjectKind::Stack => run!(StackSpec::new()),
        ObjectKind::Set => run!(SetSpec::new()),
        ObjectKind::PriorityQueue => run!(PriorityQueueSpec::new()),
        other => panic!("kind {other} is not part of the pool differential"),
    }
}

/// One step of a two-session schedule on a single counter.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// One whole operation of the session: nothing else is open meanwhile.
    Alone(usize),
    /// Both sessions invoke, then both respond, `first` leading each phase.
    Overlap { first: usize },
}

/// Drives two sessions of one counter through `schedule`, phase by phase on
/// this thread, so the event order — and with it which stretches overlap — is
/// exactly the schedule's.
fn drive_two_sessions<A: ConcurrentObject>(
    sessions: [&Session<A, CounterSpec>; 2],
    schedule: &[Step],
) {
    for step in schedule {
        match *step {
            Step::Alone(session) => {
                let _ = sessions[session].inc();
            }
            Step::Overlap { first } => {
                let order = [sessions[first], sessions[1 - first]];
                let staged = order.map(|session| session.stage(Inc));
                let mut executed = Vec::with_capacity(2);
                for (session, staged) in order.iter().zip(staged) {
                    executed.push(session.execute(staged));
                }
                for (session, executed) in order.iter().zip(executed) {
                    let _ = session.commit(executed);
                }
            }
        }
    }
}

/// One counter shared by two sessions, alternating between overlapping and
/// sequential stretches: the pool settles after every stretch and decides the
/// next from the settled state, and must still agree with a single monitor
/// driven through the same schedule.
fn differential_two_sessions(schedule: &[Step], faulty: bool) {
    let object = move |_| -> Box<dyn ConcurrentObject> {
        if faulty {
            faulty::faulty_object(ObjectKind::Counter, 3)
        } else {
            impls::correct_object(ObjectKind::Counter)
        }
    };
    let pool = PoolBuilder::new(CounterSpec::new())
        .shards(1)
        .workers(1)
        .sessions_per_object(2)
        .build(object);
    let pooled = [pool.session(0).unwrap(), pool.session(0).unwrap()];
    drive_two_sessions([&*pooled[0], &*pooled[1]], schedule);

    let monitor = Monitor::builder(CounterSpec::new())
        .processes(2)
        .mode(Mode::Observe)
        .build(object(0));
    let reference = [monitor.register().unwrap(), monitor.register().unwrap()];
    drive_two_sessions([&reference[0], &reference[1]], schedule);

    let verdicts = pool.check_all();
    assert_eq!(
        verdicts[&0].is_correct(),
        monitor.check().is_correct(),
        "pool and single-monitor verdicts diverge (schedule {schedule:?}, faulty {faulty})"
    );
}

impl Step {
    /// Decodes a drawn schedule entry: two in three are sequential.
    fn from_code(code: usize) -> Step {
        match code {
            0..=3 => Step::Alone(code % 2),
            _ => Step::Overlap { first: code % 2 },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-object pool verdicts equal independent single-monitor verdicts on
    /// seeded multi-object workloads, with and without injected faults,
    /// across all three snapshot backends.
    #[test]
    fn pool_verdicts_match_single_monitors(
        seed in 0..10_000u64,
        kind_index in 0..KINDS.len(),
        backend_index in 0..BACKENDS.len(),
        inject_faults in any::<bool>(),
    ) {
        let kind = KINDS[kind_index];
        let backend = BACKENDS[backend_index];
        let bad: Vec<u64> = if inject_faults {
            vec![seed % 6, (seed / 7) % 6]
        } else {
            Vec::new()
        };
        differential_for(kind, seed, backend, &bad);
    }

    /// The same agreement on one object whose history alternates between
    /// overlapping and sequential stretches.
    #[test]
    fn pool_verdict_matches_single_monitor_across_overlaps(
        codes in proptest::collection::vec(0..6usize, 4..16),
        faulty in any::<bool>(),
    ) {
        let schedule: Vec<Step> = codes.into_iter().map(Step::from_code).collect();
        differential_two_sessions(&schedule, faulty);
    }
}

/// Every kind, not only the ones a proptest run happens to draw.
#[test]
fn pool_verdicts_match_single_monitors_for_every_kind() {
    for kind in KINDS {
        for (seed, bad) in [(7, vec![]), (42, vec![0, 3])] {
            differential_for(kind, seed, SnapshotBackend::Locked, &bad);
        }
    }
}

/// The PR's acceptance run: a seeded load generator with 64 concurrent clients
/// over 10k objects completes with bounded per-object memory (settle-point
/// GC observable through the stats API), the injected faulty object is
/// reported with its id and violating prefix, and every other object verifies
/// clean.
///
/// Ignored by default (it spawns 64 threads and builds 10k monitors); run with
/// `cargo test -p tests-integration --release -- --ignored acceptance_pool`.
#[test]
#[ignore = "acceptance-scale run; invoke explicitly with --ignored"]
fn acceptance_pool_64_clients_10k_objects() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const CLIENTS: u64 = 64;
    const OBJECTS: u64 = 10_000;
    const OPS_PER_CLIENT: u64 = 400;
    const SEED: u64 = 42;
    let bad = OBJECTS / 2;

    let pool = Arc::new(
        PoolBuilder::new(CounterSpec::new())
            .shards(16)
            .workers(4)
            .sessions_per_object(8)
            .snapshot(SnapshotBackend::Locked)
            .build(move |id| -> Box<dyn ConcurrentObject> {
                if id == bad {
                    // Stutters every 3rd apply: duplicated fetch-and-increment
                    // responses are never linearizable.
                    faulty::faulty_object(ObjectKind::Counter, 3)
                } else {
                    impls::correct_object(ObjectKind::Counter)
                }
            }),
    );

    // A dedicated sequentially-hammered object: strictly alternating history,
    // so settle-point GC must reclaim essentially all of it. This is the
    // deterministic bounded-memory witness. The op count is moderate because
    // the DRV wrapper's announce views grow with an object's total operation
    // count (Figure 7 writes ever-growing sets; see Section 9.1), which is
    // independent of the pool's history GC.
    let seq_key = OBJECTS - 1;
    const SEQ_OPS: u64 = 300;

    let contended = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                let session = pool.session(seq_key).expect("dedicated slot");
                for _ in 0..SEQ_OPS {
                    let _ = session.inc();
                }
            });
        }
        for client in 0..CLIENTS {
            let pool = Arc::clone(&pool);
            let contended = Arc::clone(&contended);
            scope.spawn(move || {
                // splitmix64 per client: the whole load is a function of SEED.
                let mut state = SEED ^ client.wrapping_mul(0x0DDB_1A5E_5BAD_5EED);
                let mut next = move || {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^ (z >> 31)
                };
                for _ in 0..OPS_PER_CLIENT {
                    // Zipf-ish mix: a quarter of the traffic goes to 512 hot
                    // objects so overlaps and GC happen mid-run, the rest
                    // spreads across all 10k. The hot set is wide enough that
                    // few operations of one object overlap at a time.
                    // (The random spread stays off the dedicated sequential
                    // key so its history remains strictly alternating.)
                    let key = if next() % 4 == 0 {
                        next() % 512
                    } else {
                        next() % (OBJECTS - 1)
                    };
                    let Ok(session) = pool.session(key) else {
                        contended.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    let _ = session.inc();
                }
            });
        }
    });
    pool.quiesce();

    // GC must be observable mid-run, before any final check: the hot objects
    // and the dedicated sequential object passed settle points many times.
    let mid = pool.stats();
    assert!(
        mid.gced_events > 0,
        "no GC happened during the run: {mid:?}"
    );
    let seq_mid = pool
        .object_stats(seq_key)
        .expect("sequential object exists");
    assert!(
        seq_mid.gced_events > 0,
        "the sequential object was never GC'd mid-run: {seq_mid:?}"
    );

    // A short sequential audit guarantees the faulty object served enough
    // applies to stutter, whatever the random load did.
    {
        let session = pool.session(bad).expect("audit slot");
        for _ in 0..8 {
            let _ = session.inc();
        }
    }

    let verdicts = pool.check_all();
    assert!(verdicts.len() > 1_000, "the load must touch many objects");
    let flagged: Vec<u64> = verdicts
        .iter()
        .filter(|(_, verdict)| !verdict.is_correct())
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(
        flagged,
        vec![bad],
        "exactly the injected object is reported"
    );
    let violation = verdicts[&bad].violation().expect("witness");
    assert_eq!(violation.object, bad);
    assert!(
        !violation.witness.is_empty(),
        "the violating prefix is attached"
    );

    // Per-object bounded memory after the final sweep: the sequential
    // object's fully-checked alternating history is reclaimed almost
    // entirely — retention is a small constant, not O(ops).
    let end = pool.stats();
    assert!(end.gced_events >= mid.gced_events);
    let seq = pool
        .object_stats(seq_key)
        .expect("sequential object exists");
    assert!(
        seq.gced_events >= 2 * SEQ_OPS - 8,
        "the sequential history was not reclaimed: {seq:?}"
    );
    assert!(
        seq.retained_events < 8,
        "per-object memory is not bounded: {seq:?}"
    );
    assert!(!seq.violating);
    let audit = pool.object_stats(bad).expect("audited object exists");
    assert!(audit.violating);
    eprintln!(
        "acceptance: {} objects, {} events ingested, {} GC'd, {} retained, {} checks, \
         {} steals, {} contended sessions",
        end.objects,
        end.ingested,
        end.gced_events,
        end.retained_events,
        end.checks,
        end.steals,
        contended.load(Ordering::Relaxed),
    );
}
