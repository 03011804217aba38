//! Cross-crate tests of the scenario engine: pool crash semantics, shrinking
//! properties and sweep determinism, plus replay of the committed shrunk
//! witnesses under `traces/shrunk/`.

use linrv::prelude::*;
use linrv::spec::typed::counter::Inc;
use linrv_pool::PoolBuilder;
use linrv_runtime::impls::AtomicCounter;
use linrv_scenario::shrink::{is_locally_minimal, shrink};
use linrv_scenario::{run_sweep, FuzzConfig};
use linrv_spec::ops::queue;
use linrv_spec::ObjectKind;
use linrv_trace::Provenance;
use proptest::prelude::*;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Pool crash mid-operation (session killed between invocation and response).

/// Crashing a pool session between announce and commit must retire the slot,
/// leave the invocation pending, and not wedge or falsely fail the monitor:
/// every other session keeps verifying and the pool converges.
#[test]
fn pool_session_crash_mid_operation_converges_without_false_violation() {
    let pool = PoolBuilder::new(CounterSpec::new())
        .shards(2)
        .workers(1)
        .build(|_| AtomicCounter::new());

    // Healthy traffic before the crash.
    for _ in 0..5 {
        let session = pool.session(0).unwrap();
        session.inc().unwrap();
    }

    // Crash: announce an inc (the invocation is recorded) and drop the staged
    // operation and its session without ever executing or committing.
    let victim = pool.session(0).unwrap();
    let staged = victim.stage(Inc);
    drop(staged);
    drop(victim);

    // The slot is retired, not recycled: new sessions still open and verify.
    for _ in 0..5 {
        let session = pool.session(0).unwrap();
        session.inc().unwrap();
    }
    pool.quiesce();

    let verdicts = pool.check_all();
    assert!(
        verdicts.values().all(|verdict| verdict.is_correct()),
        "a crashed session must not fail the object: {verdicts:?}"
    );
    let stats = pool.stats();
    assert_eq!(stats.violations, 0);
    // 10 complete operations (20 events) + the crashed, forever-pending
    // invocation.
    assert_eq!(stats.ingested, 21);
    assert_eq!(stats.processed, 21, "the pool must drain despite the crash");
    // GC stays sound: with the crashed invocation open forever there is no
    // settle point after it, so the events after the crash are all retained.
    assert!(stats.retained_events >= 11);
}

// ---------------------------------------------------------------------------
// Shrinking properties.

/// A violating queue history with `noise` removable enqueue/dequeue pairs
/// around one seeded bug (a dequeue of a never-enqueued value).
fn noisy_failing_history(noise: usize) -> linrv::raw::History {
    let mut builder = linrv::raw::HistoryBuilder::new();
    let p = linrv::raw::ProcessId::new(0);
    for i in 0..noise {
        builder.complete(
            p,
            queue::enqueue(500 + i as i64),
            linrv::raw::OpValue::Bool(true),
        );
        builder.complete(
            p,
            queue::dequeue(),
            linrv::raw::OpValue::Int(500 + i as i64),
        );
    }
    builder.complete(p, queue::dequeue(), linrv::raw::OpValue::Int(-7));
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shrunk trace still fails, and it is locally minimal: removing any
    /// single complete pair of the witness makes it pass.
    #[test]
    fn shrunk_traces_still_fail_and_are_locally_minimal(noise in 0usize..16) {
        let failing = noisy_failing_history(noise);
        let outcome = shrink(ObjectKind::Queue, &failing);
        prop_assert!(linrv_scenario::check_history(ObjectKind::Queue, &outcome.history)
            .is_violation());
        prop_assert!(is_locally_minimal(ObjectKind::Queue, &outcome.history));
        prop_assert_eq!(outcome.history.complete_operations().count(), 1);
        prop_assert_eq!(outcome.removed, 2 * noise);
    }

    /// Shrinking is a pure function of its input.
    #[test]
    fn shrinking_is_deterministic_across_runs(noise in 0usize..16, reps in 2usize..4) {
        let failing = noisy_failing_history(noise);
        let first = shrink(ObjectKind::Queue, &failing);
        for _ in 1..reps {
            let again = shrink(ObjectKind::Queue, &failing);
            prop_assert_eq!(again.history.events(), first.history.events());
            prop_assert_eq!(again.checks, first.checks);
        }
    }

    /// Fuzz sweeps are bit-for-bit deterministic per seed: same seed, same
    /// report (modulo wall-clock timings, the one non-deterministic field)
    /// and byte-identical corpus files in a fresh directory.
    #[test]
    fn fuzz_sweeps_are_byte_identical_per_seed(seed in any::<u64>()) {
        let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep-{seed:016x}"));
        let dir_a = base.join("a");
        let dir_b = base.join("b");
        let config = FuzzConfig::quick(seed).with_scenarios(6);
        let report_a = run_sweep(&config.clone().with_corpus(&dir_a)).unwrap();
        let report_b = run_sweep(&config.with_corpus(&dir_b)).unwrap();
        let strip_timings = |report: &str| -> String {
            report
                .lines()
                .filter(|line| !line.contains(" ops/sec"))
                .map(|line| line.rfind(" in ").map_or(line, |at| &line[..at]).to_owned())
                .collect::<Vec<_>>()
                .join("\n")
        };
        prop_assert_eq!(strip_timings(&report_a.render()), strip_timings(&report_b.render()));
        let mut names_a: Vec<_> = std::fs::read_dir(&dir_a)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names_a.sort();
        for name in &names_a {
            let bytes_a = std::fs::read(dir_a.join(name)).unwrap();
            let bytes_b = std::fs::read(dir_b.join(name)).unwrap();
            prop_assert_eq!(&bytes_a, &bytes_b, "corpus file {:?} differs", name);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Committed shrunk witnesses.

/// Every committed shrunk trace must still be a violation of its kind and
/// still be locally minimal — the corpus pins both the fuzzing pipeline's
/// output format and the shrinker's guarantee.
#[test]
fn committed_shrunk_witnesses_replay_as_minimal_violations() {
    let mut seen = 0;
    for (path, header, history) in tests_integration::golden_traces() {
        if !tests_integration::is_shrunk(&path) {
            continue;
        }
        seen += 1;
        assert_eq!(header.provenance, Provenance::Faulty, "{}", path.display());
        assert!(
            header.scenario.is_some(),
            "{}: shrunk traces record their scenario",
            path.display()
        );
        assert!(
            linrv_scenario::check_history(header.kind, &history).is_violation(),
            "{}: must still violate",
            path.display()
        );
        assert!(
            is_locally_minimal(header.kind, &history),
            "{}: must still be locally minimal",
            path.display()
        );
    }
    assert!(
        seen >= 2,
        "expected at least two committed shrunk witnesses"
    );
}
