//! Tier-1 gates for the `linrv-obs` layer.
//!
//! Two properties are pinned. First, the kill switch works: with recording
//! off (the default) the instrumented session hot path stays within noise of
//! itself with recording on — the gate is deliberately generous (3x plus an
//! absolute slack) because debug-build timing is noisy, while a real
//! regression (say, a lock on the hot path) is orders of magnitude.
//! Second, the recorded numbers are *consistent*: announce/collect counters
//! obey the paper's phase structure (`announced == collected + pending`) and
//! latency histograms carry exactly one sample per completed operation.
//!
//! Everything here shares the process-wide enabled flag and the cumulative
//! global registry, so every test takes [`OBS_LOCK`] and measures deltas
//! under it.

use linrv::prelude::*;
use linrv::runtime::impls::AtomicCounter;
use linrv_core::Drv;
use linrv_spec::ops::counter;
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means another test failed; the registry itself
    // stays usable.
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn recording_overhead_is_within_noise() {
    let _guard = lock();
    let time = |on: bool| -> u128 {
        linrv_obs::set_enabled(on);
        // Verified session ops re-check the growing prefix, so the batch is
        // kept small — the point is the relative cost of recording, not an
        // absolute throughput number.
        let mut best = u128::MAX;
        for _ in 0..5 {
            let monitor = Monitor::builder(CounterSpec::new())
                .processes(1)
                .build(AtomicCounter::new());
            let session = monitor.register().expect("fresh monitor has a free slot");
            let start = Instant::now();
            for _ in 0..48 {
                session.inc().expect("a correct counter is never rejected");
            }
            best = best.min(start.elapsed().as_nanos());
        }
        linrv_obs::set_enabled(false);
        best
    };
    let off = time(false);
    let on = time(true);
    assert!(
        on <= off * 3 + 2_000_000,
        "recording tripled the session hot path: {on}ns on vs {off}ns off"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Figure 7 phase accounting: every operation is announced exactly once,
    /// collected at most once, and the gap is exactly the processes that
    /// announced and then stopped (crashed or still in flight). Each collect
    /// contributes one announce-view size sample.
    #[test]
    fn announce_collect_counters_are_consistent(op_count in 1..40usize, pending in 0..4usize) {
        let _guard = lock();
        linrv_obs::set_enabled(true);
        let announced0 = linrv_core::metrics::ops_announced().get();
        let collected0 = linrv_core::metrics::ops_collected().get();
        let views0 = linrv_core::metrics::view_size().snapshot_values().count;

        let drv = Drv::new(AtomicCounter::new(), pending + 1);
        let worker = drv.registry().register().expect("fresh wrapper has free slots");
        for _ in 0..op_count {
            let _ = drv.apply_drv(worker, &counter::inc());
        }
        // `pending` processes announce and never collect.
        for _ in 0..pending {
            let process = drv.registry().register().expect("slots sized for the pending set");
            let _ = drv.announce(process, &counter::inc());
        }
        linrv_obs::set_enabled(false);

        let announced = linrv_core::metrics::ops_announced().get() - announced0;
        let collected = linrv_core::metrics::ops_collected().get() - collected0;
        let views = linrv_core::metrics::view_size().snapshot_values().count - views0;
        prop_assert_eq!(announced, (op_count + pending) as u64);
        prop_assert_eq!(collected, op_count as u64);
        prop_assert_eq!(announced - collected, pending as u64);
        prop_assert_eq!(views, collected);
    }

    /// The session latency histogram carries exactly one sample per completed
    /// operation — the same count the verifier's sketched history reports — and
    /// every Enforce-mode verdict adds one sketch timing and, next to it, the
    /// size of the tuple set it was built from.
    #[test]
    fn session_latency_samples_match_the_history(op_count in 1..30usize) {
        let _guard = lock();
        linrv_obs::set_enabled(true);
        let samples0 = linrv::metrics::op_ns().snapshot_values().count;
        let sketches0 = linrv_core::metrics::sketch_ns().snapshot_values().count;
        let tuples0 = linrv_core::metrics::verifier_tuples().snapshot_values();
        let monitor = Monitor::builder(CounterSpec::new())
            .processes(2)
            .build(AtomicCounter::new());
        let session = monitor.register().expect("fresh monitor has free slots");
        for _ in 0..op_count {
            session.inc().expect("a correct counter is never rejected");
        }
        linrv_obs::set_enabled(false);

        let samples = linrv::metrics::op_ns().snapshot_values().count - samples0;
        let sketches = linrv_core::metrics::sketch_ns().snapshot_values().count - sketches0;
        let tuples = linrv_core::metrics::verifier_tuples().snapshot_values();
        prop_assert_eq!(sketches as usize, op_count);
        prop_assert_eq!(tuples.count - tuples0.count, sketches);
        // One session: the k-th verdict sees exactly its own k tuples.
        prop_assert_eq!((tuples.sum - tuples0.sum) as usize, op_count * (op_count + 1) / 2);
        let raw = monitor.as_raw();
        let scanner = raw.drv().registry().register().expect("second slot is free");
        let history = raw
            .verifier()
            .audit(scanner)
            .sketch
            .expect("a verified run sketches cleanly");
        prop_assert_eq!(samples as usize, history.complete_operations().count());
        prop_assert_eq!(samples as usize, op_count);
    }
}

/// The streaming checker decides a clean trace on its per-event frontier
/// alone: one frontier-size sample per response, no fallback, and not one
/// whole-prefix decision — the re-check loop cannot come back unnoticed. A
/// corrupted trace costs exactly one, the confirmation of its violation.
#[test]
fn a_clean_trace_is_decided_without_a_single_recheck() {
    let _guard = lock();
    linrv_obs::set_enabled(true);
    let corpus = tests_integration::golden_traces();
    let measure = |name: &str| {
        let (_, _, history) = corpus
            .iter()
            .find(|(path, ..)| path.ends_with(name))
            .expect("golden trace");
        let events = history.events().iter().cloned();
        let configs0 = linrv_check::metrics::frontier_configs().snapshot_values();
        let fallbacks0 = linrv_check::metrics::frontier_fallbacks_total().get();
        let rechecks0 = linrv_check::metrics::rechecks_total().get();
        let (consumed, verdict) = linrv_check::check_events(
            QueueSpec::new(),
            events.map(Ok::<_, std::convert::Infallible>),
        )
        .expect("infallible source");
        let configs = linrv_check::metrics::frontier_configs().snapshot_values();
        let responses = consumed.events().iter().filter(|e| e.is_response()).count();
        assert_eq!((configs.count - configs0.count) as usize, responses);
        assert_eq!(
            linrv_check::metrics::frontier_fallbacks_total().get(),
            fallbacks0
        );
        (
            verdict,
            configs.sum - configs0.sum,
            linrv_check::metrics::rechecks_total().get() - rechecks0,
        )
    };
    let (verdict, configs, rechecks) = measure("queue-correct.jsonl");
    assert!(verdict.is_member());
    assert!(configs > 0);
    assert_eq!(rechecks, 0);
    let (verdict, _, rechecks) = measure("queue-faulty.jsonl");
    assert!(verdict.is_violation());
    assert_eq!(rechecks, 1);
    linrv_obs::set_enabled(false);
}

/// Giving the frontier up is counted and leaves one event naming the reason
/// and the index of the offending event.
#[test]
fn a_fallback_is_counted_and_explained() {
    use linrv_history::{Event, OpId, OpValue, ProcessId};
    let _guard = lock();
    linrv_obs::set_enabled(true);
    let fallbacks0 = linrv_check::metrics::frontier_fallbacks_total().get();
    linrv_obs::clear_events();
    let mut checker = linrv_check::StreamingChecker::new(CounterSpec::new());
    let p = ProcessId::new(0);
    checker.push(Event::invocation(p, OpId::new(0), counter::inc()));
    // A response nobody is waiting for.
    checker.push(Event::response(p, OpId::new(9), OpValue::Int(0)));
    assert!(checker.finish().1.is_violation());
    let events = linrv_obs::recent_events();
    linrv_obs::set_enabled(false);
    assert_eq!(
        linrv_check::metrics::frontier_fallbacks_total().get() - fallbacks0,
        1
    );
    let fallback: Vec<_> = events
        .iter()
        .filter(|event| event.name == "check.frontier.fallback")
        .collect();
    assert_eq!(fallback.len(), 1);
    assert_eq!(fallback[0].detail, "reason=ill-formed event=2");
}
