//! `enforce-long` and `observe-long`: one monitor, four sessions, one long
//! history, driven from a single thread by a seeded interleaving of
//! `stage` / `execute` / `commit`.
//!
//! The interleaving is part of the input: overlap between operations decides
//! the views the DRV wrapper collects, and the views decide how much work the
//! verifier does. Threads would leave that to the machine's scheduler; a
//! seeded schedule makes the work identical from run to run.

use crate::inputs::{CorruptOnce, SplitMix64};
use crate::rep::Rep;
use crate::spans::{NoTrace, Spans, Tracer};
use crate::{stats, sys};
use linrv::raw::{Drv, LinSpec, Verifier};
use linrv::spec::typed::queue::{Dequeue, Enqueue, QueueOp};
use linrv::spec::QueueSpec;
use linrv::{Executed, Mode, Monitor, Rejected, Session, SnapshotBackend, Staged};
use linrv_check::GenLinObject;
use linrv_core::sketch::sketch_history;
use linrv_core::view::{TupleSet, View};
use linrv_history::ProcessId;
use linrv_runtime::impls::MsQueue;
use linrv_runtime::ConcurrentObject;
use linrv_snapshot::AfekSnapshot;
use linrv_spec::TypedOp;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Sessions (the paper's `n`) of the long workloads.
pub const SESSIONS: usize = 4;

/// Sizes of one long workload.
#[derive(Debug, Clone, Copy)]
pub struct LongSizes {
    /// Operations of the timed phase.
    pub ops: usize,
    /// Operations of the warm-up pass that is part of set-up.
    pub warm_ops: usize,
    /// Back-to-back `Monitor::check` calls timed as one block.
    pub verdict_calls: usize,
    /// Detection trials, and the operations of each.
    pub trials: usize,
    pub trial_ops: usize,
}

impl LongSizes {
    /// `enforce-long`: cost grows like ops^3.6, so this is as long as a
    /// history can get while a run still fits some twenty repetitions.
    pub fn enforce() -> Self {
        LongSizes {
            ops: 128,
            warm_ops: 104,
            verdict_calls: 8,
            trials: 8,
            trial_ops: 32,
        }
    }

    /// `observe-long`: retained memory grows like ops^3 (the vendored epoch
    /// stand-in never frees a superseded snapshot value); do not size past this.
    pub fn observe() -> Self {
        LongSizes {
            ops: 280,
            warm_ops: 220,
            verdict_calls: 3,
            trials: 8,
            trial_ops: 32,
        }
    }

    pub fn smoke() -> Self {
        LongSizes {
            ops: 40,
            warm_ops: 16,
            verdict_calls: 2,
            trials: 2,
            trial_ops: 24,
        }
    }
}

/// Enqueued values not yet dequeued never exceed this in a schedule. A deep
/// queue makes the membership search wander; a shallow one keeps its cost a
/// function of the history's length, which is what these workloads measure.
const MAX_BACKLOG: usize = 4;

/// One step of the seeded interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Stage(usize, QueueOp),
    Execute(usize),
    Commit(usize),
}

/// A seeded interleaving of `ops` queue operations (50/50 enqueue of a fresh
/// value / dequeue) over [`SESSIONS`] sessions: each step advances one
/// session, picked uniformly among those with something left to do, by one
/// phase.
pub fn schedule(seed: u64, stream: u64, ops: usize) -> Vec<Step> {
    let mut rng = SplitMix64::fork(seed, stream);
    let mut left = [ops / SESSIONS; SESSIONS];
    for extra in left.iter_mut().take(ops % SESSIONS) {
        *extra += 1;
    }
    // 0 = idle, 1 = staged, 2 = executed.
    let mut phase = [0u8; SESSIONS];
    let mut fresh = 0i64;
    let mut backlog = 0usize;
    let mut steps = Vec::with_capacity(ops * 3);
    loop {
        let enabled: Vec<usize> = (0..SESSIONS)
            .filter(|&s| phase[s] != 0 || left[s] > 0)
            .collect();
        if enabled.is_empty() {
            return steps;
        }
        let s = enabled[rng.below(enabled.len())];
        steps.push(match phase[s] {
            0 => {
                left[s] -= 1;
                phase[s] = 1;
                let coin = rng.below(2) == 0;
                if backlog == 0 || (coin && backlog < MAX_BACKLOG) {
                    backlog += 1;
                    fresh += 1;
                    Step::Stage(s, QueueOp::Enqueue(Enqueue(fresh)))
                } else {
                    backlog -= 1;
                    Step::Stage(s, QueueOp::Dequeue(Dequeue))
                }
            }
            1 => {
                phase[s] = 2;
                Step::Execute(s)
            }
            _ => {
                phase[s] = 0;
                Step::Commit(s)
            }
        });
    }
}

fn monitor<A: ConcurrentObject>(mode: Mode, object: A) -> Monitor<A, QueueSpec> {
    Monitor::builder(QueueSpec::new())
        .processes(SESSIONS)
        .snapshot(SnapshotBackend::Afek)
        .mode(mode)
        .build(object)
}

fn sessions<A: ConcurrentObject>(monitor: &Monitor<A, QueueSpec>) -> Vec<Session<A, QueueSpec>> {
    (0..SESSIONS)
        .map(|_| monitor.register().expect("one slot per session"))
        .collect()
}

enum Slot {
    Idle,
    Staged(Staged<QueueOp>, u64, u64),
    Executed(Executed<QueueOp>, u64, u64),
}

/// What driving a schedule through sessions observed.
#[derive(Default)]
struct Driven {
    /// Time the caller spent inside each operation (its three phases), in
    /// completion order.
    op_ns: Vec<u64>,
    /// Completion index (from 1) of the first rejected operation.
    first_rejection: Option<usize>,
    rejections: usize,
    /// CPU time consumed when half of the operations had completed.
    cpu_half_ms: f64,
}

/// Runs `steps` against `sessions`. `after_commit` is called with the number
/// of completed operations after each commit and may stop the run.
fn drive<A: ConcurrentObject>(
    sessions: &[Session<A, QueueSpec>],
    steps: &[Step],
    tracer: &mut impl Tracer,
    mut after_commit: impl FnMut(usize) -> bool,
) -> Driven {
    let total = steps.len() / 3;
    let cpu_start = sys::cpu_time();
    let mut slots: Vec<Slot> = (0..SESSIONS).map(|_| Slot::Idle).collect();
    let mut driven = Driven {
        op_ns: Vec::with_capacity(total),
        ..Driven::default()
    };
    let mut next_op = 0u64;
    for step in steps {
        match *step {
            Step::Stage(s, op) => {
                let start = Instant::now();
                let staged = sessions[s].stage(op);
                let end = Instant::now();
                tracer.call("linrv.session.stage", start, end, next_op);
                slots[s] = Slot::Staged(staged, next_op, (end - start).as_nanos() as u64);
                next_op += 1;
            }
            Step::Execute(s) => {
                let Slot::Staged(staged, op, ns) = std::mem::replace(&mut slots[s], Slot::Idle)
                else {
                    unreachable!("schedule executes only staged operations");
                };
                let start = Instant::now();
                let executed = sessions[s].execute(staged);
                let end = Instant::now();
                tracer.call("linrv.session.execute", start, end, op);
                slots[s] = Slot::Executed(executed, op, ns + (end - start).as_nanos() as u64);
            }
            Step::Commit(s) => {
                let Slot::Executed(executed, op, ns) = std::mem::replace(&mut slots[s], Slot::Idle)
                else {
                    unreachable!("schedule commits only executed operations");
                };
                let start = Instant::now();
                let outcome = sessions[s].commit(executed);
                let end = Instant::now();
                tracer.call("linrv.session.commit", start, end, op);
                driven.op_ns.push(ns + (end - start).as_nanos() as u64);
                let completed = driven.op_ns.len();
                if let Err(Rejected::Violation { .. } | Rejected::Malformed { .. }) = outcome {
                    driven.rejections += 1;
                    driven.first_rejection.get_or_insert(completed);
                }
                if completed == total.div_ceil(2) {
                    driven.cpu_half_ms = (sys::cpu_time() - cpu_start).as_secs_f64() * 1e3;
                }
                if after_commit(completed) {
                    break;
                }
            }
        }
    }
    driven
}

/// Completion index (from 1) of the operation that the `at`-th `execute` of
/// `steps` belongs to.
fn completion_index_of_execute(steps: &[Step], at: usize) -> usize {
    let mut executes = 0;
    let mut target = None;
    let mut completed = 0;
    for step in steps {
        match *step {
            Step::Execute(s) => {
                executes += 1;
                if executes == at {
                    target = Some(s);
                }
            }
            Step::Commit(s) => {
                completed += 1;
                if target == Some(s) {
                    return completed;
                }
            }
            Step::Stage(..) => {}
        }
    }
    unreachable!("a schedule commits every operation it executes")
}

/// One detection trial: a monitor over a queue whose `corrupt_at`-th response
/// is corrupted. Returns the operations completed from the corrupted one
/// (inclusive) up to the first report, or `None` when nothing was reported.
fn detection_trial(mode: Mode, steps: &[Step], corrupt_at: usize) -> Option<usize> {
    let monitor = monitor(mode, CorruptOnce::new(MsQueue::new(), corrupt_at as u64));
    let sessions = sessions(&monitor);
    let corrupted = completion_index_of_execute(steps, corrupt_at);
    let mut reported = None;
    let driven = drive(&sessions, steps, &mut NoTrace, |completed| {
        // Observe mode reports only through `check`; poll it once the corrupted
        // response is published. Enforce mode reports through the rejection.
        if mode == Mode::Observe && completed >= corrupted && !monitor.check().is_correct() {
            reported = Some(completed);
        }
        reported.is_some()
    });
    let reported = match mode {
        Mode::Enforce => driven.first_rejection,
        Mode::Observe => reported,
    }?;
    (reported >= corrupted).then(|| reported - corrupted + 1)
}

/// Runs one repetition of a long workload; `spans` turns the traced run on.
pub fn run(
    mode: Mode,
    sizes: LongSizes,
    seed: u64,
    started: Instant,
    mut spans: Option<&mut Spans>,
) -> Rep {
    let mut rep = Rep::default();

    // --- set-up: inputs, a warm-up pass on a monitor of its own, the monitor.
    let steps = schedule(seed, 1, sizes.ops);
    let warm = schedule(seed, 2, sizes.warm_ops);
    let trials: Vec<(Vec<Step>, usize)> = (0..sizes.trials)
        .map(|t| {
            let mut rng = SplitMix64::fork(seed, 100 + t as u64);
            let at = sizes.trial_ops / 2 + rng.below(sizes.trial_ops / 4) + 1;
            (schedule(seed, 200 + t as u64, sizes.trial_ops), at)
        })
        .collect();
    {
        let warm_monitor = monitor(mode, MsQueue::new());
        let warm_sessions = sessions(&warm_monitor);
        let driven = drive(&warm_sessions, &warm, &mut NoTrace, |_| false);
        rep.expect(driven.rejections == 0, "warm-up pass rejected an operation");
        rep.expect(warm_monitor.check().is_correct(), "warm-up verdict wrong");
    }
    let build_start = Instant::now();
    let monitor = monitor(mode, MsQueue::new());
    let sessions = sessions(&monitor);
    let build_ns = build_start.elapsed().as_nanos() as f64;
    rep.setup_s = started.elapsed().as_secs_f64();

    // --- timed phase.
    if let Some(spans) = spans.as_deref_mut() {
        spans.open("bench.timed");
    }
    let cpu_start = sys::cpu_time();
    let wall_start = Instant::now();
    let mut driven = match spans.as_deref_mut() {
        Some(spans) => drive(&sessions, &steps, spans, |_| false),
        None => drive(&sessions, &steps, &mut NoTrace, |_| false),
    };
    rep.timed_wall_s = wall_start.elapsed().as_secs_f64();
    rep.cpu_ms = (sys::cpu_time() - cpu_start).as_secs_f64() * 1e3;
    if let Some(spans) = spans.as_deref_mut() {
        spans.close();
    }
    rep.ops = driven.op_ns.len() as u64;
    rep.attempted += rep.ops;
    rep.failed += driven.rejections as u64;
    rep.expect(rep.ops as usize == sizes.ops, "timed phase stopped early");
    rep.scaling_exp = (rep.cpu_ms / driven.cpu_half_ms).log2();
    let session_op_ns = driven.op_ns.iter().sum::<u64>() as f64 / rep.ops as f64;
    rep.tail_pct = stats::tail_percentile(driven.op_ns.len());
    rep.op_p50_us = stats::percentile(&mut driven.op_ns, 50) as f64 / 1e3;
    rep.op_tail_us = stats::percentile(&mut driven.op_ns, rep.tail_pct) as f64 / 1e3;

    // --- verdict: back-to-back global checks, timed as one block.
    if let Some(spans) = spans.as_deref_mut() {
        spans.open("bench.verdict");
    }
    let verdict_start = Instant::now();
    for call in 0..sizes.verdict_calls {
        let start = Instant::now();
        let verdict = monitor.check();
        if let Some(spans) = spans.as_deref_mut() {
            spans.call("linrv.monitor.check", start, Instant::now(), call as u64);
        }
        rep.attempted += 1;
        rep.expect(
            verdict.is_correct(),
            "verdict on a correct queue is not Correct",
        );
    }
    rep.verdict_block_ms = verdict_start.elapsed().as_secs_f64() * 1e3;
    rep.verdict_ms = rep.verdict_block_ms / sizes.verdict_calls as f64;
    if let Some(spans) = spans.as_deref_mut() {
        spans.close();
    }

    // --- detection trials on a queue with one corrupted response.
    let mut lags = Vec::with_capacity(trials.len());
    for (trial_steps, at) in &trials {
        rep.attempted += 1;
        match detection_trial(mode, trial_steps, *at) {
            Some(lag) => lags.push(lag as f64),
            None => rep.expect(false, "corrupted response was never reported"),
        }
    }
    rep.detect_lag_ops = stats::median(&lags);
    rep.counts = input_counts(&steps);

    // --- the traced run: certificate, then the same schedule against the raw layers.
    if let Some(spans) = spans {
        let start = Instant::now();
        let certificate = monitor.certificate();
        let end = Instant::now();
        spans.call("linrv.monitor.certificate", start, end, 0);
        rep.expect(
            certificate.is_correct(),
            "certificate of a correct queue is not correct",
        );
        drop((sessions, monitor));
        rep.layers.insert("linrv.monitor.build_ns".into(), build_ns);
        replay_layers(mode, &steps, session_op_ns, spans, &mut rep);
    }
    rep
}

/// Replays `steps` against a raw `Drv` + `Verifier` (the layers a `Session`
/// is made of), timing each layer's public calls alone, and against the bare
/// queue; then derives the per-layer metrics of the long workloads.
fn replay_layers(mode: Mode, steps: &[Step], session_op_ns: f64, spans: &mut Spans, rep: &mut Rep) {
    let drv = Drv::with_snapshot(
        MsQueue::new(),
        Arc::new(AfekSnapshot::new(SESSIONS, View::new())),
    );
    let verifier = Verifier::with_snapshot(
        LinSpec::new(QueueSpec::new()),
        Arc::new(AfekSnapshot::new(SESSIONS, TupleSet::new())),
    );
    let mut announced: Vec<Option<(linrv_core::drv::Announced, u64)>> = vec![None; SESSIONS];
    let mut executed: Vec<Option<(linrv_core::drv::Announced, linrv_history::OpValue, u64)>> =
        vec![None; SESSIONS];
    let mut view_lens: Vec<u64> = Vec::with_capacity(steps.len() / 3);
    let mut next_op = 0u64;
    spans.open("bench.replay");
    macro_rules! timed {
        ($name:literal, $op:expr, $call:expr) => {{
            let start = Instant::now();
            let out = $call;
            spans.call($name, start, Instant::now(), $op);
            out
        }};
    }
    for step in steps {
        match *step {
            Step::Stage(s, op) => {
                let process = ProcessId::new(s as u32);
                let wire = op.encode();
                let a = timed!("core.drv.announce", next_op, drv.announce(process, &wire));
                announced[s] = Some((a, next_op));
                next_op += 1;
            }
            Step::Execute(s) => {
                let (a, op) = announced[s].take().expect("staged before executed");
                let value = timed!("core.drv.inner", op, drv.call_inner(&a));
                executed[s] = Some((a, value, op));
            }
            Step::Commit(s) => {
                let process = ProcessId::new(s as u32);
                let (a, value, op) = executed[s].take().expect("executed before committed");
                let response = timed!("core.drv.collect", op, drv.collect(a, value));
                view_lens.push(response.view.len() as u64);
                let tuple = response.tuple();
                timed!("core.verifier.record", op, verifier.record(process, tuple));
                if mode == Mode::Enforce {
                    let tau = timed!(
                        "core.verifier.exchange",
                        op,
                        verifier.collect_tuples(process)
                    );
                    let sketch = timed!("core.sketch.build", op, sketch_history(&tau))
                        .expect("views of a DRV wrapper are valid");
                    let member =
                        timed!("check.membership", op, verifier.object().contains(&sketch));
                    rep.expect(member, "replayed sketch of a correct queue is not a member");
                }
            }
        }
    }
    // The global verdict, layer by layer (Observe mode's only verification).
    let scanner = ProcessId::new(0);
    let tau = timed!(
        "core.verifier.exchange",
        next_op,
        verifier.collect_tuples(scanner)
    );
    let tuple_pairs: usize = tau.iter().map(|tuple| tuple.view.len()).sum();
    let sketch = timed!("core.sketch.build", next_op, sketch_history(&tau))
        .expect("views of a DRV wrapper are valid");
    let member = timed!(
        "check.membership",
        next_op,
        verifier.object().contains(&sketch)
    );
    rep.expect(
        member,
        "replayed history of a correct queue is not a member",
    );
    spans.close();

    // The bare queue under the same operations, for the overhead ratio.
    let raw = MsQueue::new();
    let raw_start = Instant::now();
    let mut raw_ops = 0u64;
    for step in steps {
        if let Step::Stage(s, op) = *step {
            std::hint::black_box(raw.apply(ProcessId::new(s as u32), &op.encode()));
            raw_ops += 1;
        }
    }
    let raw_op_ns = raw_start.elapsed().as_nanos() as f64 / raw_ops as f64;

    let ops = raw_ops as f64;
    let layers = &mut rep.layers;
    for (metric, span) in [
        ("linrv.session.stage_ns", "linrv.session.stage"),
        ("linrv.session.execute_ns", "linrv.session.execute"),
        ("linrv.session.commit_ns", "linrv.session.commit"),
        ("core.drv.announce_ns", "core.drv.announce"),
        ("core.drv.inner_ns", "core.drv.inner"),
        ("core.drv.collect_ns", "core.drv.collect"),
        ("core.verifier.record_ns", "core.verifier.record"),
        ("core.verifier.exchange_ns", "core.verifier.exchange"),
        ("core.sketch.build_ns", "core.sketch.build"),
        ("check.membership_ns", "check.membership"),
    ] {
        layers.insert(metric.into(), spans.mean_ns(span));
    }
    layers.insert(
        "linrv.monitor.check_ms".into(),
        spans.mean_ns("linrv.monitor.check") / 1e6,
    );
    layers.insert(
        "linrv.monitor.certificate_ms".into(),
        spans.mean_ns("linrv.monitor.certificate") / 1e6,
    );
    // Replay time spent on the operation path: everything but the final verdict.
    let on_path = |name: &str| -> f64 {
        spans
            .all()
            .iter()
            .filter(|span| span.name == name && span.op < next_op)
            .map(|span| (span.end_ns - span.start_ns) as f64)
            .sum()
    };
    let verify: f64 = [
        "core.verifier.exchange",
        "core.sketch.build",
        "check.membership",
    ]
    .iter()
    .map(|name| on_path(name))
    .sum();
    let replay_op: f64 = verify
        + [
            "core.drv.announce",
            "core.drv.inner",
            "core.drv.collect",
            "core.verifier.record",
        ]
        .iter()
        .map(|name| on_path(name))
        .sum::<f64>();
    layers.insert("core.enforce.verify_share".into(), verify / replay_op);
    layers.insert(
        "linrv.session.layer_sum_ratio".into(),
        replay_op / ops / session_op_ns,
    );
    layers.insert("runtime.raw_op_ns".into(), raw_op_ns);
    layers.insert("linrv.session.overhead_x".into(), session_op_ns / raw_op_ns);
    layers.insert("core.verifier.tuple_pairs".into(), tuple_pairs as f64);
    let view_len_p50 = stats::percentile(&mut view_lens, 50);
    layers.insert("core.drv.view_len_p50".into(), view_len_p50 as f64);
    layers.insert(
        "core.drv.view_len_max".into(),
        *view_lens.last().unwrap_or(&0) as f64,
    );
    crate::probes::snapshot_backends(view_len_p50 as usize, layers);
}

/// Exact counts of the seeded inputs, for the reproducibility tests.
fn input_counts(steps: &[Step]) -> BTreeMap<String, f64> {
    let enqueues = steps
        .iter()
        .filter(|step| matches!(step, Step::Stage(_, QueueOp::Enqueue(_))))
        .count();
    // A fingerprint of the interleaving: the position of every commit.
    let fingerprint = steps
        .iter()
        .enumerate()
        .filter(|(_, step)| matches!(step, Step::Commit(_)))
        .fold(0u64, |acc, (index, _)| {
            acc.wrapping_mul(0x100_0000_01B3).wrapping_add(index as u64)
        });
    BTreeMap::from([
        ("input.enqueues".to_string(), enqueues as f64),
        (
            "input.schedule_fingerprint".to_string(),
            (fingerprint % 1_000_000_007) as f64,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_well_formed() {
        let a = schedule(42, 1, 40);
        assert_eq!(a, schedule(42, 1, 40));
        assert_ne!(a, schedule(43, 1, 40));
        assert_eq!(a.len(), 120);
        let mut phase = [0u8; SESSIONS];
        for step in &a {
            match *step {
                Step::Stage(s, _) => {
                    assert_eq!(phase[s], 0);
                    phase[s] = 1;
                }
                Step::Execute(s) => {
                    assert_eq!(phase[s], 1);
                    phase[s] = 2;
                }
                Step::Commit(s) => {
                    assert_eq!(phase[s], 2);
                    phase[s] = 0;
                }
            }
        }
        assert_eq!(phase, [0; SESSIONS]);
    }

    #[test]
    fn corrupted_responses_are_reported_with_the_corrupted_operation() {
        let steps = schedule(7, 200, 24);
        assert_eq!(detection_trial(Mode::Enforce, &steps, 13), Some(1));
        assert_eq!(detection_trial(Mode::Observe, &steps, 13), Some(1));
    }
}
