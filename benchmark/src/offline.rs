//! `offline-check`: the real `linrv check` binary, spawned once per trace of
//! a seeded corpus written during set-up.
//!
//! The corpus keeps the split the specialized monitors are built on
//! (Lee & Mathur; Abdulla et al.): recorded traces of every object kind,
//! correct and with one corrupted response, in both encodings; a large
//! *unambiguous* two-lane queue trace at `N` and `2N` events, which the
//! log-linear monitor decides; and one *ambiguous* queue trace — duplicate
//! values — that only the general search can decide. Codec, streaming
//! checker, monitors, fallback and CLI start-up do everything here; `core`,
//! `snapshot` and `pool` do nothing.

use crate::inputs::{CorruptOnce, SplitMix64};
use crate::rep::Rep;
use crate::spans::{Spans, Tracer};
use crate::{stats, sys};
use linrv_check::{Route, StrategyChecker, StreamingChecker};
use linrv_history::{History, HistoryBuilder, OpValue, ProcessId};
use linrv_runtime::{impls, record_scheduled, RecorderOptions, Workload, WorkloadKind};
use linrv_spec::{
    ops, CounterSpec, ObjectKind, PriorityQueueSpec, QueueSpec, RegisterSpec, SequentialSpec,
    SetSpec, StackSpec,
};
use linrv_trace::{read_history, write_history, TraceFormat, TraceHeader};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The object kinds with a recorded trace in the corpus.
pub const KINDS: [ObjectKind; 6] = [
    ObjectKind::Queue,
    ObjectKind::Stack,
    ObjectKind::Set,
    ObjectKind::PriorityQueue,
    ObjectKind::Counter,
    ObjectKind::Register,
];

/// Processes of every recorded trace.
const PROCESSES: usize = 3;
/// Processes of the ambiguous trace: the operations of one round, all
/// concurrent.
const CLIFF_PROCESSES: usize = 4;
/// A spawn running longer than this is killed and counted as failed.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// Sizes of one `offline-check` repetition.
#[derive(Debug, Clone, Copy)]
pub struct OfflineSizes {
    /// Operations per process of a recorded trace. Queue and stack histories
    /// with pending operations fall back to the general search, whose cost is
    /// erratic beyond a few dozen operations per process; they stay small.
    pub recorded_ops: usize,
    pub recorded_ops_search: usize,
    /// The response (counted from 1) corrupted in a faulty recorded trace.
    pub corrupt_at: u64,
    /// Operations of the unambiguous synthetic trace at `N` (two events each).
    pub synthetic_ops: usize,
    /// Rounds of the ambiguous trace ([`CLIFF_PROCESSES`] operations each).
    pub cliff_rounds: usize,
}

impl OfflineSizes {
    pub fn full() -> Self {
        OfflineSizes {
            recorded_ops: 200,
            recorded_ops_search: 36,
            corrupt_at: 30,
            synthetic_ops: 2_400,
            cliff_rounds: 400,
        }
    }

    pub fn smoke() -> Self {
        OfflineSizes {
            recorded_ops: 40,
            recorded_ops_search: 24,
            corrupt_at: 30,
            synthetic_ops: 600,
            cliff_rounds: 40,
        }
    }
}

/// One trace of the corpus.
pub struct Trace {
    pub name: String,
    pub kind: ObjectKind,
    pub format: TraceFormat,
    pub history: History,
    /// Exit code `linrv check` must end with.
    pub expect_exit: i32,
    /// Events up to and including the corrupted response, for faulty traces.
    pub corrupted_after: Option<usize>,
}

/// The unambiguous two-lane queue history: lane 0 enqueues fresh values, lane
/// 1 dequeues them, each enqueue overlapping its dequeue in one of three
/// seeded ways. Every inserted value is distinct, so the specialized queue
/// monitor decides it.
pub fn synthetic_history(rng: &mut SplitMix64, operations: usize) -> History {
    let (producer, consumer) = (ProcessId::new(0), ProcessId::new(1));
    let mut builder = HistoryBuilder::new();
    let mut value = 0i64;
    for _ in 0..operations / 2 {
        value += 1 + rng.below(1000) as i64;
        match rng.below(3) {
            0 => {
                let enqueue = builder.invoke(producer, ops::queue::enqueue(value));
                let dequeue = builder.invoke(consumer, ops::queue::dequeue());
                builder.respond(enqueue, OpValue::Bool(true));
                builder.respond(dequeue, OpValue::Int(value));
            }
            1 => {
                let dequeue = builder.invoke(consumer, ops::queue::dequeue());
                let enqueue = builder.invoke(producer, ops::queue::enqueue(value));
                builder.respond(dequeue, OpValue::Int(value));
                builder.respond(enqueue, OpValue::Bool(true));
            }
            _ => {
                builder.complete(producer, ops::queue::enqueue(value), OpValue::Bool(true));
                builder.complete(consumer, ops::queue::dequeue(), OpValue::Int(value));
            }
        }
    }
    builder.build()
}

/// The ambiguous queue history: rounds in which every process enqueues at
/// once — values drawn from a domain smaller than the process count, so every
/// round repeats one — alternating with rounds in which every process
/// dequeues at once. Responses follow one seeded order per round; the general
/// search has to find it.
pub fn cliff_history(rng: &mut SplitMix64, rounds: usize) -> History {
    let mut builder = HistoryBuilder::new();
    let mut queue: VecDeque<i64> = VecDeque::new();
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..CLIFF_PROCESSES).collect();
        for i in (1..CLIFF_PROCESSES).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let enqueue_round = round % 2 == 0;
        let values: Vec<i64> = (0..CLIFF_PROCESSES)
            .map(|_| 1 + rng.below(CLIFF_PROCESSES - 1) as i64)
            .collect();
        let ids: Vec<_> = (0..CLIFF_PROCESSES)
            .map(|p| {
                let operation = if enqueue_round {
                    ops::queue::enqueue(values[p])
                } else {
                    ops::queue::dequeue()
                };
                builder.invoke(ProcessId::new(p as u32), operation)
            })
            .collect();
        // Take effect in the seeded order; respond in process order.
        let mut responses = vec![OpValue::Empty; CLIFF_PROCESSES];
        for &p in &order {
            responses[p] = if enqueue_round {
                queue.push_back(values[p]);
                OpValue::Bool(true)
            } else {
                queue.pop_front().map_or(OpValue::Empty, OpValue::Int)
            };
        }
        for (id, response) in ids.into_iter().zip(responses) {
            builder.respond(id, response);
        }
    }
    builder.build()
}

fn format_name(format: TraceFormat) -> &'static str {
    match format {
        TraceFormat::Jsonl => "jsonl",
        TraceFormat::Binary => "binary",
    }
}

/// Generates the corpus of `seed`. Returns it with the nanoseconds per
/// operation the scheduled recorder took.
pub fn corpus(sizes: OfflineSizes, seed: u64) -> (Vec<Trace>, f64) {
    let mut traces = Vec::new();
    let mut push = |name: &str, kind, history: &History, expect_exit, corrupted_after| {
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            traces.push(Trace {
                name: format!("{name}.{}", format_name(format)),
                kind,
                format,
                history: history.clone(),
                expect_exit,
                corrupted_after,
            });
        }
    };
    let mut record_ns = 0u128;
    let mut recorded_ops = 0usize;
    for (index, kind) in KINDS.into_iter().enumerate() {
        let ops_per_process = match kind {
            ObjectKind::Queue | ObjectKind::Stack => sizes.recorded_ops_search,
            _ => sizes.recorded_ops,
        };
        let options = RecorderOptions {
            processes: PROCESSES,
            ops_per_process,
        };
        let stream = SplitMix64::fork(seed, 400 + index as u64).next_u64();
        let workload = || Workload::new(WorkloadKind::for_object(kind), stream);
        let start = Instant::now();
        let correct = record_scheduled(
            &*impls::correct_object(kind),
            workload(),
            options,
            stream ^ 1,
        );
        record_ns += start.elapsed().as_nanos();
        recorded_ops += correct.operations;
        push(&format!("{kind}-correct"), kind, &correct.history, 0, None);

        let object = CorruptOnce::new(impls::correct_object(kind), sizes.corrupt_at);
        let faulty = record_scheduled(&object, workload(), options, stream ^ 1);
        let corrupted_after = object.corrupted().and_then(|(process, nth)| {
            faulty
                .history
                .events()
                .iter()
                .enumerate()
                .filter(|(_, event)| event.is_response() && event.process == process)
                .nth(nth as usize - 1)
                .map(|(index, _)| index + 1)
        });
        push(
            &format!("{kind}-faulty"),
            kind,
            &faulty.history,
            1,
            corrupted_after,
        );
    }
    let mut rng = SplitMix64::fork(seed, 500);
    let synthetic_n = synthetic_history(&mut rng, sizes.synthetic_ops);
    let synthetic_2n = synthetic_history(&mut rng, sizes.synthetic_ops * 2);
    push("synthetic-n", ObjectKind::Queue, &synthetic_n, 0, None);
    push("synthetic-2n", ObjectKind::Queue, &synthetic_2n, 0, None);
    let cliff = cliff_history(&mut rng, sizes.cliff_rounds);
    push("cliff", ObjectKind::Queue, &cliff, 0, None);
    (traces, record_ns as f64 / recorded_ops.max(1) as f64)
}

/// Removes the corpus directory when the repetition ends, however it ends.
struct CorpusDir(PathBuf);

impl Drop for CorpusDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one spawn of `linrv` did.
struct Spawned {
    start: Instant,
    end: Instant,
    cpu_ms: f64,
    /// `None` when the process was killed (time-out) or could not start.
    exit: Option<i32>,
    stderr: String,
}

/// Runs `linrv` with `args` to completion, killing it after [`SPAWN_TIMEOUT`].
fn spawn(linrv: &Path, args: &[&str]) -> Spawned {
    let cpu_before = sys::children_cpu_time();
    let start = Instant::now();
    let child = Command::new(linrv)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn();
    let (exit, stderr) = match child {
        Ok(child) => {
            let watchdog = sys::Watchdog::arm(child.id(), SPAWN_TIMEOUT);
            let output = child.wait_with_output();
            let fired = watchdog.disarm();
            match output {
                Ok(output) if !fired => (
                    output.status.code(),
                    String::from_utf8_lossy(&output.stderr).into_owned(),
                ),
                _ => (None, String::new()),
            }
        }
        Err(_) => (None, String::new()),
    };
    let end = Instant::now();
    Spawned {
        start,
        end,
        cpu_ms: (sys::children_cpu_time() - cpu_before).as_secs_f64() * 1e3,
        exit,
        stderr,
    }
}

/// The `N` of `linrv check`'s "VIOLATION after N events".
fn events_consumed(stderr: &str) -> Option<usize> {
    let rest = stderr.split("VIOLATION after ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

fn wall_ms(spawned: &Spawned) -> f64 {
    (spawned.end - spawned.start).as_secs_f64() * 1e3
}

/// Runs one repetition of `offline-check`; `spans` turns the traced run on.
pub fn run(
    sizes: OfflineSizes,
    seed: u64,
    linrv: &Path,
    out_dir: &Path,
    started: Instant,
    mut spans: Option<&mut Spans>,
) -> Rep {
    let mut rep = Rep::default();

    // --- set-up: generate and write the corpus, then a warm-up check.
    let (traces, record_ns_per_op) = corpus(sizes, seed);
    let cliff_events = traces.last().map_or(0, |cliff| cliff.history.len());
    let dir = CorpusDir(out_dir.join(format!("corpus-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("the corpus directory can be created");
    let mut paths = Vec::with_capacity(traces.len());
    // FNV-1a over every byte written: a fingerprint of the seeded corpus.
    let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
    for trace in &traces {
        let path = dir.0.join(&trace.name);
        let mut bytes = Vec::new();
        write_history(
            &mut bytes,
            trace.format,
            &TraceHeader::new(trace.kind),
            &trace.history,
        )
        .expect("writing to memory");
        std::fs::write(&path, &bytes).expect("the corpus can be written");
        fingerprint = bytes.iter().fold(fingerprint, |hash, byte| {
            (hash ^ u64::from(*byte)).wrapping_mul(0x100_0000_01B3)
        });
        paths.push(path.to_string_lossy().into_owned());
    }
    rep.counts.insert(
        "corpus.fingerprint".into(),
        (fingerprint % 1_000_000_007) as f64,
    );
    let warm_up =
        |trace: &Trace| trace.name.starts_with("synthetic-n.") || trace.name.starts_with("cliff.");
    for (trace, path) in traces
        .iter()
        .zip(&paths)
        .filter(|(trace, _)| warm_up(trace))
    {
        let warm = spawn(linrv, &["check", "--quiet", path]);
        rep.expect(
            warm.exit == Some(trace.expect_exit),
            "warm-up check ended with the wrong exit code",
        );
    }
    rep.setup_s = started.elapsed().as_secs_f64();

    // --- timed phase: one spawn per trace.
    if let Some(spans) = spans.as_deref_mut() {
        spans.open("bench.timed");
    }
    let wall_start = Instant::now();
    let mut runs = Vec::with_capacity(traces.len());
    for (index, path) in paths.iter().enumerate() {
        let spawned = spawn(linrv, &["check", "--quiet", path]);
        if let Some(spans) = spans.as_deref_mut() {
            spans.call("cli.check", spawned.start, spawned.end, index as u64);
        }
        runs.push(spawned);
    }
    rep.timed_wall_s = wall_start.elapsed().as_secs_f64();
    if let Some(spans) = spans.as_deref_mut() {
        spans.close();
    }

    // Per-event and per-trace times are those of the linearizable traces: a
    // check that finds the corruption stops reading there.
    let mut per_event_us: Vec<(f64, usize)> = Vec::new();
    let mut recorded_ms = Vec::new();
    let mut lags = Vec::new();
    let mut wall_of: BTreeMap<&str, f64> = BTreeMap::new();
    let mut cpu_of: BTreeMap<&str, f64> = BTreeMap::new();
    for (trace, spawned) in traces.iter().zip(&runs) {
        rep.attempted += 1;
        rep.cpu_ms += spawned.cpu_ms;
        rep.verdict_block_ms += wall_ms(spawned);
        if spawned.exit != Some(trace.expect_exit) {
            rep.expect(
                false,
                &format!(
                    "{}: exit {:?}, expected {}",
                    trace.name, spawned.exit, trace.expect_exit
                ),
            );
        }
        let stem = trace.name.split('.').next().unwrap_or_default();
        *wall_of.entry(stem).or_default() += wall_ms(spawned);
        *cpu_of.entry(stem).or_default() += spawned.cpu_ms;
        let Some(corrupted_after) = trace.corrupted_after else {
            let events = trace.history.len();
            rep.ops += events as u64;
            per_event_us.push((wall_ms(spawned) * 1e3 / events as f64, events));
            if stem.ends_with("-correct") {
                recorded_ms.push(wall_ms(spawned));
            }
            continue;
        };
        match events_consumed(&spawned.stderr) {
            Some(consumed) if consumed >= corrupted_after => {
                rep.ops += consumed as u64;
                lags.push((consumed - corrupted_after + 1) as f64);
            }
            _ => rep.expect(
                false,
                &format!(
                    "{}: violation not reported after the corruption",
                    trace.name
                ),
            ),
        }
    }
    // An event's time is only known as its trace's mean; the median event is
    // the one half of all events are no slower than.
    per_event_us.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = per_event_us.iter().map(|(_, events)| events).sum::<usize>() / 2;
    let mut events_below = 0;
    rep.op_p50_us = per_event_us
        .iter()
        .find(|(_, events)| {
            events_below += events;
            events_below > half
        })
        .map_or(0.0, |(us, _)| *us);
    // A fixed corpus has a fixed worst case: the trace only the general
    // search decides (two spawns, one per encoding).
    rep.op_tail_us = wall_of["cliff"] * 1e3 / (2 * cliff_events) as f64;
    rep.tail_pct = 100;
    // Time to a verdict on a recorded trace, averaged over kinds and encodings.
    rep.verdict_ms = recorded_ms.iter().sum::<f64>() / recorded_ms.len().max(1) as f64;
    rep.scaling_exp = (cpu_of["synthetic-2n"] / cpu_of["synthetic-n"]).log2();
    rep.detect_lag_ops = stats::median(&lags);
    let corpus_events: usize = traces.iter().map(|trace| trace.history.len()).sum();
    rep.counts
        .insert("corpus.events".into(), corpus_events as f64);
    rep.counts
        .insert("corpus.traces".into(), traces.len() as f64);

    if let Some(spans) = spans {
        let layers = &mut rep.layers;
        for (trace, spawned) in traces.iter().zip(&runs) {
            if let Some(stem) = trace.name.strip_suffix(".jsonl") {
                if matches!(stem, "synthetic-n" | "synthetic-2n" | "cliff") {
                    layers.insert(format!("cli.check.{stem}_ms"), wall_ms(spawned));
                }
            }
        }
        let startups: Vec<f64> = (0..9)
            .map(|call| {
                let spawned = spawn(linrv, &["--help"]);
                spans.call("cli.startup", spawned.start, spawned.end, call);
                wall_ms(&spawned)
            })
            .collect();
        layers.insert("cli.startup_ms".into(), stats::median(&startups));
        layers.insert("runtime.record_ns_per_op".into(), record_ns_per_op);
        library_layers(&traces, sizes, seed, layers);
    }
    rep
}

fn batch_ns_per_op<S: SequentialSpec>(spec: S, history: &History) -> (f64, bool) {
    let checker = StrategyChecker::new(spec);
    let start = Instant::now();
    let (verdict, route) = checker.check_routed(black_box(history));
    let ns = start.elapsed().as_nanos() as f64;
    black_box(verdict);
    let operations = (history.len() / 2).max(1);
    (ns / operations as f64, route == Route::Specialized)
}

/// Checks `history` in one batch with the checker of its kind. Returns the
/// nanoseconds per operation and whether the specialized monitor decided.
fn batch(kind: ObjectKind, history: &History) -> (f64, bool) {
    match kind {
        ObjectKind::Queue => batch_ns_per_op(QueueSpec::new(), history),
        ObjectKind::Stack => batch_ns_per_op(StackSpec::new(), history),
        ObjectKind::Set => batch_ns_per_op(SetSpec::new(), history),
        ObjectKind::PriorityQueue => batch_ns_per_op(PriorityQueueSpec::new(), history),
        ObjectKind::Counter => batch_ns_per_op(CounterSpec::new(), history),
        ObjectKind::Register => batch_ns_per_op(RegisterSpec::new(), history),
        ObjectKind::Consensus => unreachable!("the corpus has no consensus trace"),
    }
}

/// The layers `linrv check` is made of, called alone from here on the
/// corpus's own histories: batch checkers, streaming checker, codecs,
/// history builder, forensics.
fn library_layers(
    traces: &[Trace],
    sizes: OfflineSizes,
    seed: u64,
    layers: &mut BTreeMap<String, f64>,
) {
    let jsonl = |stem: &str| {
        traces
            .iter()
            .find(|t| t.format == TraceFormat::Jsonl && t.name.strip_suffix(".jsonl") == Some(stem))
            .expect("the corpus holds every named trace")
    };
    let mut specialized = 0usize;
    let distinct: Vec<&Trace> = traces
        .iter()
        .filter(|t| t.format == TraceFormat::Jsonl)
        .collect();
    for trace in &distinct {
        let (ns_per_op, by_monitor) = batch(trace.kind, &trace.history);
        specialized += usize::from(by_monitor);
        if let Some(kind) = trace.name.strip_suffix("-correct.jsonl") {
            layers.insert(format!("check.batch.{kind}_ns_per_op"), ns_per_op);
        }
    }
    layers.insert(
        "check.specialized_share".into(),
        specialized as f64 / distinct.len() as f64,
    );
    let (n, two_n) = (jsonl("synthetic-n"), jsonl("synthetic-2n"));
    let per_op =
        |trace: &Trace| batch(trace.kind, &trace.history).0 * (trace.history.len() / 2) as f64;
    layers.insert(
        "check.synthetic.scaling_exp".into(),
        (per_op(two_n) / per_op(n)).log2(),
    );

    let start = Instant::now();
    let mut checker = StreamingChecker::new(QueueSpec::new());
    for event in n.history.events() {
        checker.push(event.clone());
    }
    black_box(checker.finish());
    layers.insert(
        "check.stream.push_ns_per_event".into(),
        start.elapsed().as_nanos() as f64 / n.history.len() as f64,
    );

    let events = n.history.len() as f64;
    for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
        let header = TraceHeader::new(ObjectKind::Queue);
        let start = Instant::now();
        let mut bytes = Vec::new();
        write_history(&mut bytes, format, &header, &n.history).expect("writing to memory");
        let encode_ns = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        let (_, decoded) = read_history(bytes.as_slice()).expect("reading what was written");
        let decode_ns = start.elapsed().as_nanos() as f64;
        assert_eq!(decoded.len(), n.history.len(), "the codec round-trips");
        let name = format_name(format);
        layers.insert(
            format!("trace.{name}.encode_ns_per_event"),
            encode_ns / events,
        );
        layers.insert(
            format!("trace.{name}.decode_ns_per_event"),
            decode_ns / events,
        );
        layers.insert(
            format!("trace.{name}.bytes_per_event"),
            bytes.len() as f64 / events,
        );
    }

    let start = Instant::now();
    let rebuilt = synthetic_history(&mut SplitMix64::fork(seed, 500), sizes.synthetic_ops);
    layers.insert(
        "history.builder_ns_per_event".into(),
        start.elapsed().as_nanos() as f64 / rebuilt.len().max(1) as f64,
    );

    let faulty = jsonl("register-faulty");
    let start = Instant::now();
    let explanation = linrv_forensics::explain(faulty.kind, &faulty.history);
    layers.insert(
        "forensics.explain_ms".into(),
        start.elapsed().as_secs_f64() * 1e3,
    );
    assert!(
        explanation.is_some(),
        "a corrupted register history has an explanation"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_check::GenLinObject;

    #[test]
    fn corpus_is_seeded_and_has_the_expected_verdicts() {
        let (a, _) = corpus(OfflineSizes::smoke(), 5);
        let (b, _) = corpus(OfflineSizes::smoke(), 5);
        let (c, _) = corpus(OfflineSizes::smoke(), 6);
        assert_eq!(a.len(), 6 * 2 * 2 + 4 + 2);
        assert!(a.iter().zip(&b).all(|(x, y)| x.history == y.history));
        assert!(a.iter().zip(&c).any(|(x, y)| x.history != y.history));
        for trace in &a {
            assert!(trace.history.is_well_formed(), "{}", trace.name);
            let member = match trace.kind {
                ObjectKind::Queue => {
                    StrategyChecker::new(QueueSpec::new()).contains(&trace.history)
                }
                ObjectKind::Stack => {
                    StrategyChecker::new(StackSpec::new()).contains(&trace.history)
                }
                ObjectKind::Set => StrategyChecker::new(SetSpec::new()).contains(&trace.history),
                ObjectKind::PriorityQueue => {
                    StrategyChecker::new(PriorityQueueSpec::new()).contains(&trace.history)
                }
                ObjectKind::Counter => {
                    StrategyChecker::new(CounterSpec::new()).contains(&trace.history)
                }
                _ => StrategyChecker::new(RegisterSpec::new()).contains(&trace.history),
            };
            assert_eq!(member, trace.expect_exit == 0, "{}", trace.name);
            assert_eq!(
                trace.corrupted_after.is_some(),
                trace.expect_exit == 1,
                "{}",
                trace.name
            );
        }
    }

    #[test]
    fn the_split_is_kept() {
        let mut rng = SplitMix64::new(3);
        let unambiguous = synthetic_history(&mut rng, 200);
        let ambiguous = cliff_history(&mut rng, 20);
        assert!(
            batch(ObjectKind::Queue, &unambiguous).1,
            "the monitor decides distinct values"
        );
        assert!(
            !batch(ObjectKind::Queue, &ambiguous).1,
            "duplicates need the general search"
        );
        assert_eq!(
            events_consumed("linrv: f: VIOLATION after 131 events — history is"),
            Some(131)
        );
    }
}
