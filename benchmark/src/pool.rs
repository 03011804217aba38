//! `pool-short`: a `MonitorPool` of many registers, each living for a handful
//! of operations.
//!
//! No history here grows long, so none of the long-history costs appear;
//! lazy monitor creation, the shard queues, the incremental checks and the
//! checked-prefix GC do the work. A change that makes long histories cheaper
//! must read "no change" on this workload.

use crate::inputs::{CorruptOnce, SplitMix64};
use crate::rep::Rep;
use crate::spans::{NoTrace, Spans, Tracer};
use crate::{stats, sys};
use linrv::runtime::impls::AtomicIntRegister;
use linrv::runtime::ConcurrentObject;
use linrv::spec::RegisterSpec;
use linrv::SnapshotBackend;
use linrv_pool::{MonitorPool, PoolBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Threads generating load. With one, the single checker thread parks between
/// pushes (throughput 100 k ops/s, ±3 %); with two it stays busy (116 k, ±1 %).
pub const PRODUCERS: usize = 2;
const SHARDS: usize = 8;
const WORKERS: usize = 1;

/// Sizes of one `pool-short` repetition.
#[derive(Debug, Clone, Copy)]
pub struct PoolSizes {
    pub objects: u64,
    pub ops_per_object: usize,
    /// Objects of the warm-up pass that is part of set-up.
    pub warm_objects: u64,
    /// Detection trials, the operations of each, and the response corrupted.
    pub trials: usize,
    pub trial_ops: usize,
    pub corrupt_at: u64,
}

impl PoolSizes {
    pub fn full() -> Self {
        PoolSizes {
            objects: 16_000,
            ops_per_object: 10,
            warm_objects: 5_000,
            trials: 4,
            trial_ops: 96,
            corrupt_at: 24,
        }
    }

    pub fn smoke() -> Self {
        PoolSizes {
            objects: 600,
            warm_objects: 100,
            trials: 2,
            ..PoolSizes::full()
        }
    }
}

fn pool<A, F>(factory: F) -> MonitorPool<A, RegisterSpec>
where
    A: ConcurrentObject + 'static,
    F: Fn(u64) -> A + Send + Sync + 'static,
{
    PoolBuilder::new(RegisterSpec::new())
        .shards(SHARDS)
        .workers(WORKERS)
        .snapshot(SnapshotBackend::Locked)
        .build(factory)
}

/// What one producer observed.
struct Produced {
    op_ns: Vec<u64>,
    lookup_ns: u64,
    failures: u64,
    /// Sum of the values written: a fingerprint of the seeded inputs.
    write_sum: u64,
    spans: Option<Spans>,
}

/// Progress the producers share: objects finished so far, and the process CPU
/// time (microseconds) at the moment half of them were.
#[derive(Default)]
struct Progress {
    objects_done: AtomicU64,
    cpu_half_us: AtomicU64,
}

/// Producer `index` of [`PRODUCERS`]: visits every `PRODUCERS`-th object and
/// runs its operations — a seeded mix of writes of fresh values and reads,
/// each read checked against the last value this (only) session wrote.
fn produce(
    pool: &MonitorPool<AtomicIntRegister, RegisterSpec>,
    sizes: PoolSizes,
    seed: u64,
    index: usize,
    progress: &Progress,
    tracer: &mut impl Tracer,
) -> Produced {
    let mut rng = SplitMix64::fork(seed, 10 + index as u64);
    let mine = (index as u64..sizes.objects).step_by(PRODUCERS);
    let mut out = Produced {
        op_ns: Vec::with_capacity(mine.clone().count() * sizes.ops_per_object),
        lookup_ns: 0,
        failures: 0,
        write_sum: 0,
        spans: None,
    };
    for object in mine {
        let start = Instant::now();
        let session = pool.session(object).expect("one session per object");
        let end = Instant::now();
        tracer.call("pool.session", start, end, object);
        out.lookup_ns += (end - start).as_nanos() as u64;
        let mut last = 0i64;
        for op in 0..sizes.ops_per_object {
            let write = op == 0 || rng.below(2) == 0;
            let start = Instant::now();
            let ok = if write {
                last = (rng.next_u64() >> 24) as i64 + 1;
                out.write_sum = out.write_sum.wrapping_add(last as u64);
                session.write(last).is_ok()
            } else {
                session.read() == Ok(last)
            };
            let end = Instant::now();
            tracer.call(
                if write { "pool.write" } else { "pool.read" },
                start,
                end,
                object,
            );
            out.op_ns.push((end - start).as_nanos() as u64);
            out.failures += u64::from(!ok);
        }
        if progress.objects_done.fetch_add(1, Ordering::Relaxed) + 1 == sizes.objects / 2 {
            progress
                .cpu_half_us
                .store(sys::cpu_time().as_micros() as u64, Ordering::Relaxed);
        }
    }
    out
}

/// Runs every producer on a thread of its own and waits for them. Returns
/// what they observed and the process CPU time when half the objects were done.
fn produce_all(
    pool: &MonitorPool<AtomicIntRegister, RegisterSpec>,
    sizes: PoolSizes,
    seed: u64,
    traced: bool,
) -> (Vec<Produced>, Duration) {
    let progress = &Progress::default();
    let produced = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|index| {
                scope.spawn(move || {
                    if traced {
                        let mut spans = Spans::new();
                        let mut produced = produce(pool, sizes, seed, index, progress, &mut spans);
                        produced.spans = Some(spans);
                        produced
                    } else {
                        produce(pool, sizes, seed, index, progress, &mut NoTrace)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a producer panicked"))
            .collect()
    });
    (
        produced,
        Duration::from_micros(progress.cpu_half_us.load(Ordering::Relaxed)),
    )
}

/// One detection trial, single-threaded: one object whose `corrupt_at`-th
/// response is corrupted, the pool quiesced after every operation. Returns
/// the operations completed from the corrupted one (inclusive) to the first
/// latched violation.
fn detection_trial(sizes: PoolSizes, seed: u64, trial: u64) -> Option<usize> {
    let pool = pool(move |_| CorruptOnce::new(AtomicIntRegister::new(), sizes.corrupt_at));
    let session = pool.session(trial).expect("one session per object");
    let mut rng = SplitMix64::fork(seed, 300 + trial);
    for op in 1..=sizes.trial_ops {
        if rng.below(2) == 0 {
            let _ = session.write(op as i64);
        } else {
            let _ = session.read();
        }
        pool.quiesce();
        if !pool.violations().is_empty() {
            return (op as u64 >= sizes.corrupt_at).then(|| op + 1 - sizes.corrupt_at as usize);
        }
    }
    None
}

/// Runs one repetition of `pool-short`; `spans` turns the traced run on.
pub fn run(sizes: PoolSizes, seed: u64, started: Instant, spans: Option<&mut Spans>) -> Rep {
    let mut rep = Rep::default();
    // Producers, checker thread and caller share one hardware thread. Spread
    // over the two virtual CPUs of the box this was sized on, every hand-over
    // between them is a wake-up across CPUs, and whether a repetition ends up
    // making them by the thousand decides its times (`check_all` 120 ms or
    // 250 ms, throughput 150 k or 180 k ops/s); on one, a repetition repeats
    // to 2 %.
    if !sys::pin_to_current_cpu() {
        eprintln!("linrv-benchmark: pool-short: cannot pin to one hardware thread");
    }

    // --- set-up: a warm-up pass on a pool of its own, then the pool.
    {
        let warm = PoolSizes {
            objects: sizes.warm_objects,
            ..sizes
        };
        let warm_pool = pool(|_| AtomicIntRegister::new());
        let failures: u64 = produce_all(&warm_pool, warm, seed ^ 1, false)
            .0
            .iter()
            .map(|produced| produced.failures)
            .sum();
        rep.expect(failures == 0, "warm-up pass saw a wrong response");
        let verdicts = warm_pool.check_all();
        rep.expect(
            verdicts.values().all(|v| v.is_correct()),
            "warm-up verdict wrong",
        );
    }
    let rss_before_kb = sys::rss_kb();
    let pool = pool(|_| AtomicIntRegister::new());
    rep.setup_s = started.elapsed().as_secs_f64();

    // --- timed phase.
    let cpu_start = sys::cpu_time();
    let wall_start = Instant::now();
    let (produced, cpu_half) = produce_all(&pool, sizes, seed, spans.is_some());
    let wall_end = Instant::now();
    rep.timed_wall_s = (wall_end - wall_start).as_secs_f64();
    rep.cpu_ms = (sys::cpu_time() - cpu_start).as_secs_f64() * 1e3;
    let mut op_ns: Vec<u64> = produced
        .iter()
        .flat_map(|p| p.op_ns.iter().copied())
        .collect();
    rep.ops = op_ns.len() as u64;
    rep.attempted += rep.ops;
    rep.failed += produced.iter().map(|p| p.failures).sum::<u64>();
    rep.expect(
        rep.ops == sizes.objects * sizes.ops_per_object as u64,
        "timed phase ran the wrong number of operations",
    );
    // The shard queues are bounded, so when the producers are half-way the
    // checker thread is too, give or take a queue's worth of events.
    rep.scaling_exp = (rep.cpu_ms / ((cpu_half - cpu_start).as_secs_f64() * 1e3)).log2();
    let mean_op_ns = op_ns.iter().sum::<u64>() as f64 / rep.ops as f64;
    let lookup_ns = produced.iter().map(|p| p.lookup_ns).sum::<u64>() as f64 / sizes.objects as f64;
    rep.tail_pct = stats::tail_percentile(op_ns.len());
    rep.op_p50_us = stats::percentile(&mut op_ns, 50) as f64 / 1e3;
    rep.op_tail_us = stats::percentile(&mut op_ns, rep.tail_pct) as f64 / 1e3;

    // --- verdict: drain the queues, then every object's final check.
    let verdict_start = Instant::now();
    pool.quiesce();
    let quiesced = Instant::now();
    let verdicts = pool.check_all();
    let verdict_end = Instant::now();
    rep.verdict_ms = (verdict_end - verdict_start).as_secs_f64() * 1e3;
    rep.verdict_block_ms = rep.verdict_ms;
    rep.attempted += 1;
    rep.expect(
        verdicts.len() as u64 == sizes.objects && verdicts.values().all(|v| v.is_correct()),
        "a correct register was not verified correct",
    );
    let pool_stats = pool.stats();
    rep.expect(
        pool_stats.violations == 0 && pool_stats.dropped == 0,
        "the pool latched a violation or dropped events",
    );
    let rss_kb_per_object =
        sys::rss_kb().saturating_sub(rss_before_kb) as f64 / sizes.objects as f64;

    // --- detection trials on a register with one corrupted response.
    let mut lags = Vec::with_capacity(sizes.trials);
    for trial in 0..sizes.trials as u64 {
        rep.attempted += 1;
        match detection_trial(sizes, seed, trial) {
            Some(lag) => lags.push(lag as f64),
            None => rep.expect(false, "corrupted response was never reported"),
        }
    }
    rep.detect_lag_ops = stats::median(&lags);
    let write_sum = produced
        .iter()
        .fold(0u64, |sum, p| sum.wrapping_add(p.write_sum));
    rep.counts
        .insert("input.write_sum".into(), (write_sum % 1_000_000_007) as f64);
    rep.counts
        .insert("pool.ingested".into(), pool_stats.ingested as f64);
    rep.counts
        .insert("pool.gced_events".into(), pool_stats.gced_events as f64);

    if let Some(spans) = spans {
        spans.open_at("bench.timed", wall_start);
        for thread in produced.into_iter().filter_map(|p| p.spans) {
            spans.adopt(thread);
        }
        spans.close_at(wall_end);
        spans.open_at("bench.verdict", verdict_start);
        spans.call("pool.quiesce", verdict_start, quiesced, 0);
        spans.call("pool.check_all", quiesced, verdict_end, 0);
        spans.close_at(verdict_end);
        let layers = &mut rep.layers;
        layers.insert("pool.session_lookup_ns".into(), lookup_ns);
        layers.insert("pool.op_ns".into(), mean_op_ns);
        layers.insert(
            "pool.quiesce_ms".into(),
            (quiesced - verdict_start).as_secs_f64() * 1e3,
        );
        layers.insert(
            "pool.check_all_ms".into(),
            (verdict_end - quiesced).as_secs_f64() * 1e3,
        );
        layers.insert("pool.checks".into(), pool_stats.checks as f64);
        layers.insert("pool.steals".into(), pool_stats.steals as f64);
        layers.insert("pool.gced_events".into(), pool_stats.gced_events as f64);
        layers.insert(
            "pool.retained_events".into(),
            pool_stats.retained_events as f64,
        );
        layers.insert("pool.rss_kb_per_object".into(), rss_kb_per_object);
    }
    // The process is about to exit: tearing down every monitor one by one
    // first (0.4 s at full size) would only cost each run a repetition or two.
    std::mem::forget(pool);
    rep
}
