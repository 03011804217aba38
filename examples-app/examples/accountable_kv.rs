//! Accountable key-value service (Section 8.3 of the paper, scaled out).
//!
//! A KV service maps keys to registers supplied by a third-party vendor. By
//! routing every key through a `MonitorPool`, the service gets per-key runtime
//! verification of linearizability at service scale: monitors are created
//! lazily per key, events flow through sharded bounded queues into a
//! work-stealing pool of checker threads, and verified history is dropped at
//! every settle point (nothing of the key open, one reachable state) so memory
//! stays bounded under sustained load.
//!
//! One vendor register is rigged: key `--objects / 2` occasionally serves a
//! value nobody ever wrote. The pool must flag exactly that key — with the
//! violating prefix as evidence — while every other key keeps verifying.
//!
//! ```text
//! cargo run --release --example accountable_kv -- \
//!     --clients 16 --objects 256 --ops 400 --seed 42
//! ```
//!
//! Exits `0` when the rigged key (and only the rigged key) is flagged; the CI
//! smoke test pins that exit code. Per-shard throughput is printed at the end,
//! doubling as a smoke benchmark of the ingestion path.
//!
//! Two observability flags tap the `linrv-obs` layer: `--dashboard` prints a
//! live ingestion/checking status line every 250ms while the load runs, and
//! `--metrics-out FILE` switches recording on and writes the full metrics
//! snapshot at exit (Prometheus text for `.prom`/`.txt`, JSON otherwise) —
//! queue depths, producer-block and check latencies included.

use linrv::history::{OpValue, Operation, ProcessId};
use linrv::runtime::impls::AtomicIntRegister;
use linrv::runtime::ConcurrentObject;
use linrv::spec::ObjectKind;
use linrv_pool::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A value no client ever writes: reading it back is a self-evident violation.
const EVIL_VALUE: i64 = -999_999;

/// The rigged vendor register: correct, except that every third read returns
/// [`EVIL_VALUE`] regardless of what was written. Deterministic by design, so
/// the example's outcome never depends on thread scheduling.
struct EvilRegister {
    inner: AtomicIntRegister,
    reads: AtomicU64,
}

impl EvilRegister {
    fn new() -> Self {
        EvilRegister {
            inner: AtomicIntRegister::new(),
            reads: AtomicU64::new(0),
        }
    }
}

impl ConcurrentObject for EvilRegister {
    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }

    fn apply(&self, process: ProcessId, op: &Operation) -> OpValue {
        if op.kind == "Read" && self.reads.fetch_add(1, Ordering::Relaxed) % 3 == 2 {
            return OpValue::Int(EVIL_VALUE);
        }
        self.inner.apply(process, op)
    }

    fn name(&self) -> String {
        "evil vendor register".into()
    }
}

/// Seeded splitmix64: the load generator's only source of randomness, so a
/// given `--seed` always produces the same request stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct Args {
    clients: u64,
    objects: u64,
    ops: u64,
    seed: u64,
    dashboard: bool,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 8,
        objects: 64,
        ops: 200,
        seed: 42,
        dashboard: false,
        metrics_out: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--dashboard" {
            args.dashboard = true;
            continue;
        }
        if flag == "--metrics-out" {
            args.metrics_out = Some(
                iter.next()
                    .unwrap_or_else(|| panic!("--metrics-out needs a file path")),
            );
            continue;
        }
        let value: u64 = iter
            .next()
            .and_then(|raw| raw.parse().ok())
            .unwrap_or_else(|| panic!("{flag} needs a numeric value"));
        match flag.as_str() {
            "--clients" => args.clients = value.max(1),
            "--objects" => args.objects = value.max(2),
            "--ops" => args.ops = value.max(1),
            "--seed" => args.seed = value,
            other => panic!(
                "unknown flag {other} (use --clients/--objects/--ops/--seed/--dashboard/--metrics-out)"
            ),
        }
    }
    args
}

/// One dashboard tick: ingestion and checking totals plus per-shard queue
/// depths, all read through the pool's metrics-backed stats views.
fn dashboard_line(pool: &MonitorPool<Box<dyn ConcurrentObject>, RegisterSpec>) -> String {
    let stats = pool.stats();
    let depths: Vec<String> = pool
        .shard_stats()
        .iter()
        .map(|shard| shard.queued.to_string())
        .collect();
    format!(
        "[dash] ingested {:>8}  processed {:>8}  checks {:>6}  gced {:>8}  queued [{}]",
        stats.ingested,
        stats.processed,
        stats.checks,
        stats.gced_events,
        depths.join(" "),
    )
}

fn main() {
    let args = parse_args();
    let bad_key = args.objects / 2;
    if args.metrics_out.is_some() || args.dashboard {
        // Recording stays off unless asked for: the example doubles as the
        // overhead demo, so the default run pays only the kill-switch load.
        linrv_obs::set_enabled(true);
        linrv_pool::metrics::declare();
    }
    println!("{}", linrv_examples::banner("accountable KV service"));
    println!(
        "  {} clients x {} ops over {} keys (seed {}), rigged key: {bad_key}",
        args.clients, args.ops, args.objects, args.seed
    );

    let pool = Arc::new(
        PoolBuilder::new(RegisterSpec::new())
            .shards(8)
            .workers(4)
            .sessions_per_object((args.clients as usize).min(64))
            .snapshot(SnapshotBackend::Locked)
            .build(move |key| -> Box<dyn ConcurrentObject> {
                if key == bad_key {
                    Box::new(EvilRegister::new())
                } else {
                    Box::new(AtomicIntRegister::new())
                }
            }),
    );

    // The load generator: every client hammers pseudo-random keys with
    // write/read pairs. Clients write only non-negative values, so EVIL_VALUE
    // can never be an honest response.
    let started = Instant::now();
    let load_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if args.dashboard {
            let pool = Arc::clone(&pool);
            let load_done = &load_done;
            scope.spawn(move || {
                while !load_done.load(Ordering::Acquire) {
                    println!("  {}", dashboard_line(&pool));
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
                println!("  {}  (load drained)", dashboard_line(&pool));
            });
        }
        let clients: Vec<_> = (0..args.clients)
            .map(|client| {
                let pool = Arc::clone(&pool);
                let mut rng = Rng(args.seed ^ (client.wrapping_mul(0x0DDB_1A5E_5BAD_5EED)));
                let objects = args.objects;
                let ops = args.ops;
                scope.spawn(move || {
                    for _ in 0..ops {
                        let key = rng.next() % objects;
                        let Ok(session) = pool.session(key) else {
                            continue; // all slots of this key busy: move on
                        };
                        let _ = session.write((rng.next() % 1_000) as i64);
                        let _ = session.read();
                    }
                })
            })
            .collect();
        for client in clients {
            let _ = client.join();
        }
        load_done.store(true, Ordering::Release);
    });
    pool.quiesce();
    let elapsed = started.elapsed();

    // A short sequential audit of the rigged key guarantees at least three
    // reads hit it, so the sentinel is served and caught deterministically
    // whatever the random load did.
    {
        let session = pool
            .session(bad_key)
            .expect("load generator released slots");
        let _ = session.write(7);
        for _ in 0..6 {
            let _ = session.read();
        }
    }

    let verdicts = pool.check_all();
    let flagged: Vec<u64> = verdicts
        .iter()
        .filter(|(_, verdict)| !verdict.is_correct())
        .map(|(key, _)| *key)
        .collect();

    let stats = pool.stats();
    println!(
        "\n  ingestion: {} events in {:.2?}",
        stats.ingested, elapsed
    );
    println!("  per-shard throughput:");
    for shard in pool.shard_stats() {
        let events_per_sec = shard.ingested as f64 / elapsed.as_secs_f64();
        println!(
            "    shard {:>2}: {:>5} keys, {:>9} events, {:>12.0} events/s",
            shard.shard, shard.objects, shard.ingested, events_per_sec
        );
    }
    println!(
        "  checking: {} checks, {} events GC'd after verification, {} still retained",
        stats.checks, stats.gced_events, stats.retained_events
    );
    println!("  work stealing: {} stolen batches", stats.steals);

    match verdicts.get(&bad_key) {
        Some(PoolVerdict::Violation(violation)) => {
            println!("\n  rigged key {bad_key} caught: {violation}");
            println!("  violating prefix (first lines):");
            for line in violation.witness.to_string().lines().take(6) {
                println!("    {line}");
            }
        }
        _ => {
            eprintln!("ERROR: the rigged key {bad_key} was not flagged");
            std::process::exit(1);
        }
    }
    if flagged != vec![bad_key] {
        eprintln!("ERROR: healthy keys were flagged too: {flagged:?}");
        std::process::exit(1);
    }
    println!(
        "\n  every other key verified clean ({} keys checked); the vendor of key \
         {bad_key} can be held accountable.",
        verdicts.len()
    );

    if let Some(path) = &args.metrics_out {
        let snapshot = linrv_obs::Registry::global().snapshot();
        match snapshot.write_file(std::path::Path::new(path)) {
            Ok(()) => println!("  metrics snapshot written to {path}"),
            Err(err) => {
                eprintln!("ERROR: cannot write metrics to {path}: {err}");
                std::process::exit(1);
            }
        }
    }
}
