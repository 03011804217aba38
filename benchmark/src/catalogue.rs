//! What the benchmark measures: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the root of
//! the repository is this file rendered (`linrv-benchmark manifest`); a test
//! keeps the two equal.

use crate::json::Json;
use crate::stats;

/// A workload: name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "enforce-long",
        "one Enforce-mode monitor, 4 sessions, one long queue history: every op pays tuple exchange, sketch and membership over the whole history",
    ),
    (
        "observe-long",
        "same monitor and seeded schedule in Observe mode: ops only announce, collect and record; sketch and membership move into the verdict",
    ),
    (
        "pool-short",
        "MonitorPool of many short-lived registers: bypasses every long-history cost; lazy monitors, shard queues, incremental checks and GC do the work",
    ),
    (
        "offline-check",
        "the linrv check binary over a seeded trace corpus: codec, streaming checker, specialized monitors, general-search cliff and CLI start-up",
    ),
];

/// Threads that generate load in the timed phase of `workload`.
pub fn generator_threads(workload: &str) -> usize {
    if workload == "pool-short" {
        crate::pool::PRODUCERS
    } else {
        1
    }
}

/// Longest time the measuring part of one run is given; the driver passes it
/// back as `--seconds`. It decides how many fixed-work repetitions a run
/// makes, never how much work one repetition does.
pub const RUN_SECONDS: u64 = 28;

/// One metric: name, unit, whether lower is better.
pub type Metric = (&'static str, &'static str, bool);

/// How a run's repetitions become the one value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimate {
    /// The best repetition: the shortest time, the highest rate. A neighbour
    /// on a shared machine only ever adds time, in stretches of seconds to
    /// minutes; in a bad minute it disturbs most of a run's repetitions, and
    /// any middle value then reports the neighbour. The best repetition is
    /// the one it left alone.
    Best,
    /// The median of the better half of the repetitions: what [`Estimate::Best`]
    /// becomes on a workload that runs several threads. There the scheduler's
    /// luck moves a repetition either way, and the best one is a lucky one.
    BetterHalf,
    /// The smallest repetition, threads or not: a peak size. How the threads
    /// happened to interleave only ever adds to it.
    Least,
    /// The median of all repetitions: for ratios, which a disturbance moves
    /// either way.
    Median,
    /// The first repetition's value: an exact count must not depend on how
    /// many repetitions the run had time for.
    First,
}

impl Estimate {
    /// This estimate as it applies on `workload`.
    pub fn on(self, workload: &str) -> Estimate {
        if self == Estimate::Best && generator_threads(workload) > 1 {
            Estimate::BetterHalf
        } else {
            self
        }
    }

    /// The value a run reports, from its repetitions' `values`.
    pub fn of(self, values: &[f64], lower_is_better: bool) -> f64 {
        match self {
            Estimate::Least => values.iter().copied().fold(f64::NAN, f64::min),
            Estimate::Best if lower_is_better => values.iter().copied().fold(f64::NAN, f64::min),
            Estimate::Best => values.iter().copied().fold(f64::NAN, f64::max),
            Estimate::BetterHalf => stats::median(&stats::better_half(values, lower_is_better)),
            Estimate::Median => stats::median(values),
            Estimate::First => values.first().copied().unwrap_or(f64::NAN),
        }
    }

    /// The repetitions that stand for the run when `compare` asks how far
    /// two runs of the same code lie apart: for a timing the better half,
    /// the part of the run a neighbour disturbed least.
    pub fn sample(self, values: &[f64], lower_is_better: bool) -> Vec<f64> {
        match self {
            Estimate::Best | Estimate::BetterHalf | Estimate::Least => {
                stats::better_half(values, lower_is_better)
            }
            Estimate::Median => values.to_vec(),
            Estimate::First => values.iter().take(1).copied().collect(),
        }
    }
}

/// The end-to-end metrics, the same on every workload: how each is estimated,
/// and the share of the parent's value by which it may worsen before a change
/// is a regression.
pub const END_TO_END: [(Metric, Estimate, f64); 9] = [
    (("setup_s", "s", true), Estimate::Best, 0.25),
    (("ops_per_s", "1/s", false), Estimate::Best, 0.25),
    (("op_p50_us", "us", true), Estimate::Best, 0.25),
    (("op_tail_us", "us", true), Estimate::Best, 0.25),
    (("verdict_ms", "ms", true), Estimate::Best, 0.25),
    (("peak_rss_mb", "MiB", true), Estimate::Least, 0.03),
    (("cpu_ms_per_kop", "ms", true), Estimate::Best, 0.25),
    (("scaling_exp", "log2", true), Estimate::Median, 0.10),
    (("detect_lag_ops", "count", true), Estimate::First, 0.10),
];

const NS: &str = "ns";
const MS: &str = "ms";
const COUNT: &str = "count";
const RATIO: &str = "ratio";

/// The per-layer metrics of the traced run; layer = crate.module.
pub const PER_LAYER: [Metric; 61] = [
    ("snapshot.afek.write_ns", NS, true),
    ("snapshot.afek.scan_ns", NS, true),
    ("snapshot.double-collect.write_ns", NS, true),
    ("snapshot.double-collect.scan_ns", NS, true),
    ("snapshot.locked.write_ns", NS, true),
    ("snapshot.locked.scan_ns", NS, true),
    ("snapshot.afek.retained_bytes_per_write", "B", true),
    ("core.drv.announce_ns", NS, true),
    ("core.drv.inner_ns", NS, true),
    ("core.drv.collect_ns", NS, true),
    ("core.drv.view_len_p50", COUNT, true),
    ("core.drv.view_len_max", COUNT, true),
    ("core.verifier.record_ns", NS, true),
    ("core.verifier.exchange_ns", NS, true),
    ("core.verifier.tuple_pairs", COUNT, true),
    ("core.sketch.build_ns", NS, true),
    ("check.membership_ns", NS, true),
    ("core.enforce.verify_share", RATIO, true),
    ("linrv.session.stage_ns", NS, true),
    ("linrv.session.execute_ns", NS, true),
    ("linrv.session.commit_ns", NS, true),
    ("linrv.session.layer_sum_ratio", RATIO, true),
    ("linrv.session.overhead_x", RATIO, true),
    ("linrv.monitor.build_ns", NS, true),
    ("linrv.monitor.check_ms", MS, true),
    ("linrv.monitor.certificate_ms", MS, true),
    ("runtime.raw_op_ns", NS, true),
    ("pool.session_lookup_ns", NS, true),
    ("pool.op_ns", NS, true),
    ("pool.quiesce_ms", MS, true),
    ("pool.check_all_ms", MS, true),
    ("pool.checks", COUNT, true),
    ("pool.steals", COUNT, true),
    ("pool.gced_events", COUNT, false),
    ("pool.retained_events", COUNT, true),
    ("pool.rss_kb_per_object", "KiB", true),
    ("check.batch.queue_ns_per_op", NS, true),
    ("check.batch.stack_ns_per_op", NS, true),
    ("check.batch.set_ns_per_op", NS, true),
    ("check.batch.priority-queue_ns_per_op", NS, true),
    ("check.batch.counter_ns_per_op", NS, true),
    ("check.batch.register_ns_per_op", NS, true),
    ("check.specialized_share", RATIO, false),
    ("check.stream.push_ns_per_event", NS, true),
    ("check.synthetic.scaling_exp", "log2", true),
    ("trace.jsonl.encode_ns_per_event", NS, true),
    ("trace.jsonl.decode_ns_per_event", NS, true),
    ("trace.jsonl.bytes_per_event", "B", true),
    ("trace.binary.encode_ns_per_event", NS, true),
    ("trace.binary.decode_ns_per_event", NS, true),
    ("trace.binary.bytes_per_event", "B", true),
    ("history.builder_ns_per_event", NS, true),
    ("runtime.record_ns_per_op", NS, true),
    ("cli.startup_ms", MS, true),
    ("cli.check.synthetic-n_ms", MS, true),
    ("cli.check.synthetic-2n_ms", MS, true),
    ("cli.check.cliff_ms", MS, true),
    ("forensics.explain_ms", MS, true),
    ("obs.record_ns", NS, true),
    ("obs.disabled_ns", NS, true),
    ("bench.trace_overhead_x", RATIO, false),
];

fn better(lower: bool) -> Json {
    Json::Str(if lower { "lower" } else { "higher" }.into())
}

/// `BENCHMARK.json`, pretty-printed one entry per line.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "linrv-benchmark",
        "--",
    ];
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|item| format!("    {}", item.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            Json::object([
                ("name", Json::Str((*name).into())),
                ("why", Json::Str((*why).into())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|((name, unit, lower), _, bound)| {
            Json::object([
                ("name", Json::Str((*name).into())),
                ("unit", Json::Str((*unit).into())),
                ("better", better(*lower)),
                ("bound", Json::Num(*bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, lower)| {
            Json::object([
                ("name", Json::Str((*name).into())),
                ("unit", Json::Str((*unit).into())),
                ("better", better(*lower)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command.iter().map(|part| Json::Str((*part).into())).collect()).render(),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the root of the repository");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `linrv-benchmark manifest`"
        );
        assert!(Json::parse(&committed).is_ok());
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            (1..=16).contains(&unit.len())
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        names.extend(END_TO_END.iter().map(|((name, _, _), _, _)| *name));
        names.extend(PER_LAYER.iter().map(|(name, _, _)| *name));
        assert!(names.iter().all(|name| name_ok(name)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|((_, unit, _), _, bound)| unit_ok(unit) && *bound <= 0.25));
        assert!(PER_LAYER.iter().all(|(_, unit, _)| unit_ok(unit)));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
