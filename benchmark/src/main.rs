//! `linrv-benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! linrv-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! linrv-benchmark all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! linrv-benchmark compare A.json B.json
//! linrv-benchmark selfcheck [--seed N] [--seconds S] [--smoke]
//! linrv-benchmark manifest
//! ```
//!
//! See `benchmark/README.md`.

mod catalogue;
mod compare;
mod inputs;
mod json;
mod long;
mod offline;
mod pool;
mod probes;
mod rep;
mod runner;
mod spans;
mod stats;
mod sys;

use catalogue::{RUN_SECONDS, WORKLOADS};
use json::Json;
use rep::Rep;
use runner::{Env, RunOptions};
use spans::Spans;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const OPTIONS: [&str; 7] = [
    "workload", "seed", "seconds", "trace", "rep", "linrv", "out",
];
const SWITCHES: [&str; 2] = ["smoke", "traced"];

/// Command-line arguments: positionals, `--option value` pairs, `--switch`es.
#[derive(Default)]
struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut raw = raw;
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(name) if OPTIONS.contains(&name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} expects a value"))?;
                    args.options.insert(name.to_string(), value);
                }
                Some(name) if SWITCHES.contains(&name) => args.switches.push(name.to_string()),
                Some(name) => return Err(format!("unknown flag --{name}")),
                None => args.positionals.push(arg),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn run_options(&self) -> Result<RunOptions, String> {
        Ok(RunOptions {
            seed: self.get("seed", 42)?,
            seconds: self.get("seconds", RUN_SECONDS as f64)?,
            smoke: self.has("smoke"),
        })
    }

    fn workload(&self) -> Result<&'static str, String> {
        let name = self.options.get("workload").ok_or("missing --workload")?;
        WORKLOADS
            .iter()
            .map(|(workload, _)| *workload)
            .find(|workload| workload == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args, started)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("linrv-benchmark: error: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &Args, started: Instant) -> Result<ExitCode, String> {
    match args.positionals.first().map(String::as_str) {
        Some("rep") => repetition(args, started).map(|()| ExitCode::SUCCESS),
        Some("manifest") => {
            print!("{}", catalogue::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [_, a, b] = args.positionals.as_slice() else {
                return Err("compare takes two results files".into());
            };
            let (worse, _) = compare::compare(&read_results(a)?, &read_results(b)?)?;
            Ok(ExitCode::from(u8::from(worse > 0)))
        }
        Some("all") => {
            let out = args.get("out", String::from("benchmark/out/results.json"))?;
            let results = all(args.run_options()?)?;
            std::fs::write(&out, results.render() + "\n")
                .map_err(|err| format!("cannot write {out}: {err}"))?;
            println!("results written to {out}");
            Ok(ExitCode::SUCCESS)
        }
        Some("selfcheck") => {
            // The noise acceptance test: two full sets of runs of the same
            // code must agree on every row.
            let options = args.run_options()?;
            let (first, second) = (all(options)?, all(options)?);
            let (worse, unresolved) = compare::compare(&first, &second)?;
            Ok(ExitCode::from(u8::from(worse + unresolved > 0)))
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None => {
            let workload = args.workload()?;
            let traced = match args.get("trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            refuse_oversubscription(workload)?;
            let env = Env::prepare()?;
            let options = args.run_options()?;
            let outcome = if traced {
                runner::run_traced(&env, workload, options)
            } else {
                runner::run_untraced(&env, workload, options)
            };
            outcome.print(traced);
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// More load-generating threads than hardware threads measures the
/// scheduler, not the program.
fn refuse_oversubscription(workload: &str) -> Result<(), String> {
    let threads = catalogue::generator_threads(workload);
    if threads > sys::nproc() {
        return Err(format!(
            "{workload} drives {threads} load-generating threads but this machine offers {}",
            sys::nproc()
        ));
    }
    Ok(())
}

fn read_results(path: &str) -> Result<Json, String> {
    let raw = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    Json::parse(&raw).map_err(|err| format!("{path}: {err}"))
}

/// The full set: every workload untraced, then traced.
fn all(options: RunOptions) -> Result<Json, String> {
    let start = Instant::now();
    let env = Env::prepare()?;
    let mut workloads = BTreeMap::new();
    for (workload, _) in WORKLOADS {
        refuse_oversubscription(workload)?;
        println!("== {workload}");
        let untraced = runner::run_untraced(&env, workload, options);
        untraced.print(false);
        let traced = runner::run_traced(&env, workload, options);
        traced.print(true);
        workloads.insert(workload.to_string(), untraced.to_json(&traced));
    }
    Ok(Json::object([
        ("schema", Json::Str("linrv-benchmark/1".into())),
        ("seed", Json::Num(options.seed as f64)),
        ("smoke", Json::Bool(options.smoke)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("load_1min", Json::Num(sys::load_1min())),
        ("total_s", Json::Num(start.elapsed().as_secs_f64())),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// One repetition of `workload` at full or smoke size.
fn run_workload(
    workload: &str,
    smoke: bool,
    seed: u64,
    linrv: &Path,
    out_dir: &Path,
    started: Instant,
    spans: Option<&mut Spans>,
) -> Rep {
    use linrv::Mode;
    use long::LongSizes;
    let long_sizes = |full: LongSizes| if smoke { LongSizes::smoke() } else { full };
    match workload {
        "enforce-long" => long::run(
            Mode::Enforce,
            long_sizes(LongSizes::enforce()),
            seed,
            started,
            spans,
        ),
        "observe-long" => long::run(
            Mode::Observe,
            long_sizes(LongSizes::observe()),
            seed,
            started,
            spans,
        ),
        "pool-short" => {
            let sizes = if smoke {
                pool::PoolSizes::smoke()
            } else {
                pool::PoolSizes::full()
            };
            pool::run(sizes, seed, started, spans)
        }
        "offline-check" => {
            let sizes = if smoke {
                offline::OfflineSizes::smoke()
            } else {
                offline::OfflineSizes::full()
            };
            offline::run(sizes, seed, linrv, out_dir, started, spans)
        }
        _ => unreachable!("workload names are checked when arguments are parsed"),
    }
}

/// The child side of [`runner`]: runs one repetition and prints its result.
fn repetition(args: &Args, started: Instant) -> Result<(), String> {
    let workload = args.workload()?;
    let index: u64 = args.get("rep", 0)?;
    let smoke = args.has("smoke");
    let linrv = PathBuf::from(args.options.get("linrv").ok_or("missing --linrv")?);
    let out_dir = PathBuf::from(args.options.get("out").ok_or("missing --out")?);
    // Every repetition of a run has inputs of its own, so that the run's
    // median is taken over inputs as well as over the machine's moods.
    let seed = inputs::SplitMix64::fork(args.get("seed", 42)?, 1000 + index).next_u64();
    let mut rep = if args.has("traced") {
        let mut spans = Spans::new();
        let mut rep = run_workload(
            workload,
            smoke,
            seed,
            &linrv,
            &out_dir,
            started,
            Some(&mut spans),
        );
        // The layers this workload does not cross, from the workloads that
        // do, at smoke size: every traced run reports every layer.
        for other in ["enforce-long", "pool-short", "offline-check"] {
            let same_layers =
                other == workload || (other == "enforce-long" && workload == "observe-long");
            if !same_layers {
                let extra = run_workload(
                    other,
                    true,
                    seed,
                    &linrv,
                    &out_dir,
                    Instant::now(),
                    Some(&mut Spans::new()),
                );
                rep.attempted += extra.attempted;
                rep.failed += extra.failed;
                rep.failures.extend(extra.failures);
                for (name, value) in extra.layers {
                    rep.layers.entry(name).or_insert(value);
                }
            }
        }
        probes::obs(&mut rep.layers);
        let path = out_dir.join(format!("{workload}.spans.jsonl"));
        std::fs::write(&path, spans.to_jsonl())
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        rep
    } else {
        run_workload(workload, smoke, seed, &linrv, &out_dir, started, None)
    };
    rep.peak_rss_mb = sys::peak_rss_kb() as f64 / 1024.0;
    for failure in &rep.failures {
        eprintln!("linrv-benchmark: {workload}: {failure}");
    }
    println!("{}", rep.to_json().render());
    Ok(())
}
