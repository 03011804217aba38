//! Runs a workload: fixed-work repetitions, each in a child process of its
//! own, for as long as the run is given; then the medians, the oracle
//! bookkeeping and the noise guards.
//!
//! The time a run is given decides how many repetitions it makes, never how
//! much work one repetition does: a slow machine yields fewer samples of the
//! same quantity, not a different quantity.

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::rep::Rep;
use crate::{stats, sys};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Repetitions every run makes at least, and at most.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 40;
/// A repetition running longer than this is killed and counted as failed.
const REP_TIMEOUT: Duration = Duration::from_secs(120);
/// Peak resident set a repetition may reach before its result stops being
/// comparable (the box this was sized on has 2 cores and little to spare).
const RSS_CAP_MB: f64 = 1600.0;

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Where the repository's own pieces are: the built `linrv` binary and the
/// directory the benchmark writes into.
pub struct Env {
    pub linrv: PathBuf,
    pub out_dir: PathBuf,
}

impl Env {
    /// Builds the `linrv` binary from the repository this benchmark was
    /// compiled in, into the target directory this program runs from, with
    /// the profile this program was built with.
    pub fn prepare() -> Result<Env, String> {
        let benchmark_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let exe =
            std::env::current_exe().map_err(|err| format!("cannot locate this program: {err}"))?;
        let profile_dir = exe.parent().ok_or("this program has no directory")?;
        let target_dir = profile_dir
            .parent()
            .ok_or("this program is not in a target directory")?;
        let mut cargo = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
        cargo
            .args([
                "build",
                "--offline",
                "--quiet",
                "-p",
                "linrv-cli",
                "--manifest-path",
            ])
            .arg(benchmark_dir.join("../Cargo.toml"))
            .arg("--target-dir")
            .arg(target_dir)
            .stdout(Stdio::null());
        if profile_dir
            .file_name()
            .is_some_and(|name| name == "release")
        {
            cargo.arg("--release");
        }
        let status = cargo
            .status()
            .map_err(|err| format!("cannot run cargo: {err}"))?;
        if !status.success() {
            return Err(format!("building linrv-cli failed ({status})"));
        }
        let out_dir = benchmark_dir.join("out");
        std::fs::create_dir_all(&out_dir)
            .map_err(|err| format!("cannot create {}: {err}", out_dir.display()))?;
        Ok(Env {
            linrv: profile_dir.join("linrv"),
            out_dir,
        })
    }
}

/// Everything one run of one workload measured.
pub struct Outcome {
    pub workload: &'static str,
    /// The untraced repetitions that reported a result.
    pub reps: Vec<Rep>,
    /// Repetitions that crashed, timed out or printed no result.
    pub lost: u64,
    /// Per-layer metrics of the traced run (empty for an untraced run).
    pub layers: BTreeMap<String, f64>,
    pub wall_s: f64,
}

/// Runs one repetition in a child process and parses what it prints.
fn spawn_rep(
    env: &Env,
    workload: &str,
    options: RunOptions,
    index: usize,
    traced: bool,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["rep", "--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--rep", &index.to_string()])
        .arg("--linrv")
        .arg(&env.linrv)
        .arg("--out")
        .arg(&env.out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if options.smoke {
        command.arg("--smoke");
    }
    if traced {
        command.arg("--traced");
    }
    let mut child = command
        .spawn()
        .map_err(|err| format!("cannot start a repetition: {err}"))?;
    let watchdog = sys::Watchdog::arm(child.id(), REP_TIMEOUT);
    let mut printed = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut printed);
    let status = child.wait();
    if watchdog.disarm() {
        return Err(format!(
            "repetition {index} exceeded {REP_TIMEOUT:?} and was killed"
        ));
    }
    read.map_err(|err| format!("cannot read repetition {index}: {err}"))?;
    let status = status.map_err(|err| format!("cannot wait for repetition {index}: {err}"))?;
    if !status.success() {
        return Err(format!("repetition {index} ended with {status}"));
    }
    let line = printed
        .lines()
        .last()
        .ok_or_else(|| format!("repetition {index} printed nothing"))?;
    Rep::from_json(&Json::parse(line)?)
}

/// Calls `rep` with 0, 1, 2, …: `least` times, then for as long as one more
/// call as long as the longest so far would still end within `seconds`.
fn repeat(seconds: f64, least: usize, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut index = 0;
    while index < least || (start.elapsed().as_secs_f64() + longest < seconds && index < MAX_REPS) {
        let rep_start = Instant::now();
        rep(index);
        longest = longest.max(rep_start.elapsed().as_secs_f64());
        index += 1;
    }
}

/// The untraced run: repetitions, each on inputs of its own, until
/// `options.seconds` have passed.
pub fn run_untraced(env: &Env, workload: &'static str, options: RunOptions) -> Outcome {
    let start = Instant::now();
    let mut outcome = Outcome::new(workload);
    repeat(options.seconds, MIN_REPS, |index| {
        match spawn_rep(env, workload, options, index, false) {
            Ok(rep) => outcome.reps.push(rep),
            Err(why) => {
                eprintln!("linrv-benchmark: {workload}: {why}");
                outcome.lost += 1;
            }
        }
    });
    outcome.wall_s = start.elapsed().as_secs_f64();
    outcome
}

/// The traced run: pairs of one untraced and one traced repetition until
/// `options.seconds` have passed. Every pair runs the inputs of repetition 0,
/// so the counts are those of the seed however many pairs there was time
/// for; a layer's value is its median over the pairs, and the ratio of a
/// pair's throughputs is the tracing overhead.
pub fn run_traced(env: &Env, workload: &'static str, options: RunOptions) -> Outcome {
    let start = Instant::now();
    let mut outcome = Outcome::new(workload);
    let mut pairs: Vec<BTreeMap<String, f64>> = Vec::new();
    repeat(options.seconds, 1, |_| {
        let untraced = spawn_rep(env, workload, options, 0, false);
        let traced = spawn_rep(env, workload, options, 0, true);
        match (untraced, traced) {
            (Ok(untraced), Ok(mut traced)) => {
                traced.layers.insert(
                    "bench.trace_overhead_x".into(),
                    traced.end_to_end("ops_per_s") / untraced.end_to_end("ops_per_s"),
                );
                pairs.push(std::mem::take(&mut traced.layers));
                outcome.reps.extend([untraced, traced]);
            }
            (untraced, traced) => {
                for why in [untraced.err(), traced.err()].into_iter().flatten() {
                    eprintln!("linrv-benchmark: {workload}: {why}");
                    outcome.lost += 1;
                }
            }
        }
    });
    if let Some(first) = pairs.first() {
        for name in first.keys() {
            let values: Vec<f64> = pairs
                .iter()
                .filter_map(|pair| pair.get(name).copied())
                .collect();
            outcome.layers.insert(name.clone(), stats::median(&values));
        }
    }
    outcome.wall_s = start.elapsed().as_secs_f64();
    outcome
}

impl Outcome {
    fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            reps: Vec::new(),
            lost: 0,
            layers: BTreeMap::new(),
            wall_s: 0.0,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|rep| rep.attempted).sum::<u64>() + self.lost
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|rep| rep.failed).sum::<u64>() + self.lost
    }

    /// The values of end-to-end metric `name`, one per repetition.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.reps.iter().map(|rep| rep.end_to_end(name)).collect()
    }

    /// Why this result must not be compared against another, if anything:
    /// a phase too short to time, or memory past the cap. Such a workload
    /// needs re-sizing in a change to the benchmark.
    pub fn incomparable(&self) -> Vec<String> {
        let median_of =
            |f: fn(&Rep) -> f64| stats::median(&self.reps.iter().map(f).collect::<Vec<_>>());
        let mut why = Vec::new();
        if self.failed() > 0 {
            why.push(format!(
                "{} of {} checks failed",
                self.failed(),
                self.attempted()
            ));
        }
        if self.reps.is_empty() {
            return why;
        }
        let timed = median_of(|rep| rep.timed_wall_s);
        if timed < 0.5 {
            why.push(format!("timed phase ran {timed:.3} s, under 0.5 s"));
        }
        let setup = median_of(|rep| rep.setup_s);
        if setup < 0.25 {
            why.push(format!("set-up took {setup:.3} s, under 0.25 s"));
        }
        let verdict = median_of(|rep| rep.verdict_block_ms);
        if verdict < 100.0 {
            why.push(format!(
                "verdict calls were timed over {verdict:.1} ms, under 100 ms"
            ));
        }
        let rss = median_of(|rep| rep.peak_rss_mb);
        if rss > RSS_CAP_MB {
            why.push(format!("peak RSS {rss:.0} MiB exceeds {RSS_CAP_MB} MiB"));
        }
        why
    }

    /// Prints every metric by name and unit, then — as the last line — the
    /// result object the driver reads.
    pub fn print(&self, traced: bool) {
        let mut metrics = BTreeMap::new();
        if traced {
            for (name, unit, _) in PER_LAYER {
                let value = self.layers.get(name).copied().unwrap_or(f64::NAN);
                println!("{name} = {value} {unit}");
                metrics.insert(name.to_string(), metric_json(value, unit));
            }
            println!("medians of {} traced repetitions", self.reps.len() / 2);
        } else {
            for ((name, unit, lower), estimate, _) in END_TO_END {
                let values = self.values(name);
                let estimate = estimate.on(self.workload);
                let value = estimate.of(&values, lower);
                let [q1, median, q3] = stats::quartiles(&values);
                println!(
                    "{name} = {value} {unit} ({estimate:?} of {} repetitions with quartiles {q1} .. {median} .. {q3})",
                    values.len()
                );
                metrics.insert(name.to_string(), metric_json(value, unit));
            }
            for why in self.incomparable() {
                println!("not comparable: {why}");
            }
        }
        println!(
            "nproc = {}, load_1min = {}, run took {:.1} s",
            sys::nproc(),
            sys::load_1min(),
            self.wall_s
        );
        let complete = metrics
            .values()
            .all(|metric| metric.get("value").and_then(Json::num).is_some());
        println!(
            "{}",
            Json::object([
                ("correct", Json::Bool(self.failed() == 0 && complete)),
                ("attempted", Json::Num(self.attempted().max(1) as f64)),
                ("failed", Json::Num(self.failed() as f64)),
                ("metrics", Json::Obj(metrics)),
            ])
            .render()
        );
    }

    /// This outcome as an entry of a results file (see `compare`).
    pub fn to_json(&self, traced: &Outcome) -> Json {
        let end_to_end = END_TO_END
            .iter()
            .map(|((name, unit, lower), estimate, _)| {
                let values = self.values(name);
                let [q1, median, q3] = stats::quartiles(&values);
                let entry = Json::object([
                    ("unit", Json::Str((*unit).into())),
                    (
                        "value",
                        Json::Num(estimate.on(self.workload).of(&values, *lower)),
                    ),
                    ("median", Json::Num(median)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("n", Json::Num(values.len() as f64)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        let why = self.incomparable();
        Json::object([
            ("comparable", Json::Bool(why.is_empty())),
            (
                "why_not",
                Json::Arr(why.into_iter().map(Json::Str).collect()),
            ),
            (
                "attempted",
                Json::Num((self.attempted() + traced.attempted()) as f64),
            ),
            (
                "failed",
                Json::Num((self.failed() + traced.failed()) as f64),
            ),
            ("run_s", Json::Num(self.wall_s + traced.wall_s)),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", Json::numbers(&traced.layers)),
            (
                "counts",
                self.reps
                    .first()
                    .map_or(Json::Obj(BTreeMap::new()), |rep| Json::numbers(&rep.counts)),
            ),
        ])
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::object([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}
