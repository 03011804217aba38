//! The fuzz sweep: run N derived scenarios, shrink every failure, report.
//!
//! A sweep is a pure function of its [`FuzzConfig`] (`same seed ⇒ byte
//! identical corpus`): scenarios are derived, executed and shrunk in index
//! order on one thread, and corpus files are written deterministically.

use crate::runner::{run_scenario, RunOutcome};
use crate::scenario::{Scenario, SweepShape};
use linrv_forensics::{explain, render_cert, render_report, shrink, ShrinkOutcome};
use linrv_history::History;
use linrv_trace::{Provenance, TraceFormat, TraceHeader, TraceWriter};
use std::fmt::Write as _;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// Configuration of one fuzz sweep.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of scenarios to derive and run.
    pub scenarios: usize,
    /// Master seed: every scenario seed, interleaving and corpus byte derives
    /// from it.
    pub seed: u64,
    /// Processes per scenario.
    pub processes: usize,
    /// Operations per process (consensus scenarios are capped at one).
    pub ops_per_process: usize,
    /// Directory failing traces (full + shrunk minimal) are written to;
    /// `None` keeps the sweep in memory.
    pub corpus_dir: Option<PathBuf>,
}

impl FuzzConfig {
    /// A sweep of `scenarios` scenarios at the default shape (4 processes,
    /// 25 operations each).
    pub fn new(scenarios: usize, seed: u64) -> Self {
        FuzzConfig {
            scenarios,
            seed,
            processes: 4,
            ops_per_process: 25,
            corpus_dir: None,
        }
    }

    /// The pinned quick CI budget: 24 scenarios, 3 processes, 12 operations
    /// each — small enough for a smoke job, large enough that every nemesis
    /// (and several injected-fault scenarios) appears.
    pub fn quick(seed: u64) -> Self {
        FuzzConfig {
            scenarios: 24,
            seed,
            processes: 3,
            ops_per_process: 12,
            corpus_dir: None,
        }
    }

    /// Replaces the scenario count (builder style).
    pub fn with_scenarios(mut self, scenarios: usize) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Writes failing traces under `dir` (builder style).
    pub fn with_corpus(mut self, dir: impl Into<PathBuf>) -> Self {
        self.corpus_dir = Some(dir.into());
        self
    }
}

/// What one scenario of a sweep did.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Index within the sweep.
    pub index: usize,
    /// The scenario label (`kind/generator/nemesis`).
    pub label: String,
    /// Whether a violation was expected (a fault-injecting nemesis ran).
    pub expected: bool,
    /// Whether the checker found a violation.
    pub violated: bool,
    /// Events in the recorded history.
    pub events: usize,
    /// Complete operations in the shrunk minimal witness (violations only).
    pub minimal_ops: Option<usize>,
    /// Operations removed by shrinking (violations only).
    pub removed: Option<usize>,
    /// Corpus file of the full failing trace, when written.
    pub trace_file: Option<String>,
    /// Corpus file of the shrunk minimal trace, when written.
    pub minimal_file: Option<String>,
    /// Corpus file of the witness's forensic explanation, when written.
    pub explain_file: Option<String>,
    /// Wall time of the scenario (run, check and shrink), in nanoseconds.
    /// The only non-deterministic field: verdicts and corpus bytes stay a
    /// pure function of the config.
    pub wall_ns: u64,
}

impl ScenarioResult {
    /// An expected violation that was found and shrunk.
    pub fn caught(&self) -> bool {
        self.expected && self.violated
    }

    /// An expected violation the checker failed to find.
    pub fn missed(&self) -> bool {
        self.expected && !self.violated
    }

    /// A violation where none was expected (a monitor-stack bug).
    pub fn unexpected(&self) -> bool {
        !self.expected && self.violated
    }
}

/// The one-screen report of a sweep.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The sweep's master seed.
    pub seed: u64,
    /// Per-scenario results, in index order.
    pub results: Vec<ScenarioResult>,
    /// Wall time of the whole sweep, in nanoseconds.
    pub wall_ns: u64,
}

impl FuzzReport {
    /// Expected violations found and shrunk.
    pub fn caught(&self) -> usize {
        self.results.iter().filter(|r| r.caught()).count()
    }

    /// Expected violations the checker failed to find.
    pub fn missed(&self) -> usize {
        self.results.iter().filter(|r| r.missed()).count()
    }

    /// Violations where none was expected.
    pub fn unexpected(&self) -> usize {
        self.results.iter().filter(|r| r.unexpected()).count()
    }

    /// `true` when every injected fault was caught and nothing else violated —
    /// the sweep's pass condition.
    pub fn all_expected(&self) -> bool {
        self.missed() == 0 && self.unexpected() == 0
    }

    /// Complete operations executed across all scenarios.
    pub fn total_ops(&self) -> u64 {
        // Every recorded event pair (invocation + response) is one operation.
        self.results.iter().map(|r| r.events as u64 / 2).sum()
    }

    /// Renders the one-screen scenario report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let clean = self
            .results
            .iter()
            .filter(|r| !r.expected && !r.violated)
            .count();
        let _ = writeln!(
            out,
            "linrv fuzz: seed {}, {} scenarios — {} caught and shrunk, {} missed, \
             {} unexpected, {} clean",
            self.seed,
            self.results.len(),
            self.caught(),
            self.missed(),
            self.unexpected(),
            clean,
        );
        for r in &self.results {
            if r.violated {
                let _ = writeln!(
                    out,
                    "  #{:04} {:<40} VIOLATION: {} events -> {} ops minimal ({} removed) in {}{}",
                    r.index,
                    r.label,
                    r.events,
                    r.minimal_ops.unwrap_or(0),
                    r.removed.unwrap_or(0),
                    fmt_wall(r.wall_ns),
                    if r.expected { "" } else { "  ** UNEXPECTED **" },
                );
            } else if r.missed() {
                let _ = writeln!(
                    out,
                    "  #{:04} {:<40} MISSED injected fault in {}",
                    r.index,
                    r.label,
                    fmt_wall(r.wall_ns),
                );
            }
        }
        let ops = self.total_ops();
        let seconds = (self.wall_ns as f64 / 1e9).max(1e-9);
        let mut footer = format!(
            "  {ops} ops in {} — {:.0} ops/sec",
            fmt_wall(self.wall_ns),
            ops as f64 / seconds,
        );
        if let Some(slowest) = self.results.iter().max_by_key(|r| r.wall_ns) {
            let _ = write!(
                footer,
                " (slowest: #{:04} {} in {})",
                slowest.index,
                slowest.label,
                fmt_wall(slowest.wall_ns),
            );
        }
        let _ = writeln!(out, "{footer}");
        out
    }
}

/// Renders nanoseconds as a compact human duration.
fn fmt_wall(ns: u64) -> String {
    if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn write_trace(
    path: &Path,
    scenario: &Scenario,
    provenance: Provenance,
    history: &History,
) -> io::Result<()> {
    let header = TraceHeader::new(scenario.kind.object_kind())
        .with_seed(scenario.seed)
        .with_processes(scenario.processes as u32)
        .with_ops_per_process(scenario.ops_per_process as u32)
        .with_implementation("scenario-engine")
        .with_scenario(scenario.label())
        .with_provenance(provenance);
    let mut writer = TraceWriter::new(File::create(path)?, TraceFormat::Jsonl, &header)
        .map_err(io::Error::other)?;
    for event in history.events() {
        writer.event(event).map_err(io::Error::other)?;
    }
    writer.finish().map_err(io::Error::other)?;
    Ok(())
}

fn corpus_files(
    dir: &Path,
    scenario: &Scenario,
    outcome: &RunOutcome,
    shrunk: &ShrinkOutcome,
) -> io::Result<(String, String, Option<String>)> {
    let slug = scenario.label().replace('/', "-");
    let full = format!("scenario-{:04}-{slug}.jsonl", scenario.index);
    let minimal = format!("scenario-{:04}-{slug}-minimal.jsonl", scenario.index);
    // Injected-fault traces are known faulty; anything else violating is a
    // finding whose provenance the sweep cannot vouch for.
    let provenance = if scenario.expect_violation() {
        Provenance::Faulty
    } else {
        Provenance::Unknown
    };
    write_trace(&dir.join(&full), scenario, provenance, &outcome.history)?;
    write_trace(&dir.join(&minimal), scenario, provenance, &shrunk.history)?;
    // A witness without a "why" is half a bug report: explain the minimal
    // trace (deterministically — the sweep's byte-identity contract covers
    // these files too) and drop the report and certificate next to it.
    let explain_file = match explain(outcome.kind, &shrunk.history) {
        Some(explanation) => {
            let report = format!("scenario-{:04}-{slug}-minimal.explain.txt", scenario.index);
            let cert = format!("scenario-{:04}-{slug}-minimal.cert.json", scenario.index);
            std::fs::write(dir.join(&report), render_report(&explanation))?;
            std::fs::write(dir.join(&cert), render_cert(&explanation))?;
            Some(report)
        }
        None => None,
    };
    Ok((full, minimal, explain_file))
}

/// Runs the whole sweep: derive, execute, check, shrink failures, write the
/// corpus. Deterministic per config — same seed, same report, byte-identical
/// corpus files.
///
/// # Errors
///
/// Returns the first I/O error hit while writing corpus files.
pub fn run_sweep(config: &FuzzConfig) -> io::Result<FuzzReport> {
    if let Some(dir) = &config.corpus_dir {
        std::fs::create_dir_all(dir)?;
    }
    let shape = SweepShape {
        processes: config.processes,
        ops_per_process: config.ops_per_process,
    };
    let sweep_started = std::time::Instant::now();
    let mut results = Vec::with_capacity(config.scenarios);
    for index in 0..config.scenarios {
        let started = std::time::Instant::now();
        let scenario = Scenario::derive(config.seed, index, shape);
        let outcome = run_scenario(&scenario);
        let mut result = ScenarioResult {
            index,
            label: outcome.label.clone(),
            expected: scenario.expect_violation(),
            violated: outcome.violated(),
            events: outcome.history.len(),
            minimal_ops: None,
            removed: None,
            trace_file: None,
            minimal_file: None,
            explain_file: None,
            wall_ns: 0,
        };
        if outcome.violated() {
            let shrunk = shrink(outcome.kind, &outcome.history);
            result.minimal_ops = Some(shrunk.history.complete_operations().count());
            result.removed = Some(shrunk.removed);
            if let Some(dir) = &config.corpus_dir {
                let (full, minimal, explain) = corpus_files(dir, &scenario, &outcome, &shrunk)?;
                result.trace_file = Some(full);
                result.minimal_file = Some(minimal);
                result.explain_file = explain;
            }
        }
        result.wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        results.push(result);
    }
    Ok(FuzzReport {
        seed: config.seed,
        results,
        wall_ns: u64::try_from(sweep_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_forensics::is_locally_minimal;

    #[test]
    fn quick_sweeps_catch_every_injected_fault_and_nothing_else() {
        let report = run_sweep(&FuzzConfig::quick(42)).unwrap();
        assert_eq!(report.results.len(), 24);
        assert!(
            report.caught() >= 1,
            "quick budget must include inject scenarios"
        );
        assert!(
            report.all_expected(),
            "missed {} / unexpected {}:\n{}",
            report.missed(),
            report.unexpected(),
            report.render()
        );
    }

    #[test]
    fn shrunk_witnesses_are_locally_minimal() {
        let report = run_sweep(&FuzzConfig::quick(7)).unwrap();
        let shape = SweepShape {
            processes: 3,
            ops_per_process: 12,
        };
        for result in report.results.iter().filter(|r| r.violated) {
            let scenario = Scenario::derive(7, result.index, shape);
            let outcome = run_scenario(&scenario);
            let shrunk = shrink(outcome.kind, &outcome.history);
            assert!(
                is_locally_minimal(outcome.kind, &shrunk.history),
                "scenario #{} not locally minimal",
                result.index
            );
            assert_eq!(
                Some(shrunk.history.complete_operations().count()),
                result.minimal_ops
            );
        }
    }

    #[test]
    fn reports_render_one_line_per_violation() {
        let report = run_sweep(&FuzzConfig::quick(3).with_scenarios(10)).unwrap();
        let rendered = report.render();
        assert!(rendered.starts_with("linrv fuzz: seed 3, 10 scenarios"));
        assert_eq!(
            rendered.matches("VIOLATION").count(),
            report.results.iter().filter(|r| r.violated).count()
        );
    }
}
