//! The `fuzz` subcommand: sweep seeded scenarios through the checker, shrink
//! every failure to a locally minimal witness, print a one-screen report.
//!
//! A sweep is bit-for-bit deterministic per `--seed`: the same seed derives
//! the same scenarios (generator × nemesis × kind), records the same
//! histories, and writes byte-identical corpus files. Exit status is the
//! sweep's pass condition — every injected fault caught, nothing else
//! violating — so the command doubles as a CI smoke gate.

use crate::args::Parsed;
use crate::Failure;
use linrv_scenario::{run_sweep, FuzzConfig};
use std::process::ExitCode;

pub(crate) fn run(parsed: &Parsed) -> Result<ExitCode, Failure> {
    if !parsed.positionals().is_empty() {
        return Err(Failure::usage(
            "fuzz takes no positional arguments (use --corpus DIR)",
        ));
    }
    let seed: u64 = parsed.get_or("seed", 0)?;
    let mut config = if parsed.has("quick") {
        FuzzConfig::quick(seed)
    } else {
        FuzzConfig::new(32, seed)
    };
    config.scenarios = parsed.get_or("scenarios", config.scenarios)?;
    config.processes = parsed.get_or("processes", config.processes)?;
    config.ops_per_process = parsed.get_or("ops", config.ops_per_process)?;
    if config.scenarios == 0 || config.processes == 0 || config.ops_per_process == 0 {
        return Err(Failure::usage(
            "--scenarios, --processes and --ops must be positive",
        ));
    }
    if let Some(dir) = parsed.get("corpus") {
        config = config.with_corpus(dir);
    }
    let stats = crate::stats::init(parsed);
    let report = run_sweep(&config).map_err(|err| format!("cannot write corpus: {err}"))?;
    print!("{}", report.render());
    if let Some(stats) = &stats {
        stats.emit()?;
    }
    if report.all_expected() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}
