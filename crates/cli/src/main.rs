//! `linrv` — record, replay and offline-check linearizability traces.
//!
//! The command-line face of the trace subsystem: seeded workloads become
//! portable traces (`gen`, `record`), traces become verdicts (`check`), and
//! the two on-disk encodings interconvert losslessly (`convert`). The whole
//! pipeline composes over pipes:
//!
//! ```text
//! linrv gen --kind queue --seed 42 | linrv check            # exit 0
//! linrv gen --kind stack --faulty --seed 42 | linrv check   # exit 1 + certificate
//! ```

mod args;
mod check_cmd;
mod convert;
mod explain_cmd;
mod fuzz_cmd;
mod genrec;
mod io;
mod stats;

use std::process::ExitCode;

/// Why a command did not finish; `main` reports each kind its own way.
#[derive(Debug)]
pub(crate) enum Failure {
    /// A malformed command line: the message, then where the usage is.
    Usage(String),
    /// An i/o or malformed-trace error: the message alone.
    Error(String),
    /// The reader of the trace output closed its end (`linrv gen | head`):
    /// nothing is left to do, and the command exits 0 without a word.
    ReaderGone,
}

impl Failure {
    pub(crate) fn usage(message: impl Into<String>) -> Self {
        Failure::Usage(message.into())
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Error(message)
    }
}

const USAGE: &str = "\
linrv — record, replay and offline-check linearizability traces

USAGE:
    linrv gen     --kind <kind> [--seed N] [--processes N] [--ops N]
                  [--mix A,B[,C]] [--keys N] [--skew X] [--stats[=FILE]]
                  [--faulty] [--every K] [--format jsonl|binary] [--out FILE]
        Generate a trace from a seeded workload executed by the sequential
        specification (or, with --faulty, the kind's fault injector).
        --mix sets the kind's operation-class weights, --keys the key range
        and --skew a hot-key exponent (0 = uniform). Bit-for-bit
        deterministic per --seed.

    linrv record  (same flags as gen)
        Record an execution of the canonical concurrent implementation for
        the kind (Michael–Scott queue, Treiber stack, ...), deterministically
        scheduled. Bit-for-bit deterministic per --seed.

    linrv check   [FILE] [--quiet] [--explain] [--stats[=FILE]]
        Stream a trace (file or stdin) into the linearizability checker.
        Exit 0: linearizable. Exit 1: violation, certificate on stderr.
        With --explain, a violation is additionally shrunk, diagnosed and
        rendered as a forensic report on stderr (see explain).

        --stats records runtime metrics (re-check latency, DRV timings, ...)
        and prints a one-screen report to stderr; --stats=FILE writes the
        snapshot instead (.prom/.txt: Prometheus text, otherwise JSON).
        Also accepted by gen, record, explain and fuzz.

    linrv explain [FILE] [--quiet] [--html FILE] [--cert FILE] [--stats[=FILE]]
        Explain why a trace (file or stdin) is not linearizable: shrink it to
        a locally minimal witness, tighten the surviving operation windows,
        name the bad pattern behind the violation, compute the nearest
        single-edit fix and print an ASCII timeline report to stdout.
        --html writes a self-contained HTML timeline, --cert a
        schema-versioned linrv-cert/1 JSON certificate (see CERT.md).
        Exit 0: linearizable (nothing to explain). Exit 1: report printed.

    linrv convert --to jsonl|binary [--in FILE] [--out FILE]
        Re-encode a trace, streaming; header and events are preserved.

    linrv fuzz    [--scenarios N] [--seed N] [--quick] [--processes N]
                  [--ops N] [--corpus DIR] [--stats[=FILE]]
        Sweep N seeded scenarios (generator x nemesis x kind) through the
        checker, shrink every failing trace to a locally minimal witness and
        print a one-screen report. With --corpus, write failing traces (full
        and shrunk) as JSONL under DIR. Bit-for-bit deterministic per --seed.
        Exit 0 when every injected fault was caught and nothing else violated.

KINDS:
    queue, stack, set, priority-queue, counter, register, consensus

EXIT STATUS:
    0 success (for check: the trace is linearizable); also gen, record and
      convert whose output's reader closed the pipe early (`| head`): they
      stop writing and exit quietly
    1 check found a violation
    2 usage, i/o or malformed-trace error
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(Failure::Usage(message)) => {
            eprintln!("linrv: error: {message}");
            eprintln!("run `linrv --help` for usage");
            ExitCode::from(2)
        }
        Err(Failure::Error(message)) => {
            eprintln!("linrv: error: {message}");
            ExitCode::from(2)
        }
        Err(Failure::ReaderGone) => ExitCode::SUCCESS,
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, Failure> {
    let Some(command) = argv.first() else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        "gen" => {
            let parsed = args::parse(rest, GEN_SWITCHES, GEN_OPTIONS)?;
            genrec::run(&parsed, genrec::Source::Specification)
        }
        "record" => {
            let parsed = args::parse(rest, GEN_SWITCHES, GEN_OPTIONS)?;
            genrec::run(&parsed, genrec::Source::Implementation)
        }
        "check" => {
            let parsed = args::parse(rest, &["quiet", "stats", "explain"], &["stats"])?;
            check_cmd::run(&parsed)
        }
        "explain" => {
            let parsed = args::parse(rest, &["quiet", "stats"], &["html", "cert", "stats"])?;
            explain_cmd::run(&parsed)
        }
        "convert" => {
            let parsed = args::parse(rest, &[], &["to", "in", "out"])?;
            convert::run(&parsed)
        }
        "fuzz" => {
            let parsed = args::parse(rest, FUZZ_SWITCHES, FUZZ_OPTIONS)?;
            fuzz_cmd::run(&parsed)
        }
        other => Err(Failure::usage(format!("unknown command {other:?}"))),
    }
}

const GEN_SWITCHES: &[&str] = &["faulty", "stats"];
const GEN_OPTIONS: &[&str] = &[
    "kind",
    "seed",
    "processes",
    "ops",
    "every",
    "format",
    "out",
    "mix",
    "keys",
    "skew",
    "stats",
];
const FUZZ_SWITCHES: &[&str] = &["quick", "stats"];
const FUZZ_OPTIONS: &[&str] = &["scenarios", "seed", "corpus", "processes", "ops", "stats"];
