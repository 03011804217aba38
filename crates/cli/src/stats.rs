//! `--stats[=FILE]` support shared by the `check`, `gen`/`record` and `fuzz`
//! subcommands.
//!
//! `--stats` turns metric recording on for the run, declares every family the
//! workspace instruments (DRV core, session facade, streaming checker, pool)
//! so exports list them even when the command exercises only some layers, and
//! at the end prints the one-screen report to stderr — or, with `=FILE`,
//! writes the snapshot to disk (Prometheus text for `.prom`/`.txt`, the JSON
//! document otherwise).

use crate::args::Parsed;
use linrv_obs::Registry;
use std::path::Path;

/// The armed `--stats` state of one command run.
pub(crate) struct Stats {
    /// Snapshot destination; `None` prints the human report to stderr.
    out: Option<String>,
}

/// Arms metric collection when `--stats[=FILE]` was given; `None` otherwise.
pub(crate) fn init(parsed: &Parsed) -> Option<Stats> {
    let out = parsed.get("stats").map(str::to_string);
    if out.is_none() && !parsed.has("stats") {
        return None;
    }
    linrv_obs::set_enabled(true);
    linrv_core::metrics::declare();
    linrv::metrics::declare();
    linrv_check::metrics::declare();
    linrv_forensics::metrics::declare();
    linrv_pool::metrics::declare();
    Some(Stats { out })
}

impl Stats {
    /// Emits the final snapshot: the report to stderr, or the file given as
    /// `--stats=FILE`.
    pub(crate) fn emit(&self) -> Result<(), String> {
        let snapshot = Registry::global().snapshot();
        match &self.out {
            None => eprint!("{}", snapshot.render_report()),
            Some(path) => {
                snapshot
                    .write_file(Path::new(path))
                    .map_err(|err| format!("cannot write metrics to {path}: {err}"))?;
                eprintln!("linrv: metrics snapshot written to {path}");
            }
        }
        Ok(())
    }
}
