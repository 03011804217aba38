//! Cross-crate integration and property tests for the `linrv` workspace.
//!
//! The actual tests live under `tests/`; this library only hosts small shared helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use linrv_history::{History, ProcessId};
use linrv_trace::{read_history, TraceHeader};
use std::fs::File;
use std::path::{Path, PathBuf};

/// Shorthand used across the integration tests.
pub fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// The committed golden corpus: `(path, header, history)` of every `.jsonl` trace
/// under `traces/` (one correct and one faulty trace per object kind) and
/// `traces/shrunk/` (minimal fuzz witnesses), in path order.
///
/// # Panics
///
/// Panics when a directory or a trace cannot be read: a corpus entry that does
/// not parse is a format break.
pub fn golden_traces() -> Vec<(PathBuf, TraceHeader, History)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let mut paths: Vec<PathBuf> = [root.clone(), root.join("shrunk")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("golden trace directory"))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let file = File::open(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            let (header, history) =
                read_history(file).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            (path, header, history)
        })
        .collect()
}

/// Whether a golden trace is a shrunk fuzz witness (lives under `traces/shrunk/`).
pub fn is_shrunk(path: &Path) -> bool {
    path.parent().is_some_and(|dir| dir.ends_with("shrunk"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_builds_process_ids() {
        assert_eq!(super::p(3).index(), 3);
    }
}
