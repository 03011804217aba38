//! Golden-trace corpus regression tests.
//!
//! The files under `tests-integration/traces/` were generated once with
//! `linrv gen` at fixed seeds (one correct + one faulty trace per object kind)
//! and committed. They pin three things at once: the on-disk format (a codec
//! change that cannot read them is a format break and must bump the version),
//! the deterministic generator (regenerating from a trace's own header must
//! reproduce its bytes — `crates/cli/tests/cli.rs` runs `linrv gen` to pin
//! that) and the verdicts (correct traces accept, faulty traces reject, on
//! every path: `tests/verdict_matrix.rs` checks each header's provenance).

use linrv_history::History;
use linrv_spec::ObjectKind;
use linrv_trace::{read_history, write_history, TraceFormat, TraceHeader};
use std::path::PathBuf;
use tests_integration::{golden_traces, is_shrunk};

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces")
}

/// The per-kind correct/faulty traces directly under `traces/`.
fn per_kind_traces() -> impl Iterator<Item = (PathBuf, TraceHeader, History)> {
    golden_traces()
        .into_iter()
        .filter(|(path, ..)| !is_shrunk(path))
}

#[test]
fn corpus_has_one_correct_and_one_faulty_trace_per_kind() {
    for kind in ObjectKind::ALL {
        for suffix in ["correct", "faulty"] {
            let path = traces_dir().join(format!("{kind}-{suffix}.jsonl"));
            assert!(path.is_file(), "missing golden trace {}", path.display());
        }
    }
}

#[test]
fn golden_traces_convert_losslessly_between_both_encodings() {
    for (path, header, history) in per_kind_traces() {
        let original_bytes = std::fs::read(&path).expect("read trace");

        // jsonl → binary → History: identical logical content.
        let mut binary = Vec::new();
        write_history(&mut binary, TraceFormat::Binary, &header, &history).unwrap();
        let (header2, history2) = read_history(binary.as_slice()).unwrap();
        assert_eq!(header2, header, "{}", path.display());
        assert_eq!(history2, history, "{}", path.display());
        assert!(
            binary.len() < original_bytes.len(),
            "{}: the binary encoding should be denser",
            path.display()
        );

        // binary → jsonl: byte-identical to the committed file (the encoder is
        // canonical, so conversion round-trips exactly).
        let mut jsonl = Vec::new();
        write_history(&mut jsonl, TraceFormat::Jsonl, &header2, &history2).unwrap();
        assert_eq!(
            jsonl,
            original_bytes,
            "{}: jsonl→binary→jsonl must be byte-identical",
            path.display()
        );
    }
}

#[test]
fn golden_histories_are_well_formed_and_complete() {
    for (path, header, history) in per_kind_traces() {
        assert!(history.is_well_formed(), "{}", path.display());
        assert_eq!(
            history.pending_operations().count(),
            0,
            "{}: scheduled runs complete every operation",
            path.display()
        );
        let processes = header.processes.expect("corpus records process count");
        assert_eq!(
            history.processes().len(),
            processes as usize,
            "{}",
            path.display()
        );
    }
}
