//! Forensics pipeline regression tests: golden explain reports and
//! certificates, plus property tests of the minimization contract.
//!
//! The `.explain.txt` / `.cert.json` files next to each violating golden
//! trace were produced once by `linrv_forensics::explain` and committed; the
//! tests here re-derive them and compare byte-for-byte, pinning the whole
//! pipeline (ddmin order, narrowing guard, diagnosis wording, JSON field
//! order) at once. After an intentional output change, regenerate them with
//! `LINRV_BLESS=1 cargo test -p tests-integration --test forensics`.

use linrv_forensics::{explain, is_locally_minimal, render_cert, render_report, Explanation};
use linrv_history::{History, HistoryBuilder, OpValue, ProcessId};
use linrv_spec::{ops::queue, ObjectKind};
use linrv_trace::read_history;
use proptest::prelude::*;
use std::fs::File;
use std::path::{Path, PathBuf};
use tests_integration::{golden_traces, is_shrunk};

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces")
}

/// Compares `actual` against the committed golden file, or rewrites the
/// golden when `LINRV_BLESS` is set.
fn golden_compare(path: &Path, actual: &str) {
    if std::env::var_os("LINRV_BLESS").is_some() {
        std::fs::write(path, actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; generate it with LINRV_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "golden mismatch at {} (re-bless with LINRV_BLESS=1 if intended)",
        path.display()
    );
}

fn load(path: &Path) -> (ObjectKind, History) {
    let file = File::open(path).unwrap_or_else(|err| panic!("open {}: {err}", path.display()));
    let (header, history) = read_history(file).expect("golden trace must parse");
    (header.kind, history)
}

fn must_explain(path: &Path, kind: ObjectKind, history: &History) -> Explanation {
    explain(kind, history)
        .unwrap_or_else(|| panic!("{} must explain as a violation", path.display()))
}

fn explain_trace(path: &Path) -> Explanation {
    let (kind, history) = load(path);
    must_explain(path, kind, &history)
}

/// Every violating golden trace (the per-kind faulty traces and the shrunk
/// fuzz witnesses) explains to the committed report and certificate bytes.
#[test]
fn golden_explanations_are_byte_pinned() {
    let violating: Vec<_> = golden_traces()
        .into_iter()
        .filter(|(path, ..)| is_shrunk(path) || path.to_string_lossy().ends_with("-faulty.jsonl"))
        .collect();
    assert!(
        violating.len() >= 10,
        "7 faulty + >=3 shrunk traces expected"
    );
    for (path, header, history) in violating {
        let explanation = must_explain(&path, header.kind, &history);
        golden_compare(
            &path.with_extension("explain.txt"),
            &render_report(&explanation),
        );
        golden_compare(
            &path.with_extension("cert.json"),
            &render_cert(&explanation),
        );
    }
}

/// The explanation's witness keeps the violation and is locally minimal, and
/// kinds with a specialized monitor diagnose to a named bad pattern (the
/// general search attaches its frontier instead).
#[test]
fn golden_explanations_carry_minimal_witnesses_and_diagnoses() {
    for kind in ObjectKind::ALL {
        let path = traces_dir().join(format!("{kind}-faulty.jsonl"));
        let explanation = explain_trace(&path);
        assert!(
            is_locally_minimal(kind, &explanation.witness),
            "{kind}: witness must be locally minimal"
        );
        assert!(
            explanation.pattern.is_some() || explanation.frontier.is_some(),
            "{kind}: diagnosis must name a pattern or report the search frontier"
        );
        assert!(
            explanation.fix.is_some(),
            "{kind}: locally minimal witnesses always admit a single-edit fix"
        );
        let report = render_report(&explanation);
        assert!(report.starts_with(&format!("violation ({kind})")));
        let cert = render_cert(&explanation);
        assert!(cert.contains("\"schema\": \"linrv-cert/1\""));
    }
}

/// Shrunk fuzz witnesses are fixed points of the pipeline's minimizer: no
/// operation is removed when they are explained again.
#[test]
fn shrunk_witnesses_are_minimization_fixed_points() {
    for (path, header, history) in golden_traces() {
        if !is_shrunk(&path) {
            continue;
        }
        let explanation = must_explain(&path, header.kind, &history);
        assert_eq!(
            explanation.removed,
            0,
            "{}: already minimal, nothing to remove",
            path.display()
        );
    }
}

/// A queue history with `noise` removable enqueue/dequeue pairs around one
/// seeded never-enqueued dequeue, spread over `processes` processes.
fn noisy_failing_queue(noise: usize, processes: u32, bug_value: i64) -> History {
    let mut b = HistoryBuilder::new();
    for i in 0..noise {
        let p = ProcessId::new(i as u32 % processes);
        b.complete(p, queue::enqueue(1000 + i as i64), OpValue::Bool(true));
        b.complete(p, queue::dequeue(), OpValue::Int(1000 + i as i64));
    }
    b.complete(ProcessId::new(0), queue::dequeue(), OpValue::Int(bug_value));
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pipeline contract on arbitrary noisy inputs: the witness still
    /// violates, is locally minimal, and the whole explanation (witness
    /// bytes, report, certificate) is deterministic.
    #[test]
    fn explain_minimizes_deterministically(
        noise in 0usize..10,
        processes in 1u32..4,
        bug_value in -5i64..0,
    ) {
        let history = noisy_failing_queue(noise, processes, bug_value);
        let a = explain(ObjectKind::Queue, &history).expect("seeded violation");
        prop_assert!(explain(ObjectKind::Queue, &a.witness).is_some(),
            "witness must still violate");
        prop_assert!(is_locally_minimal(ObjectKind::Queue, &a.witness));
        prop_assert_eq!(a.pattern.as_ref().expect("specialized kind").name, "never-added");

        let b = explain(ObjectKind::Queue, &history).expect("seeded violation");
        prop_assert_eq!(a.witness.events(), b.witness.events());
        prop_assert_eq!(render_report(&a), render_report(&b));
        prop_assert_eq!(render_cert(&a), render_cert(&b));
    }

    /// Narrowing never un-violates: the narrowed witness's real-time order
    /// extends the shrunk one's (checked indirectly — the witness of the
    /// pipeline never has more events than the ddmin result).
    #[test]
    fn members_never_explain(ops in proptest::collection::vec(1i64..50, 1..12)) {
        let mut b = HistoryBuilder::new();
        let p = ProcessId::new(0);
        for &v in &ops {
            b.complete(p, queue::enqueue(v), OpValue::Bool(true));
        }
        for &v in &ops {
            b.complete(p, queue::dequeue(), OpValue::Int(v));
        }
        prop_assert!(explain(ObjectKind::Queue, &b.build()).is_none());
    }
}
