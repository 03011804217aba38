//! End-to-end tests of the `linrv` binary: the record → check pipeline, exit
//! codes, determinism and lossless conversion.

use linrv_trace::{Provenance, TraceReader};
use std::path::PathBuf;
use std::process::{Command, Output};

fn linrv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_linrv"))
        .args(args)
        .output()
        .expect("failed to spawn linrv")
}

fn linrv_with_stdin(args: &[&str], stdin: &[u8]) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_linrv"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn linrv");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin)
        .expect("write stdin");
    child.wait_with_output().expect("wait for linrv")
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("linrv-cli-test-{}-{name}", std::process::id()));
    path
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("terminated by signal")
}

#[test]
fn gen_to_check_pipeline_is_exit_0_for_correct_and_1_for_faulty() {
    for kind in [
        "queue",
        "stack",
        "set",
        "priority-queue",
        "counter",
        "register",
        "consensus",
    ] {
        for command in ["gen", "record"] {
            let trace = linrv(&[command, "--kind", kind, "--seed", "42"]);
            assert_eq!(exit_code(&trace), 0, "{command} {kind} failed");
            let verdict = linrv_with_stdin(&["check"], &trace.stdout);
            assert_eq!(exit_code(&verdict), 0, "{command} {kind} should check OK");

            let trace = linrv(&[command, "--kind", kind, "--seed", "42", "--faulty"]);
            assert_eq!(exit_code(&trace), 0, "faulty {command} {kind} failed");
            let verdict = linrv_with_stdin(&["check"], &trace.stdout);
            assert_eq!(
                exit_code(&verdict),
                1,
                "faulty {command} {kind} must be a violation"
            );
            let stderr = String::from_utf8_lossy(&verdict.stderr);
            assert!(
                stderr.contains("certificate"),
                "violation must print a certificate, got: {stderr}"
            );
        }
    }
}

#[test]
fn single_process_faulty_consensus_is_still_caught_and_header_is_honest() {
    // Consensus workloads are one-shot: the header must record the capped op
    // count, and the corruption period must be clamped into the tiny run so
    // --faulty actually produces a violation.
    let trace = linrv(&["gen", "--kind", "consensus", "--processes", "1", "--faulty"]);
    assert_eq!(exit_code(&trace), 0);
    let stdout = String::from_utf8_lossy(&trace.stdout);
    assert!(
        stdout.contains("\"ops_per_process\":1"),
        "header must record what actually ran, got: {}",
        stdout.lines().next().unwrap_or_default()
    );
    let verdict = linrv_with_stdin(&["check"], &trace.stdout);
    assert_eq!(exit_code(&verdict), 1);
}

#[test]
fn gen_and_record_are_bit_for_bit_deterministic_per_seed() {
    for command in ["gen", "record"] {
        let a = linrv(&[
            command, "--kind", "queue", "--seed", "7", "--format", "binary",
        ]);
        let b = linrv(&[
            command, "--kind", "queue", "--seed", "7", "--format", "binary",
        ]);
        assert_eq!(exit_code(&a), 0);
        assert_eq!(a.stdout, b.stdout, "{command} must be deterministic");
        let c = linrv(&[
            command, "--kind", "queue", "--seed", "8", "--format", "binary",
        ]);
        assert_ne!(a.stdout, c.stdout, "{command} must vary with the seed");
    }
}

#[test]
fn convert_round_trips_losslessly_and_check_agrees_on_both_encodings() {
    let jsonl = temp_path("rt.jsonl");
    let binary = temp_path("rt.bin");
    let back = temp_path("rt2.jsonl");
    let gen = linrv(&[
        "gen",
        "--kind",
        "register",
        "--seed",
        "3",
        "--faulty",
        "--out",
        jsonl.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&gen), 0);
    let to_bin = linrv(&[
        "convert",
        "--to",
        "binary",
        "--in",
        jsonl.to_str().unwrap(),
        "--out",
        binary.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&to_bin), 0);
    let to_jsonl = linrv(&[
        "convert",
        "--to",
        "jsonl",
        "--in",
        binary.to_str().unwrap(),
        "--out",
        back.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&to_jsonl), 0);
    let original = std::fs::read(&jsonl).unwrap();
    let round_tripped = std::fs::read(&back).unwrap();
    assert_eq!(
        original, round_tripped,
        "jsonl → binary → jsonl must be lossless"
    );

    // Both encodings get the same verdict.
    assert_eq!(exit_code(&linrv(&["check", jsonl.to_str().unwrap()])), 1);
    assert_eq!(exit_code(&linrv(&["check", binary.to_str().unwrap()])), 1);

    for path in [jsonl, binary, back] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn gen_mix_flags_shape_the_workload_and_tag_the_header() {
    // A pure-enqueue mix: the trace records the shaping and stays correct.
    let skewed = linrv(&[
        "gen", "--kind", "queue", "--seed", "5", "--mix", "1,0", "--keys", "4", "--skew", "1.5",
    ]);
    assert_eq!(exit_code(&skewed), 0);
    let text = String::from_utf8_lossy(&skewed.stdout);
    assert!(
        text.contains("\"scenario\":\"mix=1,0,0/keys=4/skew=1.5\""),
        "non-default mixes must be recorded in the header, got: {}",
        text.lines().next().unwrap_or_default()
    );
    assert!(!text.contains("Dequeue"), "--mix 1,0 is enqueue-only");
    assert_eq!(exit_code(&linrv_with_stdin(&["check"], &skewed.stdout)), 0);

    // Without the flags the header carries no scenario: the default mix is
    // byte-for-byte the historical one (also pinned by the golden corpus).
    let plain = linrv(&["gen", "--kind", "queue", "--seed", "5"]);
    assert!(!String::from_utf8_lossy(&plain.stdout).contains("\"scenario\""));
}

#[test]
fn fuzz_quick_catches_and_shrinks_deterministically() {
    let dir_a = temp_path("fuzz-a");
    let dir_b = temp_path("fuzz-b");
    let run = |dir: &std::path::Path| {
        linrv(&[
            "fuzz",
            "--quick",
            "--seed",
            "42",
            "--corpus",
            dir.to_str().unwrap(),
        ])
    };
    let a = run(&dir_a);
    // Exit 0: every injected fault was caught and shrunk, nothing else failed.
    assert_eq!(exit_code(&a), 0, "{}", String::from_utf8_lossy(&a.stdout));
    let report = String::from_utf8_lossy(&a.stdout);
    assert!(report.starts_with("linrv fuzz: seed 42, 24 scenarios"));
    assert!(report.contains("caught and shrunk"));
    assert!(report.contains("0 missed, 0 unexpected"));
    assert!(
        report.contains("VIOLATION") && report.contains("minimal"),
        "per-violation shrink lines expected, got: {report}"
    );
    assert!(
        report.contains("ops/sec"),
        "throughput footer expected, got: {report}"
    );

    // Determinism: same verdicts and shrink sizes (wall times are the one
    // non-deterministic part of the report), byte-identical corpus.
    let strip_timings = |raw: &[u8]| -> String {
        String::from_utf8_lossy(raw)
            .lines()
            .filter(|line| !line.contains(" ops/sec"))
            .map(|line| line.rfind(" in ").map_or(line, |at| &line[..at]).to_owned())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let b = run(&dir_b);
    assert_eq!(strip_timings(&a.stdout), strip_timings(&b.stdout));
    let mut names: Vec<String> = std::fs::read_dir(&dir_a)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "violating scenarios must write traces");
    assert!(
        names.iter().any(|n| n.ends_with("-minimal.explain.txt"))
            && names.iter().any(|n| n.ends_with("-minimal.cert.json")),
        "each shrunk witness must come with an explanation and certificate: {names:?}"
    );
    for name in &names {
        // Byte-identity covers the traces AND the forensic companions
        // (explanations and certificates are deterministic by construction).
        assert_eq!(
            std::fs::read(dir_a.join(name)).unwrap(),
            std::fs::read(dir_b.join(name)).unwrap(),
            "corpus file {name} must be byte-identical across runs"
        );
        if !name.ends_with(".jsonl") {
            continue;
        }
        // Every corpus trace is itself a checkable violation: exit 1.
        assert_eq!(
            exit_code(&linrv(&["check", dir_a.join(name).to_str().unwrap()])),
            1,
            "{name} must replay as a violation"
        );
    }
    for dir in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn committed_shrunk_witnesses_check_as_violations() {
    // The shrunk minimal traces committed under tests-integration replay
    // through the CLI with the violation exit code pinned.
    let dir =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests-integration/traces/shrunk");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("shrunk corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        seen += 1;
        let verdict = linrv(&["check", path.to_str().unwrap()]);
        assert_eq!(exit_code(&verdict), 1, "{} must exit 1", path.display());
        let stderr = String::from_utf8_lossy(&verdict.stderr);
        assert!(
            stderr.contains("certificate"),
            "{}: violation must print a certificate",
            path.display()
        );
    }
    assert!(seen >= 2, "expected committed shrunk witnesses");
}

#[test]
fn the_largest_process_id_gets_its_own_label() {
    // "p" accepts any u32; the one-based label of the largest must not wrap
    // to another process's (or panic in a debug build).
    let trace = b"{\"format\":\"linrv-trace\",\"version\":1,\"kind\":\"counter\"}\n\
        {\"e\":\"inv\",\"p\":4294967295,\"id\":0,\"op\":\"Read\",\"arg\":null}\n\
        {\"e\":\"res\",\"p\":4294967295,\"id\":0,\"val\":5}\n";
    let verdict = linrv_with_stdin(&["check"], trace);
    assert_eq!(exit_code(&verdict), 1);
    let stderr = String::from_utf8_lossy(&verdict.stderr);
    assert!(stderr.contains("inv[p4294967296: Read()"), "{stderr}");
}

#[test]
fn golden_traces_regenerate_byte_for_byte_from_their_own_headers() {
    // Each committed trace names its own recipe: `gen` with the header's
    // kind, seed and shape must write the committed bytes back.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests-integration/traces");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("golden corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        seen += 1;
        let committed = std::fs::read(&path).expect("read trace");
        let header = TraceReader::new(committed.as_slice())
            .unwrap_or_else(|err| panic!("{}: {err}", path.display()))
            .header()
            .clone();
        let recorded = |field: Option<u64>, name: &str| {
            field
                .unwrap_or_else(|| panic!("{}: header lacks {name}", path.display()))
                .to_string()
        };
        let kind = header.kind.to_string();
        let seed = recorded(header.seed, "seed");
        let processes = recorded(header.processes.map(u64::from), "processes");
        let ops = recorded(header.ops_per_process.map(u64::from), "ops_per_process");
        let mut args = vec![
            "gen",
            "--kind",
            &kind,
            "--seed",
            &seed,
            "--processes",
            &processes,
            "--ops",
            &ops,
        ];
        if header.provenance == Provenance::Faulty {
            args.push("--faulty");
        }
        let regenerated = linrv(&args);
        assert_eq!(exit_code(&regenerated), 0, "{}", path.display());
        assert!(
            regenerated.stdout == committed,
            "{}: `linrv {}` no longer writes the committed bytes",
            path.display(),
            args.join(" ")
        );
    }
    assert_eq!(seen, 14, "two traces per kind, seven kinds");
}

#[test]
fn errors_exit_2() {
    assert_eq!(exit_code(&linrv(&["frobnicate"])), 2);
    // Removed surface is a usage error, even on a trace that checks clean.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests-integration/traces/queue-correct.jsonl"
    );
    for removed in [&["bench"][..], &["check", "--stride", "8", golden]] {
        let output = linrv(removed);
        assert_eq!(exit_code(&output), 2, "{removed:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("run `linrv --help` for usage"), "{stderr}");
    }
    assert_eq!(exit_code(&linrv(&["gen"])), 2, "missing --kind");
    assert_eq!(exit_code(&linrv(&["fuzz", "--scenarios", "0"])), 2);
    assert_eq!(exit_code(&linrv(&["fuzz", "extra-positional"])), 2);
    assert_eq!(
        exit_code(&linrv(&["gen", "--kind", "queue", "--mix", "0,0"])),
        2,
        "all-zero mix weights"
    );
    assert_eq!(
        exit_code(&linrv(&["gen", "--kind", "queue", "--mix", "0,0,5"])),
        2,
        "a queue samples only the first two classes"
    );
    assert_eq!(
        exit_code(&linrv(&["gen", "--kind", "queue", "--mix", "1"])),
        2,
        "one weight is not a mix"
    );
    assert_eq!(
        exit_code(&linrv(&["gen", "--kind", "queue", "--keys", "0"])),
        2
    );
    assert_eq!(
        exit_code(&linrv(&["gen", "--kind", "queue", "--skew", "-1"])),
        2
    );
    assert_eq!(exit_code(&linrv(&["gen", "--kind", "blob"])), 2);
    assert_eq!(
        exit_code(&linrv(&["gen", "--kind", "queue", "--seed", "x"])),
        2
    );
    // An i/o error is no usage error: no pointer to the usage.
    let missing = linrv(&["check", "/nonexistent/trace.jsonl"]);
    assert_eq!(exit_code(&missing), 2);
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert!(!stderr.contains("--help"), "{stderr}");
    assert_eq!(exit_code(&linrv(&["convert", "--to", "csv"])), 2);
    assert_eq!(exit_code(&linrv_with_stdin(&["check"], b"not a trace")), 2);
    // A truncated trace is a read error, not a silent verdict.
    let trace = linrv(&[
        "gen", "--kind", "queue", "--seed", "1", "--format", "binary",
    ]);
    let truncated = &trace.stdout[..trace.stdout.len() - 2];
    assert_eq!(exit_code(&linrv_with_stdin(&["check"], truncated)), 2);
    assert_eq!(
        exit_code(&linrv(&[])),
        2,
        "no command prints usage, exits 2"
    );
}

#[test]
fn gen_stops_quietly_when_its_reader_closes_the_pipe() {
    use std::io::Read;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_linrv"))
        .args(["gen", "--kind", "queue", "--seed", "1", "--ops", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn linrv");
    let mut head = [0u8; 100];
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_exact(&mut head).expect("the first 100 bytes");
    drop(stdout);
    let output = child.wait_with_output().expect("wait for linrv");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(exit_code(&output), 0, "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn help_exits_0_and_documents_the_pipeline() {
    let help = linrv(&["--help"]);
    assert_eq!(exit_code(&help), 0);
    let text = String::from_utf8_lossy(&help.stdout);
    for needle in ["gen", "record", "check", "convert", "fuzz", "EXIT STATUS"] {
        assert!(text.contains(needle), "help must mention {needle}");
    }
}
