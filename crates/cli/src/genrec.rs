//! The `gen` and `record` subcommands: seeded workload → trace.
//!
//! Both drive the runtime's deterministic scheduled recorder, so a given
//! `--seed` always produces the same bytes. They differ only in which object
//! executes the workload:
//!
//! * `gen` runs the **sequential specification itself** (a lock-based
//!   [`SpecObject`](linrv_runtime::impls::SpecObject)) — pure trace generation,
//!   correct by construction;
//! * `record` runs the **canonical concurrent implementation** for the kind
//!   (Michael–Scott queue, Treiber stack, …) — an actual recorded execution.
//!
//! `--faulty` switches either to the kind's deterministic fault injector, so
//! `linrv gen --faulty | linrv check` demonstrably exits 1.

use crate::args::Parsed;
use crate::io::{describe, open_output, write_failure};
use crate::Failure;
use linrv_runtime::{
    faulty, impls, record_scheduled_controlled, schedule_seed, Mix, NoFaults, OpSource, SourceStep,
    Workload, WorkloadKind, WorkloadSource,
};
use linrv_spec::ObjectKind;
use linrv_trace::{Provenance, SharedTraceWriter, TraceFormat, TraceHeader};
use std::io::Write;
use std::process::ExitCode;

/// Which of the two object families to execute (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// `gen`: the sequential specification behind a lock.
    Specification,
    /// `record`: the canonical concurrent implementation.
    Implementation,
}

/// The workload's operations until a write to `sink` fails: once the reader
/// has closed the pipe, no process starts another operation, and the run ends
/// with the operations already in flight.
struct UntilSinkFails<'a, W: Write + Send> {
    workload: WorkloadSource,
    sink: &'a SharedTraceWriter<W>,
}

impl<W: Write + Send> OpSource for UntilSinkFails<'_, W> {
    fn next_step(&mut self, process: usize) -> Option<SourceStep> {
        if self.sink.has_failed() {
            None
        } else {
            self.workload.next_step(process)
        }
    }
}

/// Parses `--mix A,B[,C]` into `kind`'s operation-class ratio weights; the
/// weights of the classes it samples (the first two, all three for the set)
/// must not all be zero. Consensus samples none, but an all-zero mix is refused.
fn parse_mix_weights(raw: &str, kind: ObjectKind) -> Result<[u32; 3], Failure> {
    let parts: Vec<&str> = raw.split(',').collect();
    if parts.len() < 2 || parts.len() > 3 {
        return Err(Failure::usage(
            "--mix expects two or three comma-separated weights",
        ));
    }
    let mut weights = [0u32; 3];
    for (slot, part) in weights.iter_mut().zip(&parts) {
        *slot = part
            .trim()
            .parse()
            .map_err(|err| Failure::usage(format!("invalid value for --mix: {err}")))?;
    }
    let sampled = match kind {
        ObjectKind::Set | ObjectKind::Consensus => 3,
        _ => 2,
    };
    if weights[..sampled].iter().all(|&w| w == 0) {
        return Err(Failure::usage(format!(
            "--mix: the first {sampled} weights must not all be zero for kind {kind}"
        )));
    }
    Ok(weights)
}

pub(crate) fn run(parsed: &Parsed, source: Source) -> Result<ExitCode, Failure> {
    if !parsed.positionals().is_empty() {
        return Err(Failure::usage(
            "gen/record take no positional arguments (use --out FILE)",
        ));
    }
    let kind: ObjectKind = parsed.require("kind")?;
    let seed: u64 = parsed.get_or("seed", 0)?;
    let processes: u32 = parsed.get_or("processes", 3)?;
    let requested_ops: u32 = parsed.get_or("ops", 50)?;
    let every: u64 = parsed.get_or("every", 5)?;
    let format: TraceFormat = parsed.get_or("format", TraceFormat::Jsonl)?;
    if processes == 0 || requested_ops == 0 {
        return Err(Failure::usage("--processes and --ops must be positive"));
    }
    if every == 0 {
        return Err(Failure::usage("--every must be positive"));
    }
    let faulty = parsed.has("faulty");
    let stats = crate::stats::init(parsed);
    // Consensus workloads are one-shot (`Workload` caps them at one Decide per
    // process); record what actually runs in the header, not what was asked.
    let ops = if kind == ObjectKind::Consensus {
        requested_ops.min(1)
    } else {
        requested_ops
    };
    // A corruption period beyond the run's total operation count would label
    // the trace faulty while never corrupting anything; clamp it so --faulty
    // always bites (pass a larger --ops to study rarer faults).
    let every = every.min(u64::from(processes) * u64::from(ops)).max(1);

    // Workload shaping: --mix/--keys/--skew override the kind's historical
    // default mix. Without any of them the default mix is used untouched, so
    // existing seeds keep producing byte-identical traces.
    let workload_kind = WorkloadKind::for_object(kind);
    let mut mix = Mix::default_for(workload_kind);
    let custom_mix =
        parsed.get("mix").is_some() || parsed.get("keys").is_some() || parsed.get("skew").is_some();
    if let Some(raw) = parsed.get("mix") {
        mix = mix.with_weights(parse_mix_weights(raw, kind)?);
    }
    let keys: u32 = parsed.get_or("keys", mix.key_range)?;
    if keys == 0 {
        return Err(Failure::usage("--keys must be positive"));
    }
    let skew: f64 = parsed.get_or("skew", mix.skew)?;
    if !skew.is_finite() || skew < 0.0 {
        return Err(Failure::usage(
            "--skew must be a finite non-negative number",
        ));
    }
    mix = mix.with_key_range(keys).with_skew(skew);

    let object = match (source, faulty) {
        (_, true) => faulty::faulty_object(kind, every),
        (Source::Specification, false) => impls::spec_object(kind),
        (Source::Implementation, false) => impls::correct_object(kind),
    };
    let mut header = TraceHeader::new(kind)
        .with_seed(seed)
        .with_processes(processes)
        .with_ops_per_process(ops)
        .with_implementation(object.name())
        .with_provenance(if faulty {
            Provenance::Faulty
        } else {
            Provenance::Correct
        });
    if custom_mix {
        // Record the non-default shaping in the advisory scenario field so the
        // trace stays self-describing.
        let [w0, w1, w2] = mix.weights;
        header = header.with_scenario(format!("mix={w0},{w1},{w2}/keys={keys}/skew={skew}"));
    }

    let out_path = parsed.get("out");
    let out = open_output(out_path)?;
    let sink = SharedTraceWriter::new(out, format, &header)
        .map_err(write_failure("cannot write trace header"))?;
    let workload = Workload::new(workload_kind, seed).with_mix(mix);
    let mut source = UntilSinkFails {
        workload: WorkloadSource::new(&workload, processes as usize, ops as usize),
        sink: &sink,
    };
    let run = record_scheduled_controlled(
        &*object,
        &mut source,
        processes as usize,
        schedule_seed(seed),
        &mut NoFaults,
        Some(&sink),
    )
    .execution;
    let events = sink.events_written();
    sink.finish()
        .map_err(write_failure("cannot finish trace"))?;
    eprintln!(
        "linrv: wrote {events} events ({} operations, {} processes, seed {seed}) from {} to {}",
        run.operations,
        processes,
        object.name(),
        describe(out_path, "stdout"),
    );
    if let Some(stats) = &stats {
        stats.emit()?;
    }
    Ok(ExitCode::SUCCESS)
}
