//! Differential tests of the linear-time verdict path against the all-pairs definitions.
//!
//! `linrv_core::view::check_view_properties` and `linrv_core::sketch::sketch_history`
//! decide Remark 7.2 and build `X(λ)` from one size-sorted pass (chain lemma and
//! latest-witness lemma, `crates/core/src/view.rs`). The [`reference`] module below keeps
//! the implementation they replaced — every pair of tuples compared, distinct views
//! found by whole-set equality — as the oracle:
//!
//! * on tuple sets taken from seeded `DRV` schedules (1–5 processes, operations still
//!   pending, tuples published late) the sketch must be the oracle's history event for
//!   event, built by the oracle one step at a time (each step's invocations, then its
//!   responses, neither run empty), so the maximal runs are the same steps too;
//! * on those sets with one fault planted (and on small forged sets) both must reach the
//!   same `Ok` / error variant — which offending pair an error names may differ;
//! * a tuple set too large for the all-pairs loop must still go through.
//!
//! Every generated and forged set is also built two more ways — as the union of one
//! set per process (what a scan of `M` delivers) and as a union of two sets that share
//! a tuple (two logs for one process) — and each form must iterate, count, look up,
//! compare, check and sketch exactly like the set built at once; writing to a clone or
//! a union must never change the set it came from.

use linrv_core::drv::Drv;
use linrv_core::sketch::{sketch_history, SketchError};
use linrv_core::view::{
    check_view_properties, InvocationPair, TupleSet, View, ViewPropertyError, ViewTuple,
};
use linrv_history::{History, OpId, OpValue, ProcessId};
use linrv_runtime::impls::SpecObject;
use linrv_spec::ops::queue;
use linrv_spec::QueueSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::mem::discriminant;
use std::time::{Duration, Instant};
use tests_integration::{drive_drv, Rng};

/// The verdict path as it was before the chain-checked rewrite, kept verbatim in
/// behaviour: O(t²·v) property check, O(m²·v) distinct-view search.
mod reference {
    use linrv_core::view::{TupleSet, View, ViewPropertyError, ViewTuple};
    use linrv_history::{Event, History};
    use std::collections::BTreeMap;

    pub(crate) fn check_view_properties(tuples: &TupleSet) -> Result<(), ViewPropertyError> {
        for tuple in tuples {
            if !tuple.view.contains(&tuple.pair) {
                return Err(ViewPropertyError::SelfInclusion {
                    pair: tuple.pair.clone(),
                });
            }
        }
        for a in tuples {
            for b in tuples {
                if a == b {
                    continue;
                }
                if !a.view.is_subset(&b.view) && !b.view.is_subset(&a.view) {
                    return Err(ViewPropertyError::Incomparable {
                        left: a.pair.clone(),
                        right: b.pair.clone(),
                    });
                }
                if a.pair.process == b.pair.process
                    && a.pair.op_id != b.pair.op_id
                    && a.view.contains(&b.pair)
                    && b.view.contains(&a.pair)
                {
                    return Err(ViewPropertyError::ProcessSequentiality {
                        first: a.pair.clone(),
                        second: b.pair.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    pub(crate) fn sketch_history(tuples: &TupleSet) -> Result<History, ViewPropertyError> {
        check_view_properties(tuples)?;
        let mut distinct: Vec<&View> = Vec::new();
        for tuple in tuples {
            if !distinct.contains(&&tuple.view) {
                distinct.push(&tuple.view);
            }
        }
        distinct.sort_by_key(|v| v.len());
        let mut by_view: BTreeMap<usize, Vec<&ViewTuple>> = BTreeMap::new();
        for tuple in tuples {
            let index = distinct
                .iter()
                .position(|v| *v == &tuple.view)
                .expect("view collected above");
            by_view.entry(index).or_default().push(tuple);
        }
        let mut history = History::new();
        let mut previous = View::new();
        for (k, view) in distinct.iter().enumerate() {
            // Claim 7.2: every step invokes and answers at least one operation.
            let fresh: Vec<_> = view.difference(&previous).collect();
            assert!(!fresh.is_empty(), "step {k} invokes nothing");
            for pair in fresh {
                history.push(Event::invocation(
                    pair.process,
                    pair.op_id,
                    pair.operation.clone(),
                ));
            }
            for t in &by_view[&k] {
                history.push(Event::response(
                    t.pair.process,
                    t.pair.op_id,
                    t.response.clone(),
                ));
            }
            previous = (*view).clone();
        }
        Ok(history)
    }
}

/// The numbers of maximal runs of invocations and of responses in `history`: the
/// invocation and response steps of an interval-sequential history (Claim 7.2).
fn maximal_runs(history: &History) -> (usize, usize) {
    let runs = history
        .events()
        .chunk_by(|a, b| a.is_invocation() == b.is_invocation());
    runs.fold((0, 0), |(invocations, responses), run| {
        if run[0].is_invocation() {
            (invocations + 1, responses)
        } else {
            (invocations, responses + 1)
        }
    })
}

/// The tuples of each process, as one set per process.
fn process_parts(tuples: &TupleSet) -> Vec<TupleSet> {
    let mut parts: BTreeMap<ProcessId, TupleSet> = BTreeMap::new();
    for tuple in tuples {
        parts
            .entry(tuple.pair.process)
            .or_default()
            .insert(tuple.clone());
    }
    parts.into_values().collect()
}

/// `tuples` as the union of one part per process, the form a scan of `M` delivers.
fn per_process(tuples: &TupleSet) -> TupleSet {
    TupleSet::union_of(process_parts(tuples))
}

/// `tuples` as the union of two halves that share the middle tuple.
fn overlapping(tuples: &TupleSet) -> TupleSet {
    let all: Vec<ViewTuple> = tuples.iter().cloned().collect();
    let middle = all.len() / 2;
    let first = &all[..all.len().min(middle + 1)];
    TupleSet::union_of([
        first.iter().cloned().collect(),
        all[middle..].iter().cloned().collect(),
    ])
}

/// Asserts that the shared forms of `tuples` are the same set as `tuples` and as a
/// plain `BTreeSet`, and that the verdict path cannot tell them apart.
fn assert_shared_forms_agree(tuples: &TupleSet, context: &str) {
    let oracle: BTreeSet<ViewTuple> = tuples.iter().cloned().collect();
    assert!(tuples.iter().eq(oracle.iter()), "{context}: built at once");
    let properties = check_view_properties(tuples);
    let sketch = sketch_history(tuples).map(|history| history.to_string());
    let absent = ViewTuple::new(foreign_pair(0), OpValue::Bool(true), View::new());
    for (form, set) in [
        ("per-process", per_process(tuples)),
        ("overlapping", overlapping(tuples)),
    ] {
        let context = format!("{context}, {form} union");
        assert!(set.iter().eq(oracle.iter()), "{context}: iteration order");
        assert_eq!(set.len(), oracle.len(), "{context}: len");
        assert_eq!(set.is_empty(), oracle.is_empty(), "{context}: is_empty");
        assert!(
            oracle.iter().all(|t| set.contains(t)),
            "{context}: contains"
        );
        assert!(
            !set.contains(&absent),
            "{context}: contains a foreign tuple"
        );
        assert_eq!(&set, tuples, "{context}: equality");
        assert_eq!(
            check_view_properties(&set),
            properties,
            "{context}: properties"
        );
        assert_eq!(
            sketch_history(&set).map(|history| history.to_string()),
            sketch,
            "{context}: sketch"
        );
    }
}

/// Asserts that the rewrite and the oracle agree on `tuples`: identical sketches when the
/// views are valid, the same error variant when they are not. Returns that verdict.
fn assert_agree(tuples: &TupleSet, context: &str) -> Result<(), ViewPropertyError> {
    assert_shared_forms_agree(tuples, context);
    let expected = reference::check_view_properties(tuples);
    let actual = check_view_properties(tuples);
    assert_eq!(
        actual.as_ref().map_err(discriminant),
        expected.as_ref().map_err(discriminant),
        "{context}: check_view_properties says {actual:?}, the all-pairs check {expected:?}"
    );
    match reference::sketch_history(tuples) {
        Ok(reference) => {
            let history = sketch_history(tuples).expect("valid views");
            assert_eq!(history, reference, "{context}: history differs");
        }
        Err(expected) => {
            let SketchError::ViewProperty(actual) =
                sketch_history(tuples).expect_err("the oracle rejects these views");
            assert_eq!(
                discriminant(&actual),
                discriminant(&expected),
                "{context}: sketch_history says {actual:?}, the oracle {expected:?}"
            );
        }
    }
    expected
}

/// Runs a seeded interleaving of announce / call / collect / publish over `processes`
/// processes and checks the agreement on the published set `τ` after every publication
/// and once more at the end, when some operations are still pending (announced, no
/// tuple) and some tuples are collected but not yet published. A process publishes
/// what it holds one time in four, so other processes' later tuples reach `τ` first
/// (late publication), and it may hold several tuples at once.
fn run_schedule(seed: u64, processes: usize, steps: usize) -> TupleSet {
    let drv = Drv::new(SpecObject::new(QueueSpec::new()), processes);
    let (mut schedule, mut ops) = (Rng(seed), Rng(!seed));
    let mut issued = vec![0; processes];
    let (mut taken, mut publications) = (0, 0);
    let published = drive_drv(
        &drv,
        |index| {
            issued[index] += 1;
            Some(if ops.below(2) == 0 {
                queue::enqueue((index * 1000 + issued[index]) as i64)
            } else {
                queue::dequeue()
            })
        },
        || {
            taken += 1;
            (taken <= steps).then(|| (schedule.below(processes), schedule.below(4) == 0))
        },
        |published| {
            publications += 1;
            let context = format!("seed {seed}, {processes} processes, publication {publications}");
            assert_eq!(assert_agree(published, &context), Ok(()), "{context}");
        },
    );
    let context = format!("seed {seed}, {processes} processes, end");
    assert_eq!(assert_agree(&published, &context), Ok(()), "{context}");
    published
}

#[test]
fn seeded_drv_schedules_sketch_identically() {
    let mut tuples_seen = 0;
    for seed in 0..40 {
        for processes in 1..=5 {
            tuples_seen += run_schedule(seed, processes, 30 + 12 * processes).len();
        }
    }
    assert!(
        tuples_seen > 1000,
        "schedules too short: {tuples_seen} tuples"
    );
}

/// A pair no schedule announces.
fn foreign_pair(process: u32) -> InvocationPair {
    InvocationPair {
        process: ProcessId::new(process),
        op_id: OpId::new(1 << 40),
        operation: queue::enqueue(-1),
    }
}

/// Replaces `old` by a copy whose view is `view`.
fn with_view(tuples: &TupleSet, old: &ViewTuple, view: View) -> TupleSet {
    let mut mutated = tuples.clone();
    mutated.remove(old);
    mutated.insert(ViewTuple::new(old.pair.clone(), old.response.clone(), view));
    mutated
}

/// Two tuples of one process in announcement order, if the set has such a pair.
fn same_process_pair(tuples: &TupleSet) -> Option<(&ViewTuple, &ViewTuple)> {
    tuples.iter().find_map(|a| {
        tuples
            .iter()
            .find(|b| b.pair.process == a.pair.process && b.pair.op_id > a.pair.op_id)
            .map(|b| (a, b))
    })
}

#[test]
fn planted_faults_are_reported_as_the_same_variant() {
    let mut mutual = 0;
    for seed in 100..130 {
        for processes in 1..=5 {
            let tuples = run_schedule(seed, processes, 40 + 12 * processes);
            if tuples.len() < 2 {
                continue;
            }
            let mut rng = Rng(seed);
            let victim = tuples
                .iter()
                .nth(rng.below(tuples.len()))
                .expect("index in range");
            let context = format!("seed {seed}, {processes} processes");

            // Own pair removed from a view.
            let mut view = victim.view.clone();
            view.remove(&victim.pair);
            assert!(matches!(
                assert_agree(&with_view(&tuples, victim, view), &context),
                Err(ViewPropertyError::SelfInclusion { .. })
            ));

            // One view replaced by one that is incomparable with every other: it lacks
            // their own pairs and holds a pair none of them has.
            let view = View::from([victim.pair.clone(), foreign_pair(7)]);
            assert!(matches!(
                assert_agree(&with_view(&tuples, victim, view), &context),
                Err(ViewPropertyError::Incomparable { .. })
            ));

            // Two views of the same size and different content — the case a sketch that
            // identifies views by size alone would merge into one step.
            let twin = foreign_pair(processes as u32);
            let mut view = victim.view.clone();
            view.remove(&victim.pair);
            view.insert(twin.clone());
            assert_eq!(view.len(), victim.view.len());
            let mut mutated = tuples.clone();
            mutated.insert(ViewTuple::new(twin, OpValue::Bool(true), view));
            assert!(matches!(
                assert_agree(&mutated, &context),
                Err(ViewPropertyError::Incomparable { .. })
            ));

            // Two operations of one process that see each other: the earlier one is
            // given the later one's view.
            if let Some((earlier, later)) = same_process_pair(&tuples) {
                mutual += 1;
                let mutated = with_view(&tuples, earlier, later.view.clone());
                assert!(matches!(
                    assert_agree(&mutated, &context),
                    Err(ViewPropertyError::ProcessSequentiality { .. })
                ));
                // Forged second responses of the later operation, sitting between the
                // two in every order, must not hide the fault...
                let mut forged = mutated.clone();
                for response in [OpValue::Int(-7), OpValue::Error] {
                    forged.insert(ViewTuple::new(
                        later.pair.clone(),
                        response,
                        later.view.clone(),
                    ));
                }
                assert!(matches!(
                    assert_agree(&forged, &context),
                    Err(ViewPropertyError::ProcessSequentiality { .. })
                ));
                // ...and are not a fault themselves: one operation, one pair.
                let mut forged = tuples.clone();
                forged.insert(ViewTuple::new(
                    later.pair.clone(),
                    OpValue::Int(-7),
                    later.view.clone(),
                ));
                assert_eq!(assert_agree(&forged, &context), Ok(()));
            }
        }
    }
    assert!(
        mutual >= 60,
        "only {mutual} schedules had two tuples of one process"
    );
}

/// Small forged sets over a universe of six pairs (two processes, three operations
/// each), views drawn at random: most violate several properties at once. Here the two
/// may name different variants (the all-pairs loop reports whichever pair it meets
/// first), but never disagree on validity, and self-inclusion takes precedence in both.
#[test]
fn forged_sets_are_accepted_and_rejected_alike() {
    let universe: Vec<InvocationPair> = (0..6u64)
        .map(|id| InvocationPair {
            process: ProcessId::new((id / 3) as u32),
            // Operations 1 and 2 of each process share an `op_id`.
            op_id: OpId::new(id - u64::from(id % 3 == 2)),
            operation: queue::enqueue(id as i64),
        })
        .collect();
    let mut rng = Rng(7);
    let (mut valid, mut invalid) = (0, 0);
    for case in 0..20_000 {
        let mut tuples = TupleSet::new();
        // Mostly nested views (prefixes of one random order), sometimes arbitrary.
        let mut order = universe.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for _ in 0..1 + rng.below(4) {
            let pair = universe[rng.below(universe.len())].clone();
            let view: View = if rng.below(8) == 0 {
                universe
                    .iter()
                    .filter(|_| rng.below(2) == 0)
                    .cloned()
                    .collect()
            } else {
                let position = order.iter().position(|p| *p == pair).expect("in universe");
                let end = position + 1 + rng.below(order.len() - position);
                order[..end].iter().cloned().collect()
            };
            tuples.insert(ViewTuple::new(pair, OpValue::Bool(true), view));
        }
        let expected = reference::check_view_properties(&tuples);
        let actual = check_view_properties(&tuples);
        assert_shared_forms_agree(&tuples, &format!("forged case {case}"));
        assert_eq!(
            actual.is_ok(),
            expected.is_ok(),
            "case {case}: {actual:?} against the all-pairs {expected:?} on {tuples:#?}"
        );
        assert_eq!(
            matches!(actual, Err(ViewPropertyError::SelfInclusion { .. })),
            matches!(expected, Err(ViewPropertyError::SelfInclusion { .. })),
            "case {case}: self-inclusion is checked first by both"
        );
        if expected.is_ok() {
            valid += 1;
            assert_agree(&tuples, &format!("forged case {case}")).expect("valid");
        } else {
            invalid += 1;
        }
    }
    assert!(
        valid > 2_000 && invalid > 2_000,
        "{valid} valid, {invalid} invalid"
    );
}

/// Writing to a clone or to a union copies the run it writes to first: the set it
/// came from, and every set sharing its runs, stay as they were.
#[test]
fn clones_and_unions_are_copy_on_write() {
    let foreign = ViewTuple::new(
        foreign_pair(0),
        OpValue::Bool(true),
        View::from([foreign_pair(0)]),
    );
    let mut checked = 0;
    for seed in 200..220 {
        let tuples = run_schedule(seed, 3, 80);
        let Some(first) = tuples.iter().next().cloned() else {
            continue;
        };
        checked += 1;
        let before: Vec<ViewTuple> = tuples.iter().cloned().collect();
        let unchanged = |set: &TupleSet| set.iter().eq(before.iter());

        let mut clone = tuples.clone();
        assert!(clone.insert(foreign.clone()));
        assert!(clone.remove(&first));
        assert!(unchanged(&tuples), "seed {seed}: a write to a clone leaked");
        assert_eq!(clone.len(), tuples.len());

        // The union shares the per-process parts with `parts`.
        let parts = process_parts(&tuples);
        let contents = |parts: &[TupleSet]| -> Vec<Vec<ViewTuple>> {
            parts.iter().map(|p| p.iter().cloned().collect()).collect()
        };
        let parts_before = contents(&parts);
        let union = TupleSet::union_of(parts.clone());
        let mut grown = union.clone();
        assert!(grown.insert(foreign.clone()));
        assert!(grown.contains(&foreign) && !union.contains(&foreign));
        let mut shrunk = union.clone();
        assert!(shrunk.remove(&first));
        assert!(!shrunk.contains(&first) && union.contains(&first));
        assert!(unchanged(&union), "seed {seed}: a write to a union leaked");
        assert_eq!(
            contents(&parts),
            parts_before,
            "seed {seed}: a union's write reached a part"
        );

        // A tuple held by two parts is gone from the union once removed.
        let middle = &before[before.len() / 2];
        let mut twice = overlapping(&tuples);
        assert!(twice.remove(middle));
        assert!(
            !twice.contains(middle),
            "seed {seed}: the second copy survived"
        );
        assert_eq!(twice.len(), tuples.len() - 1);

        // And the other way round: a later write to a part leaves a union taken
        // before it as it was, as a later snapshot write leaves an earlier scan.
        let mut parts = parts;
        parts[0].insert(foreign.clone());
        assert!(!union.contains(&foreign) && unchanged(&union));
    }
    assert!(checked >= 15, "only {checked} schedules published a tuple");
}

/// A count-free guard against the all-pairs loop coming back: 2 000 tuples with views
/// of up to 2 000 pairs are ~10¹⁰ pair comparisons for an O(t²·v) check, which a debug
/// build does not finish; the chain-checked path visits ~10⁷.
#[test]
fn two_thousand_tuples_sketch_in_linear_time() {
    const PROCESSES: u64 = 4;
    const ROUNDS: u64 = 500;
    let pair = |id: u64| InvocationPair {
        process: ProcessId::new((id % PROCESSES) as u32),
        op_id: OpId::new(id),
        operation: queue::enqueue(id as i64),
    };
    let mut tuples = TupleSet::new();
    let mut announced = View::new();
    for round in 0..ROUNDS {
        let ids = round * PROCESSES..(round + 1) * PROCESSES;
        if round % 2 == 0 {
            // All four announce, then all four collect: one shared view.
            announced.extend(ids.clone().map(pair));
            for id in ids {
                tuples.insert(ViewTuple::new(
                    pair(id),
                    OpValue::Bool(true),
                    announced.clone(),
                ));
            }
        } else {
            // One after the other: four views, each one pair larger.
            for id in ids {
                announced.insert(pair(id));
                tuples.insert(ViewTuple::new(
                    pair(id),
                    OpValue::Bool(true),
                    announced.clone(),
                ));
            }
        }
    }
    assert_eq!(tuples.len(), 2_000);

    let started = Instant::now();
    let history = sketch_history(&tuples).expect("valid views");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "sketch_history took {elapsed:?} on 2 000 tuples"
    );
    assert_eq!(history.len(), 4_000);
    assert!(history.is_well_formed());
    assert_eq!(history.pending_operations().count(), 0);
    // 250 shared views + 250 × 4 single ones, an invocation and a response step each.
    assert_eq!(maximal_runs(&history), (1_250, 1_250));
}
