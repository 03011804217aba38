//! Streaming membership checking: feed events one at a time, get the verdict
//! at the end — or at the very response that makes the stream non-linearizable.
//!
//! The offline half of the record / replay / check workflow: `linrv check`
//! streams a `linrv_trace::TraceReader` through a [`StreamingChecker`] without
//! materialising the trace first. Correctness rests on Lemma 7.1: the abstract
//! object "linearizable w.r.t. `S`" is **prefix-closed**, so the first prefix
//! that is not a member condemns every extension — the checker can stop
//! consuming events and report the violating prefix as the certificate.
//!
//! # The frontier
//!
//! The checker is an online monitor in the shape of Bouajjani et al.'s
//! reduction of linearizability to state reachability: it keeps the *open*
//! operations (invoked, not yet answered) and a deduplicated set of
//! **configurations** — a state of the sequential specification together with
//! the open operations some linearization has already placed, each with the
//! response the specification gave it — and advances that set per event:
//!
//! * an invocation only joins the open operations;
//! * a response `v` of operation `op` advances every configuration. One that
//!   placed `op` early survives iff the response it predicted is `v`. Any
//!   other is replaced by everything reachable by linearizing some sequence of
//!   open, not yet placed operations and then `op` answering `v`
//!   ([`SequentialSpec::step`], every non-deterministic successor kept).
//!
//! **Invariant:** after each event the set holds exactly the configurations
//! reached by the *just-in-time* linearizations of the consumed prefix — those
//! that place every operation while it is open and place the answered ones
//! with their recorded responses. The set is therefore empty **iff** the
//! prefix is not linearizable:
//!
//! * *Soundness.* Every operation is placed between its invocation and its
//!   response, so the order of placement extends real-time precedence; the
//!   specification accepted every step and every answered operation got its
//!   recorded response. Operations placed but still open are the completed
//!   pending operations of Definition 4.2's extension; the unplaced ones are
//!   dropped by `comp(·)`.
//! * *Completeness.* Take any linearization `L` of the prefix and delay each
//!   operation `x` to the first response, in stream order, of an operation at
//!   or after `x` in `L` (never, if there is none — those operations form a
//!   pending suffix of `L` that can be dropped). That response belongs to some
//!   `y` with `x ≤_L y`, so `x` was invoked before it (else `y <_L x` by
//!   real time) and is unanswered at it or is `y` itself: `x` is open at that
//!   moment. Delaying is monotone in `L`, so the operations delayed to one
//!   response form a contiguous block of `L` that ends with the responder —
//!   exactly one of the sequences the response step enumerates.
//!
//! A violation is therefore latched at the response that causes it, not at a
//! point of the fallback schedule below; at the end of the stream a non-empty
//! set is membership (pending operations may stay unplaced).
//!
//! # Cost model
//!
//! Work per event depends on concurrency and ambiguity, never on the length
//! of the stream. A response visits, per configuration, the sequences of the
//! other open operations, deduplicated to distinct `(state, placed)` pairs.
//! What multiplies configurations is order nobody has observed yet: `k`
//! overlapping inserts stand for up to `k!` queue or stack states until
//! removals tell them apart. Two lanes of distinct values stay at one or two
//! configurations; recorded three-process traces of sets, priority queues,
//! counters and registers stay under a few dozen, and of queues and stacks
//! mostly in the tens to hundreds; wider or insert-heavy traces leave the
//! bound below behind. One step still costs `O(|state|)`, because
//! [`SequentialSpec::step`] returns successor states by value (a queue holding
//! a thousand elements is copied on every step), and the consumed [`History`]
//! is still retained for the certificate.
//!
//! # The trusted base, the bound and the fallback
//!
//! The frontier never reports a violation on its own: on an empty set the
//! existing [`StrategyChecker`] decides the violating prefix once and its
//! [`Violation`](crate::Violation) (named pattern or search frontier) is what
//! is latched. Should it disagree, the frontier is dropped.
//!
//! One response may visit at most `FRONTIER_BOUND` (4 096) configurations,
//! which also bounds the set it leaves and keeps the worst event around a
//! millisecond. Past the bound, on a disagreement, and on
//! any event that breaks well-formedness (a re-used operation id, a response
//! without its invocation or on another process, a second open operation of a
//! process), the checker drops the set for the rest of the stream and
//! continues on the whole-prefix schedule — never wrong, only slower: the
//! consumed prefix is re-decided at 64 completed operations and at every
//! doubling after that, so the prefix sizes sum to less than twice the final
//! length.
//!
//! Each such check runs the [`StrategyChecker`] from scratch (log-linear
//! specialized monitor where it applies, worst-case exponential general search
//! otherwise), and the schedule keeps counting while the frontier is alive, so
//! a stream that falls back is never re-checked more often than the schedule
//! alone would. The verdict is identical on every path; only latency and cost
//! move.

use crate::specialized::StrategyChecker;
use crate::witness::Verdict;
use linrv_history::{Event, EventKind, History, OpId, OpValue, Operation, ProcessId};
use linrv_spec::SequentialSpec;
use std::collections::{BTreeMap, HashSet};

/// First re-check point of the geometric fallback schedule, in completed
/// operations.
const FIRST_RECHECK: usize = 64;

/// Configurations one response may visit before the checker gives the
/// frontier up for the whole-prefix schedule.
const FRONTIER_BOUND: usize = 1 << 12;

/// Why the frontier is given up, as `check.frontier.fallback` reports it:
/// `"bound"`, `"ill-formed"` or `"disagreement"`.
type Fallback = &'static str;

/// A specification state some just-in-time linearization of the consumed
/// prefix reaches, with the open operations that linearization already placed.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Config<Q> {
    state: Q,
    /// Placed open operations and the responses the specification gave them,
    /// sorted by operation id so equal sets compare equal.
    placed: Vec<(OpId, OpValue)>,
}

impl<Q> Config<Q> {
    fn position(&self, op: OpId) -> Result<usize, usize> {
        self.placed.binary_search_by_key(&op, |(id, _)| *id)
    }
}

/// The operation ids invoked so far: re-using one is ill-formed. Recorders
/// hand ids out in ascending order, so those are kept sorted in a vector and
/// only the stragglers pay for a hash set.
#[derive(Default)]
struct InvokedIds {
    ascending: Vec<OpId>,
    stragglers: HashSet<OpId>,
}

impl InvokedIds {
    /// Records `id`; `false` if it was invoked before.
    fn insert(&mut self, id: OpId) -> bool {
        if self.ascending.last().map_or(true, |last| *last < id) {
            self.ascending.push(id);
            return true;
        }
        self.ascending.binary_search(&id).is_err() && self.stragglers.insert(id)
    }
}

/// The per-event decision state; see the [module docs](self).
struct Frontier<S: SequentialSpec> {
    /// The open operation of each process.
    open: BTreeMap<ProcessId, (OpId, Operation)>,
    invoked: InvokedIds,
    configs: HashSet<Config<S::State>>,
}

impl<S: SequentialSpec> Frontier<S> {
    fn new(spec: &S) -> Self {
        Frontier {
            open: BTreeMap::new(),
            invoked: InvokedIds::default(),
            configs: HashSet::from([Config {
                state: spec.initial_state(),
                placed: Vec::new(),
            }]),
        }
    }

    /// Advances over `event` and returns the size of the set it leaves.
    fn advance(&mut self, spec: &S, event: &Event) -> Result<usize, Fallback> {
        match &event.kind {
            EventKind::Invocation { op } => {
                if !self.invoked.insert(event.op_id) || self.open.contains_key(&event.process) {
                    return Err("ill-formed");
                }
                self.open.insert(event.process, (event.op_id, op.clone()));
            }
            EventKind::Response { value } => {
                let operation = match self.open.get(&event.process) {
                    Some((open, _)) if *open == event.op_id => {
                        self.open.remove(&event.process).expect("just found").1
                    }
                    _ => return Err("ill-formed"),
                };
                self.respond(spec, event.op_id, &operation, value)?;
            }
        }
        Ok(self.configs.len())
    }

    /// The response step: `op` (already removed from `open`) answered `value`.
    fn respond(
        &mut self,
        spec: &S,
        op: OpId,
        operation: &Operation,
        value: &OpValue,
    ) -> Result<(), Fallback> {
        let mut next = HashSet::new();
        // Configurations that have not placed `op`. Each pass of the loop
        // below places one more open operation in every one of them, so equal
        // configurations can only meet within a pass.
        let mut level = Vec::new();
        for mut config in std::mem::take(&mut self.configs) {
            match config.position(op) {
                Ok(at) => {
                    if config.placed.remove(at).1 == *value {
                        next.insert(config);
                    }
                }
                Err(_) => level.push(config),
            }
        }
        let mut visited = level.len();
        while !level.is_empty() {
            let mut children = HashSet::new();
            for config in &level {
                // An operation outside the interface has no successor: it can
                // never be linearized, exactly as in the general search.
                for (state, response) in spec.step(&config.state, operation).unwrap_or_default() {
                    if response == *value {
                        next.insert(Config {
                            state,
                            placed: config.placed.clone(),
                        });
                    }
                }
                for (other, other_operation) in self.open.values() {
                    let Err(at) = config.position(*other) else {
                        continue;
                    };
                    for (state, response) in spec
                        .step(&config.state, other_operation)
                        .unwrap_or_default()
                    {
                        let mut placed = config.placed.clone();
                        placed.insert(at, (*other, response));
                        children.insert(Config { state, placed });
                    }
                }
            }
            visited += children.len();
            if visited + next.len() > FRONTIER_BOUND {
                return Err("bound");
            }
            level = children.into_iter().collect();
        }
        self.configs = next;
        Ok(())
    }
}

/// An incremental linearizability checker over a stream of events.
///
/// ```
/// use linrv_check::stream::StreamingChecker;
/// use linrv_history::{Event, OpId, OpValue, Operation, ProcessId};
/// use linrv_spec::QueueSpec;
///
/// let mut checker = StreamingChecker::new(QueueSpec::new());
/// let p = ProcessId::new(0);
/// checker.push(Event::invocation(p, OpId::new(0), Operation::nullary("Dequeue")));
/// // A dequeue of a never-enqueued element: not linearizable.
/// let early = checker.push(Event::response(p, OpId::new(0), OpValue::Int(3)));
/// assert!(early.is_some(), "violations surface at the response that causes them");
/// let (_, verdict) = checker.finish();
/// assert!(verdict.is_violation());
/// ```
pub struct StreamingChecker<S: SequentialSpec> {
    object: StrategyChecker<S>,
    history: History,
    /// `None` once the checker fell back to the whole-prefix schedule.
    frontier: Option<Frontier<S>>,
    /// Completed operations seen so far (responses, cheaper than recounting).
    completed: usize,
    /// The schedule's next re-check is due when `completed` reaches this.
    next_check: usize,
    /// Latched at the first non-member prefix; never cleared (prefix closure).
    verdict: Option<Verdict>,
}

impl<S: SequentialSpec> StreamingChecker<S> {
    /// Starts a streaming check against `spec`. Should the frontier be given
    /// up, the rest of the stream is re-decided on the geometric schedule
    /// (first at 64 completed operations, then at every doubling) — see the
    /// [module docs](self).
    pub fn new(spec: S) -> Self {
        StreamingChecker {
            frontier: Some(Frontier::new(&spec)),
            object: StrategyChecker::new(spec),
            history: History::new(),
            completed: 0,
            next_check: FIRST_RECHECK,
            verdict: None,
        }
    }

    /// Feeds one event. Returns the latched verdict as soon as the consumed
    /// prefix stops being linearizable — by prefix closure the caller may then
    /// stop feeding events; pushing more is allowed but changes nothing.
    pub fn push(&mut self, event: Event) -> Option<&Verdict> {
        if self.verdict.is_some() {
            return self.verdict.as_ref();
        }
        let spec = self.object.general().spec();
        let advanced = self
            .frontier
            .as_mut()
            .map(|frontier| frontier.advance(spec, &event));
        let is_response = event.is_response();
        let mut due = false;
        if is_response {
            self.completed += 1;
            if self.completed >= self.next_check {
                self.next_check = self.completed * 2;
                due = true;
            }
        }
        self.history.push(event);
        let on_schedule = match advanced {
            Some(Ok(configs)) => {
                if is_response && linrv_obs::enabled() {
                    crate::metrics::frontier_configs().record(configs as u64);
                }
                // No linearization is left. The batch checker confirms it and
                // builds the certificate; the frontier alone condemns nothing.
                if configs == 0 && !self.check_now() {
                    self.fall_back("disagreement");
                }
                false
            }
            Some(Err(reason)) => {
                self.fall_back(reason);
                true
            }
            None => true,
        };
        if on_schedule && due {
            self.check_now();
        }
        self.verdict.as_ref()
    }

    /// Decides the consumed prefix from scratch; latches and returns `true`
    /// when it is a violation.
    fn check_now(&mut self) -> bool {
        let verdict = self.timed_check();
        let violation = verdict.is_violation();
        if violation {
            self.verdict = Some(verdict);
        }
        violation
    }

    /// Gives the frontier up for the rest of the stream.
    fn fall_back(&mut self, reason: Fallback) {
        self.frontier = None;
        if linrv_obs::enabled() {
            crate::metrics::frontier_fallbacks_total().inc();
        }
        let event = self.history.len();
        linrv_obs::event("check.frontier.fallback", || {
            format!("reason={reason} event={event}")
        });
    }

    /// Decides the consumed prefix, timing the decision into
    /// `linrv_check_recheck_ns` when recording is enabled.
    fn timed_check(&self) -> Verdict {
        let span = linrv_obs::Span::start(crate::metrics::recheck_ns());
        let verdict = self.object.check(&self.history);
        drop(span);
        if linrv_obs::enabled() {
            crate::metrics::rechecks_total().inc();
        }
        verdict
    }

    /// Number of events consumed so far.
    pub fn events_consumed(&self) -> usize {
        self.history.len()
    }

    /// Ends the stream and returns the consumed history with its verdict: the
    /// latched violation, else membership when the frontier decided every
    /// event (its set is non-empty), else one final whole-prefix decision.
    pub fn finish(mut self) -> (History, Verdict) {
        let verdict = match self.verdict.take() {
            Some(verdict) => verdict,
            None if self.frontier.is_some() => Verdict::Member {
                linearization: None,
            },
            None => self.timed_check(),
        };
        (self.history, verdict)
    }
}

/// Streams a fallible event source (e.g. a `linrv_trace::TraceReader`) through
/// a [`StreamingChecker`].
///
/// Stops consuming as soon as a violation is latched (prefix closure makes the
/// rest of the stream irrelevant) and returns the consumed history plus the
/// verdict.
///
/// # Errors
///
/// Propagates the first source error; events before it have been consumed.
pub fn check_events<S, E>(
    spec: S,
    events: impl IntoIterator<Item = Result<Event, E>>,
) -> Result<(History, Verdict), E>
where
    S: SequentialSpec,
{
    let mut checker = StreamingChecker::new(spec);
    for event in events {
        if checker.push(event?).is_some() {
            break;
        }
    }
    Ok(checker.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearizability::LinSpec;
    use linrv_history::HistoryBuilder;
    use linrv_spec::ops::queue;
    use linrv_spec::{ObjectKind, QueueSpec, SpecError};
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ok(history: &History) -> impl Iterator<Item = Result<Event, Infallible>> + '_ {
        history.events().iter().cloned().map(Ok)
    }

    fn correct_history(ops: usize) -> History {
        let p = ProcessId::new(0);
        let mut b = HistoryBuilder::new();
        for i in 0..ops as i64 {
            let enq = b.invoke(p, queue::enqueue(i));
            b.respond(enq, OpValue::Bool(true));
            let deq = b.invoke(p, queue::dequeue());
            b.respond(deq, OpValue::Int(i));
        }
        b.build()
    }

    fn violating_history() -> History {
        let p = ProcessId::new(0);
        let mut b = HistoryBuilder::new();
        let deq = b.invoke(p, queue::dequeue());
        b.respond(deq, OpValue::Int(41)); // never enqueued
        for i in 0..10 {
            let enq = b.invoke(p, queue::enqueue(i));
            b.respond(enq, OpValue::Bool(true));
        }
        b.build()
    }

    #[test]
    fn streaming_verdict_matches_the_batch_checker() {
        for history in [correct_history(100), violating_history(), History::new()] {
            let (consumed, verdict) = check_events(QueueSpec::new(), ok(&history)).unwrap();
            let batch = LinSpec::new(QueueSpec::new()).check(&history);
            assert_eq!(verdict.is_violation(), batch.is_violation());
            // On the member path the whole stream is consumed.
            if !verdict.is_violation() {
                assert_eq!(consumed, history);
            }
        }
    }

    #[test]
    fn violations_stop_consumption_early() {
        let history = violating_history();
        let mut checker = StreamingChecker::new(QueueSpec::new());
        let mut fed = 0;
        for event in history.events() {
            fed += 1;
            if checker.push(event.clone()).is_some() {
                break;
            }
        }
        assert_eq!(fed, 2, "the frontier latches at the first bad response");
        let (consumed, verdict) = checker.finish();
        assert!(verdict.is_violation());
        assert_eq!(consumed.len(), 2);
        // The certificate is the violating prefix.
        assert_eq!(verdict.violation().unwrap().history, consumed);
    }

    #[test]
    fn pushing_after_a_latched_verdict_is_inert() {
        let mut checker = StreamingChecker::new(QueueSpec::new());
        for event in violating_history().events() {
            checker.push(event.clone());
        }
        let consumed = checker.events_consumed();
        let p = ProcessId::new(1);
        checker.push(Event::invocation(
            p,
            linrv_history::OpId::new(99),
            Operation::nullary("Dequeue"),
        ));
        assert_eq!(checker.events_consumed(), consumed);
    }

    #[test]
    fn source_errors_propagate() {
        let history = correct_history(3);
        let events = ok(&history)
            .map(|e| e.map_err(|_| "unreachable"))
            .chain(std::iter::once(Err("torn trace")));
        assert_eq!(
            check_events(QueueSpec::new(), events).unwrap_err(),
            "torn trace"
        );
    }

    const LANES: u32 = 4;

    /// `rounds` rounds in which every lane enqueues a fresh value at once:
    /// nothing dequeues in between, so every order within a round stays
    /// possible and the frontier holds `(LANES!)^rounds` configurations.
    /// Returns the builder and the values in one valid FIFO order.
    fn concurrent_enqueue_rounds(rounds: usize) -> (HistoryBuilder, Vec<i64>) {
        let mut b = HistoryBuilder::new();
        let mut values = Vec::new();
        for round in 0..rounds {
            let ids: Vec<_> = (0..LANES)
                .map(|lane| {
                    let value = (round as u32 * LANES + lane) as i64;
                    values.push(value);
                    b.invoke(ProcessId::new(lane), queue::enqueue(value))
                })
                .collect();
            for id in ids {
                b.respond(id, OpValue::Bool(true));
            }
        }
        (b, values)
    }

    fn stream(checker: &mut StreamingChecker<impl SequentialSpec>, history: &History) {
        for event in history.events() {
            checker.push(event.clone());
        }
    }

    #[test]
    fn past_the_bound_the_fallback_still_decides() {
        // 24^3 configurations: past the bound in the third round.
        for swapped in [false, true] {
            let (mut b, mut values) = concurrent_enqueue_rounds(3);
            if swapped {
                // A value of the second round leaves before one of the first.
                values.swap(1, LANES as usize);
            }
            for value in values {
                b.complete(ProcessId::new(0), queue::dequeue(), OpValue::Int(value));
            }
            let mut checker = StreamingChecker::new(QueueSpec::new());
            stream(&mut checker, &b.build());
            assert!(checker.frontier.is_none(), "the bound was not reached");
            assert_eq!(checker.finish().1.is_violation(), swapped);
        }
    }

    #[test]
    fn within_the_bound_no_fallback_is_needed() {
        let (mut b, values) = concurrent_enqueue_rounds(2);
        for value in values {
            b.complete(ProcessId::new(0), queue::dequeue(), OpValue::Int(value));
        }
        let mut checker = StreamingChecker::new(QueueSpec::new());
        stream(&mut checker, &b.build());
        assert!(checker.frontier.is_some());
        assert!(checker.finish().1.is_member());
    }

    /// A queue whose general-search decisions can be counted: the search asks
    /// for the initial state once per decision, and declaring a kind without
    /// a specialized monitor routes every decision to it.
    struct CountedQueue<'a>(&'a AtomicUsize);

    impl SequentialSpec for CountedQueue<'_> {
        type State = <QueueSpec as SequentialSpec>::State;

        fn kind(&self) -> ObjectKind {
            ObjectKind::Consensus
        }

        fn initial_state(&self) -> Self::State {
            self.0.fetch_add(1, Ordering::Relaxed);
            QueueSpec::new().initial_state()
        }

        fn step(
            &self,
            state: &Self::State,
            operation: &Operation,
        ) -> Result<Vec<(Self::State, OpValue)>, SpecError> {
            QueueSpec::new().step(state, operation)
        }
    }

    #[test]
    fn a_fallen_back_stream_keeps_to_its_schedule() {
        // Falls back at the 9th response; 12 + 58 = 70 completed operations.
        let (mut b, _) = concurrent_enqueue_rounds(3);
        for value in 100..158 {
            b.complete(
                ProcessId::new(0),
                queue::enqueue(value),
                OpValue::Bool(true),
            );
        }
        let history = b.build();
        // Two events per operation: the 63rd response is event 126.
        let (before, after) = history.events().split_at(2 * (FIRST_RECHECK - 1));

        // One initial state for the frontier, one per whole-prefix decision.
        let initial_states = AtomicUsize::new(0);
        let mut checker = StreamingChecker::new(CountedQueue(&initial_states));
        for event in before {
            checker.push(event.clone());
        }
        assert!(checker.frontier.is_none(), "the bound was not reached");
        assert_eq!(
            initial_states.load(Ordering::Relaxed),
            1,
            "nothing is due before the schedule's first point, fallback or not"
        );
        for event in after {
            checker.push(event.clone());
        }
        assert_eq!(
            initial_states.load(Ordering::Relaxed),
            2,
            "one re-check at 64 completed operations, none before 128"
        );
        assert!(checker.finish().1.is_member());
        assert_eq!(
            initial_states.load(Ordering::Relaxed),
            3,
            "the final decision"
        );
    }

    #[test]
    fn a_decided_stream_is_never_rechecked() {
        let initial_states = AtomicUsize::new(0);
        let mut checker = StreamingChecker::new(CountedQueue(&initial_states));
        stream(&mut checker, &correct_history(50));
        assert!(checker.finish().1.is_member());
        assert_eq!(initial_states.load(Ordering::Relaxed), 1);
    }

    /// The benchmark's `synthetic_history` shape: lane 0 enqueues fresh
    /// values, lane 1 dequeues them, each pair overlapping in one of three
    /// ways.
    fn two_lane_history(operations: usize) -> History {
        let (producer, consumer) = (ProcessId::new(0), ProcessId::new(1));
        let mut b = HistoryBuilder::new();
        let mut random = 0x9E37_79B9_7F4A_7C15u64;
        for value in 0..(operations / 2) as i64 {
            random = random
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (random >> 33) % 3 {
                0 => {
                    let enqueue = b.invoke(producer, queue::enqueue(value));
                    let dequeue = b.invoke(consumer, queue::dequeue());
                    b.respond(enqueue, OpValue::Bool(true));
                    b.respond(dequeue, OpValue::Int(value));
                }
                1 => {
                    let dequeue = b.invoke(consumer, queue::dequeue());
                    let enqueue = b.invoke(producer, queue::enqueue(value));
                    b.respond(dequeue, OpValue::Int(value));
                    b.respond(enqueue, OpValue::Bool(true));
                }
                _ => {
                    b.complete(producer, queue::enqueue(value), OpValue::Bool(true));
                    b.complete(consumer, queue::dequeue(), OpValue::Int(value));
                }
            }
        }
        b.build()
    }

    /// Cost must not grow with the stream: 100 000 events go through in a
    /// debug build in seconds with a handful of configurations. Re-deciding
    /// the prefix on any schedule does not finish this in minutes.
    #[test]
    fn a_long_unambiguous_stream_stays_cheap() {
        let history = two_lane_history(50_000);
        assert_eq!(history.len(), 100_000);
        let start = std::time::Instant::now();
        let (consumed, verdict) = check_events(QueueSpec::new(), ok(&history)).unwrap();
        assert!(verdict.is_member());
        assert_eq!(consumed.len(), history.len());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "100 000 events took {:?}",
            start.elapsed()
        );

        let mut checker = StreamingChecker::new(QueueSpec::new());
        for event in history.events() {
            checker.push(event.clone());
            let frontier = checker.frontier.as_ref().expect("no fallback");
            assert!(frontier.configs.len() <= 4, "{}", frontier.configs.len());
        }
    }
}
