//! Views: the static encoding of real-time order (Section 7.3.3, Remark 7.2).
//!
//! In the `A → A*` transform (Figure 7), every operation announces an *invocation pair*
//! before calling the underlying implementation `A`, and returns — together with `A`'s
//! response — the set of all invocation pairs announced so far, obtained with an atomic
//! snapshot. That set is the operation's **view**. Views are unordered sets, yet (for
//! tight executions) they capture the real-time order of the execution exactly: this
//! duality between views and interval-sequential histories is what makes the `DRV`
//! class predictively verifiable.
//!
//! # Checking Remark 7.2 without visiting all pairs
//!
//! [`check_view_properties`] decides the three properties exactly on every call, for
//! `t` tuples of `n` processes, in `O(t log t + t·n)` steps plus a binary search per
//! lookup: one sort of the tuples by view size, then three linear passes over that
//! order. (The definitions quantify over all pairs of tuples; taken literally that is
//! `O(t²·v)` per verdict with views of at most `v` pairs, which made the check, not the
//! membership test, the cost of a verifier step.) Two lemmas carry the passes; the
//! representation of a [`View`] makes each step of them cost `n`, not `v`.
//!
//! **Chain lemma (containment comparability).** Let `λ_1, …, λ_t` be the views sorted
//! by size, `|λ_1| ≤ … ≤ |λ_t|`. All pairs of views are ⊆-comparable iff
//! `λ_k ⊆ λ_{k+1}` for every `k < t`. *If:* ⊆ is transitive, so `λ_j ⊆ λ_k` for all
//! `j ≤ k`. *Only if:* comparable neighbours have `λ_k ⊆ λ_{k+1}` or
//! `λ_{k+1} ⊆ λ_k`; in the second case `|λ_{k+1}| ≤ |λ_k| ≤ |λ_{k+1}|` makes the two
//! equal, so the first holds too. Corollary: once the chain holds, views of equal size
//! are equal, and size order is containment order. One subset test per neighbouring
//! link is `O(n)` for views of one [`Drv`](crate::drv::Drv) (a length compare per
//! process), `O(t·n)` in all; views built by hand fall back to an ordered merge,
//! `O(v)` a link.
//!
//! **Latest-witness lemma (process sequentiality).** Assume self-inclusion and the
//! chain hold (both are checked first), and walk the tuples in chain order. Two
//! tuples `a` before `b` of one process and of different operations observe each other
//! iff `b`'s pair is in `λ_a`: the other half, `a`'s pair in `λ_b`, is given by
//! `a`'s pair `∈ λ_a ⊆ λ_b`. And if any such earlier `a` has `b`'s pair in its view, so
//! does the *latest* earlier tuple of that process belonging to another operation,
//! because its view contains `λ_a`. So one lookup per tuple, in the view of that latest
//! tuple, decides the property for all pairs: `O(t log v)`. (Forged input may carry
//! several tuples with one `op_id`; remembering, per process, the last tuple and the
//! last one before it with a different `op_id` always yields that witness.)
//!
//! Self-inclusion is one lookup per tuple. A lookup is a binary search of one
//! process's prefix, `O(log v)`. No pass samples or depends on the build profile.
//!
//! # Continuing a checked prefix
//!
//! A verifier step checks only the tuples above a sketch's stable prefix `P`, whose
//! last view is `W` ([`crate::sketch`]); `P` passed all three checks at the step that
//! settled it. The whole chain is `P`'s chain followed by the new tuples in size order,
//! so self-inclusion needs nothing of `P`, and the chain needs one more link: `P`'s last
//! tuple, whose view is `W`, against the first new one. The latest-witness pass needs
//! nothing of `P` either, as long as no new tuple shares its pair with a tuple of `P`
//! (only forged input does; such a step starts over from scratch).
//!
//! *Proof.* Over the whole chain the pass compares a new tuple `b` with the latest
//! earlier tuple of `b`'s process that belongs to another operation; over the new
//! tuples alone, with the latest such new tuple. The two differ only when the first is
//! a tuple `a` of `P` and the second does not exist, and then the whole pass fails at
//! `b` iff `b`'s pair `x` is in `λ_a ⊆ W`. When `W` was settled, every pair of `W` had a
//! tuple in `τ`; none of `x`'s is in `P`, so that one was a tuple `c` above `W`, of
//! `b`'s operation, and the pass over that step's chain compared `c` with `a` or with a
//! later tuple of another operation of the same process, whose view contains `λ_a`.
//! That pass held, so `x ∉ λ_a`. ∎

use linrv_history::{OpId, OpValue, Operation, ProcessId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::FlatMap;
use std::slice;
use std::sync::{Arc, OnceLock};

/// The announcement a process publishes before invoking the wrapped implementation:
/// "process `p` is about to execute operation `op`" (the pair `(p_i, op_i)` of
/// Figure 7, Line 01).
///
/// The paper assumes all `Apply` inputs are distinct; `op_id` realises that assumption
/// by tagging each announcement with a unique identifier, so a process may re-issue the
/// same operation description without creating ambiguity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvocationPair {
    /// Announcing process.
    pub process: ProcessId,
    /// Unique identifier of the operation instance.
    pub op_id: OpId,
    /// Operation description.
    pub operation: Operation,
}

impl fmt::Display for InvocationPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {} #{})", self.process, self.operation, self.op_id)
    }
}

/// An item of a [`RunSet`]: it belongs to one process and orders by that process
/// first, so the set's ascending order is its processes' runs one after the other.
pub trait Keyed: Clone + Ord {
    /// The process whose log holds the item.
    fn process(&self) -> ProcessId;
}

impl Keyed for InvocationPair {
    fn process(&self) -> ProcessId {
        self.process
    }
}

/// Slots in the first chunk of a log; each later chunk holds twice as many as the one
/// before. A log built from `m` items at once starts with the next power of two at or
/// above `m`.
const FIRST_CHUNK: usize = 4;

/// One process's append-only log (its `set_i` of Figure 7 or its `res_i` of Figure 10,
/// in order, Remark 7.2): its items strictly ascending. A log is its first chunk of
/// slots and, once an append outgrows it, the next log, twice as large; so a log costs
/// its slots and 32 bytes, and slot `k` is `O(log k)` chunks away. Each slot is
/// written once ([`OnceLock`]), so a reader of a prefix never waits and never sees it
/// change, whatever is appended after it.
struct Log<T> {
    slots: Box<[OnceLock<T>]>,
    next: OnceLock<Box<Log<T>>>,
}

impl<T> Log<T> {
    /// A log whose first chunk holds `items` and room for at least `capacity` in all.
    fn new(items: Vec<T>, capacity: usize) -> Self {
        let size = capacity.max(FIRST_CHUNK).next_power_of_two();
        let empty = std::iter::repeat_with(OnceLock::new);
        Log {
            slots: items
                .into_iter()
                .map(OnceLock::from)
                .chain(empty)
                .take(size)
                .collect(),
            next: OnceLock::new(),
        }
    }

    /// The item in slot `index`, once written.
    fn get(&self, mut index: usize) -> Option<&T> {
        let mut chunk = self;
        while index >= chunk.slots.len() {
            index -= chunk.slots.len();
            chunk = chunk.next.get()?;
        }
        chunk.slots[index].get()
    }

    /// Writes `item` to slot `index`, allocating the chunks up to it when the log first
    /// reaches them; gives `item` back when the slot is already written.
    fn put(&self, mut index: usize, item: T) -> Result<(), T> {
        let mut chunk = self;
        while index >= chunk.slots.len() {
            index -= chunk.slots.len();
            let size = 2 * chunk.slots.len();
            chunk = chunk
                .next
                .get_or_init(|| Box::new(Log::new(Vec::new(), size)));
        }
        chunk.slots[index].set(item)
    }
}

/// The item of a slot that a prefix holds.
fn written<T>(slot: &OnceLock<T>) -> &T {
    slot.get().expect("a prefix's slots are written")
}

/// A non-empty prefix of one log: its first `len` items, all of `process`.
struct Run<T> {
    log: Arc<Log<T>>,
    len: usize,
    process: ProcessId,
    /// Whether this run may write the log's next slot: only the run the log was made
    /// for does. A clone does not, so appending to it copies its prefix into a new log,
    /// unless the next slot already holds that very item.
    owned: bool,
}

impl<T> Clone for Run<T> {
    fn clone(&self) -> Self {
        Run {
            log: Arc::clone(&self.log),
            len: self.len,
            process: self.process,
            owned: false,
        }
    }
}

impl<T: Keyed> Run<T> {
    /// The whole of a new log holding `items`: non-empty, of one process, strictly
    /// ascending.
    fn of(items: Vec<T>) -> Run<T> {
        let (len, process) = (items.len(), items[0].process());
        Run {
            log: Arc::new(Log::new(items, len)),
            len,
            process,
            owned: true,
        }
    }

    /// The items of slots `start..len`.
    fn items(&self, start: usize) -> Items<'_, T> {
        Items {
            chunk: &self.log,
            offset: start,
            remaining: self.len.saturating_sub(start),
        }
    }

    fn iter(&self) -> Items<'_, T> {
        self.items(0)
    }

    fn last(&self) -> &T {
        self.log
            .get(self.len - 1)
            .expect("a prefix's slots are written")
    }

    /// Binary search of the prefix, as `slice::binary_search`: the chunks up to the
    /// one whose last item is not below `item`, then a search of that chunk.
    fn search(&self, item: &T) -> Result<usize, usize> {
        let (mut chunk, mut start) = (&*self.log, 0);
        loop {
            let end = self.len.min(start + chunk.slots.len());
            let slots = &chunk.slots[..end - start];
            if end == self.len || written(&slots[slots.len() - 1]) >= item {
                return slots
                    .binary_search_by(|slot| written(slot).cmp(item))
                    .map(|at| start + at)
                    .map_err(|at| start + at);
            }
            start = end;
            chunk = chunk.next.get().expect("a prefix's chunks are allocated");
        }
    }

    /// Appends `item`, larger than every item of the run: to the log itself when the
    /// run owns it or the log's next slot already holds `item`, else to a copy.
    fn push(&mut self, item: T) {
        let refused = if self.owned {
            self.log.put(self.len, item).err()
        } else {
            Some(item)
        };
        match refused {
            Some(item) if self.log.get(self.len) != Some(&item) => {
                *self = Run::of(self.iter().cloned().chain([item]).collect());
            }
            _ => self.len += 1,
        }
    }

    /// Containment of two runs of one process: a length compare for two prefixes of
    /// one log, else an ordered merge.
    fn is_subset(&self, other: &Run<T>) -> bool {
        if Arc::ptr_eq(&self.log, &other.log) {
            return self.len <= other.len;
        }
        let mut theirs = other.iter();
        self.len <= other.len && self.iter().all(|item| theirs.any(|their| their == item))
    }
}

/// A set of items held as one prefix of an append-only log per process: the one set
/// type of both shared arrays, as [`View`] (`N`'s pairs) and as [`TupleSet`] (`M`'s
/// tuples).
///
/// **Representation.** Per process with an item in the set, a run `(Arc<log>, len)`, in
/// process order. Items order by process first and each log is ascending, so the set's
/// ascending order is the runs one after the other. A process's entry of a shared
/// array appends each new item to its own log in place, and publishes a clone: a
/// reference count per process. The union of a scan reads `n` runs; no item is ever
/// copied.
///
/// **Fast paths and the merge path.** Two runs of one log are nested prefixes: their
/// containment is a length compare, their union the longer one and their difference
/// the longer one's tail. [`contains`](RunSet::contains) is one binary search. Sets
/// built by hand ([`FromIterator`], [`insert`](RunSet::insert) out of order or into a
/// clone, [`remove`](RunSet::remove) inside a run) get logs of their own, and runs of
/// two different logs compare, unite and differ by an ordered merge; so every answer,
/// forged input included, is the set's.
///
/// **Set semantics.** `Eq`, `Ord`, `Hash` and `Debug` are those of a `BTreeSet`
/// holding the same items: `Ord` compares the ascending items lexicographically, so a
/// [`TupleSet`]'s order, and with it every sketch, witness and certificate, is what it
/// was with sets.
#[derive(Clone)]
pub struct RunSet<T> {
    /// One run per process with an item in the set, by process; each run's log holds
    /// items of its process only.
    runs: Vec<Run<T>>,
    /// The number of items: the runs' lengths summed.
    len: usize,
}

/// A view: the set of invocation pairs a completed operation observed in its snapshot
/// (Figure 7, Lines 05–06). The [`Drv`](crate::drv::Drv) wrapper appends each
/// announcement to its process's log and publishes a one-run view, so a view is `n`
/// prefixes of the announcement logs.
pub type View = RunSet<InvocationPair>;

/// A set of view tuples — the `λ_E` of Section 7.3.3 and the content the verifier
/// exchanges through its snapshot object (Figure 10, variable `τ_i`). `res_i` is one
/// run of `p_i`'s result log: `Verifier::record` moves the tuple into the log's next
/// slot, and the union `τ` of a scan of `M` holds the `n` runs it read.
pub type TupleSet = RunSet<ViewTuple>;

impl<T> Default for RunSet<T> {
    fn default() -> Self {
        RunSet {
            runs: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Keyed> RunSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        RunSet::default()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the set holds no item.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The items in ascending order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter(self.runs.iter().flat_map(Run::iter as RunItems<'_, T>))
    }

    /// Returns `true` when `item` is in the set: one binary search.
    pub fn contains(&self, item: &T) -> bool {
        self.run(item.process())
            .is_some_and(|run| run.search(item).is_ok())
    }

    /// Returns `true` when every item of the set is in `other`: per process, a length
    /// compare when both runs are of one log.
    pub fn is_subset(&self, other: &RunSet<T>) -> bool {
        let mut theirs = other.runs.iter();
        self.len <= other.len
            && self.runs.iter().all(|mine| {
                theirs
                    .find(|run| run.process >= mine.process)
                    .is_some_and(|run| run.process == mine.process && mine.is_subset(run))
            })
    }

    /// The items of the set that are not in `other`, ascending: per process, the tail
    /// of the run past `other`'s when both are of one log, else the items `other`'s run
    /// does not hold.
    pub fn difference<'a>(&'a self, other: &'a RunSet<T>) -> impl Iterator<Item = &'a T> + 'a {
        self.runs.iter().flat_map(move |mine| {
            let theirs = other.run(mine.process);
            let shared = theirs.filter(|theirs| Arc::ptr_eq(&mine.log, &theirs.log));
            let start = shared.map_or(0, |theirs| theirs.len.min(mine.len));
            let lookup = theirs.filter(|_| shared.is_none());
            mine.items(start)
                .filter(move |item| lookup.map_or(true, |theirs| theirs.search(item).is_err()))
        })
    }

    /// Adds `item`; returns `false` when it was already present. An item larger than
    /// every other of its process is appended to that process's run.
    pub fn insert(&mut self, item: T) -> bool {
        match self.position(item.process()) {
            Err(at) => self.runs.insert(at, Run::of(vec![item])),
            Ok(at) => {
                let run = &mut self.runs[at];
                if *run.last() < item {
                    run.push(item);
                } else {
                    let Err(index) = run.search(&item) else {
                        return false;
                    };
                    let mut items: Vec<T> = run.iter().cloned().collect();
                    items.insert(index, item);
                    *run = Run::of(items);
                }
            }
        }
        self.len += 1;
        true
    }

    /// Removes `item`; returns `false` when it was absent. Removing the last item of a
    /// run keeps the shorter prefix of the same log.
    pub fn remove(&mut self, item: &T) -> bool {
        let Ok(at) = self.position(item.process()) else {
            return false;
        };
        let run = &mut self.runs[at];
        let Ok(index) = run.search(item) else {
            return false;
        };
        if run.len == 1 {
            self.runs.remove(at);
        } else if index + 1 == run.len {
            run.len -= 1;
        } else {
            let rest = run.iter().enumerate().filter(|&(i, _)| i != index);
            *run = Run::of(rest.map(|(_, item)| item.clone()).collect());
        }
        self.len -= 1;
        true
    }

    /// The union of `sets`. Per process: the longest run when all runs are of one log
    /// (prefixes of one log are nested), else an ordered merge into a new log. The
    /// union of the `n` entries of a scan of a shared array is `n` reference counts.
    pub fn union_of(sets: impl IntoIterator<Item = RunSet<T>>) -> Self {
        let mut runs: Vec<Run<T>> = sets.into_iter().flat_map(|set| set.runs).collect();
        runs.sort_by_key(|run| run.process);
        let mut union = RunSet::new();
        for group in runs.chunk_by(|a, b| a.process == b.process) {
            let run = if group.iter().all(|run| Arc::ptr_eq(&run.log, &group[0].log)) {
                group
                    .iter()
                    .max_by_key(|run| run.len)
                    .expect("a group is not empty")
                    .clone()
            } else {
                let items: BTreeSet<&T> = group.iter().flat_map(Run::iter).collect();
                Run::of(items.into_iter().cloned().collect())
            };
            union.len += run.len;
            union.runs.push(run);
        }
        union
    }

    /// Where the run of `process` is, or would go.
    fn position(&self, process: ProcessId) -> Result<usize, usize> {
        self.runs.binary_search_by_key(&process, |run| run.process)
    }

    fn run(&self, process: ProcessId) -> Option<&Run<T>> {
        self.position(process).ok().map(|at| &self.runs[at])
    }
}

/// Set equality: equal sizes and containment.
impl<T: Keyed> PartialEq for RunSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.is_subset(other)
    }
}

impl<T: Keyed> Eq for RunSet<T> {}

/// The ascending items compared lexicographically, as `BTreeSet`'s `Ord`.
impl<T: Keyed> Ord for RunSet<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl<T: Keyed> PartialOrd for RunSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The length, then the ascending items, as `BTreeSet`'s `Hash`.
impl<T: Keyed + Hash> Hash for RunSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len);
        for item in self {
            item.hash(state);
        }
    }
}

impl<T: Keyed + fmt::Debug> fmt::Debug for RunSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Keyed> FromIterator<T> for RunSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let sorted: BTreeSet<T> = items.into_iter().collect();
        let mut set = RunSet::new();
        let mut rest = sorted.into_iter().peekable();
        while let Some(first) = rest.next() {
            let mut items = vec![first];
            while let Some(item) = rest.next_if(|item| item.process() == items[0].process()) {
                items.push(item);
            }
            set.len += items.len();
            set.runs.push(Run::of(items));
        }
        set
    }
}

impl<T: Keyed, const N: usize> From<[T; N]> for RunSet<T> {
    fn from(items: [T; N]) -> Self {
        items.into_iter().collect()
    }
}

impl<T: Keyed> Extend<T> for RunSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.insert(item);
        }
    }
}

impl<'a, T: Keyed> IntoIterator for &'a RunSet<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// The items of some slots of one log: `remaining` of them from slot `offset` of
/// `chunk` on.
struct Items<'a, T> {
    chunk: &'a Log<T>,
    offset: usize,
    remaining: usize,
}

impl<'a, T> Iterator for Items<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.remaining == 0 {
            return None;
        }
        while self.offset >= self.chunk.slots.len() {
            self.offset -= self.chunk.slots.len();
            self.chunk = self
                .chunk
                .next
                .get()
                .expect("a prefix's chunks are allocated");
        }
        self.remaining -= 1;
        self.offset += 1;
        Some(written(&self.chunk.slots[self.offset - 1]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// The ascending iteration behind [`RunSet::iter`]: the runs one after the other.
pub struct Iter<'a, T>(FlatMap<slice::Iter<'a, Run<T>>, Items<'a, T>, RunItems<'a, T>>);

type RunItems<'a, T> = fn(&'a Run<T>) -> Items<'a, T>;

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.0.next()
    }
}

/// The 4-tuple `(p_i, op_i, y_i, λ_i)` associated with a completed operation of an
/// implementation in the `DRV` class: the process, the operation, the response obtained
/// from the underlying implementation, and the view.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewTuple {
    /// The invocation pair identifying the operation.
    pub pair: InvocationPair,
    /// The response obtained from the underlying implementation `A`.
    pub response: OpValue,
    /// The view returned by the operation.
    pub view: View,
}

impl ViewTuple {
    /// Creates a view tuple.
    pub fn new(pair: InvocationPair, response: OpValue, view: View) -> Self {
        ViewTuple {
            pair,
            response,
            view,
        }
    }
}

impl Keyed for ViewTuple {
    fn process(&self) -> ProcessId {
        self.pair.process
    }
}

impl fmt::Display for ViewTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} : {}  view={{{}}}",
            self.pair,
            self.response,
            self.view
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Violations of the view properties of Remark 7.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewPropertyError {
    /// An operation's own invocation pair is missing from its view (self-inclusion).
    SelfInclusion {
        /// The offending tuple's invocation pair.
        pair: InvocationPair,
    },
    /// Two views are incomparable under containment (containment comparability).
    Incomparable {
        /// One of the two offending operations.
        left: InvocationPair,
        /// The other offending operation.
        right: InvocationPair,
    },
    /// Two operations of the same process each contain the other in their views
    /// (process sequentiality).
    ProcessSequentiality {
        /// One of the two offending operations.
        first: InvocationPair,
        /// The other offending operation.
        second: InvocationPair,
    },
}

impl fmt::Display for ViewPropertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewPropertyError::SelfInclusion { pair } => {
                write!(f, "view of {pair} does not contain the operation itself")
            }
            ViewPropertyError::Incomparable { left, right } => {
                write!(
                    f,
                    "views of {left} and {right} are incomparable under containment"
                )
            }
            ViewPropertyError::ProcessSequentiality { first, second } => write!(
                f,
                "operations {first} and {second} of the same process observe each other"
            ),
        }
    }
}

impl std::error::Error for ViewPropertyError {}

/// Checks the three view properties of Remark 7.2 over a set of view tuples:
///
/// 1. **Self-inclusion** — `(p_i, op_i) ∈ λ_i`;
/// 2. **Containment comparability** — any two views are ⊆-comparable;
/// 3. **Process sequentiality** — two distinct operations of the same process cannot
///    both appear in each other's views.
///
/// Any set of tuples produced by an implementation in the `DRV` class satisfies these
/// properties; the sketch construction ([`crate::sketch`]) relies on them. All three are
/// decided exactly, in `O(t log t + t·n)` plus a binary search per lookup for `t` tuples
/// of `n` processes (see the [module docs](self)); when several
/// are violated, self-inclusion is reported before comparability before process
/// sequentiality.
pub fn check_view_properties(tuples: &TupleSet) -> Result<(), ViewPropertyError> {
    checked_chain(tuples).map(|_| ())
}

/// The tuples in ascending order of view size (ties in `TupleSet` order), after checking
/// all of Remark 7.2 on them. On `Ok` that order is the containment order of the views
/// and two neighbours of equal size hold equal views (module docs, chain lemma), which
/// is what [`crate::sketch`] builds `X(λ)` from without comparing views again.
pub(crate) fn checked_chain(tuples: &TupleSet) -> Result<Vec<&ViewTuple>, ViewPropertyError> {
    let mut chain: Vec<&ViewTuple> = tuples.iter().collect();
    chain.sort_by_key(|tuple| tuple.view.len());
    check_above(&chain, None)?;
    Ok(chain)
}

/// Checks all of Remark 7.2 on `chain`, size-sorted tuples that continue a checked
/// prefix of the chain whose last tuple is `boundary`, none of them sharing its pair
/// with a tuple of that prefix (module docs, continuing a checked prefix); with `None`,
/// `chain` is the whole chain. Reports what the three passes over the whole chain would.
pub(crate) fn check_above(
    chain: &[&ViewTuple],
    boundary: Option<&ViewTuple>,
) -> Result<(), ViewPropertyError> {
    for tuple in chain {
        if !tuple.view.contains(&tuple.pair) {
            return Err(ViewPropertyError::SelfInclusion {
                pair: tuple.pair.clone(),
            });
        }
    }

    // Chain lemma: every link holding is comparability of all pairs.
    let mut linked = boundary.into_iter().chain(chain.iter().copied());
    if let Some(mut left) = linked.next() {
        for right in linked {
            if !left.view.is_subset(&right.view) {
                return Err(ViewPropertyError::Incomparable {
                    left: left.pair.clone(),
                    right: right.pair.clone(),
                });
            }
            left = right;
        }
    }

    // Latest-witness lemma: per process, the last tuple met so far and the last one
    // before it that belongs to another operation (the two differ in `op_id`, so one of
    // them is the latest earlier tuple of an operation other than `tuple`'s).
    let mut latest: BTreeMap<ProcessId, (&ViewTuple, Option<&ViewTuple>)> = BTreeMap::new();
    for &tuple in chain {
        let other = match latest.get(&tuple.pair.process) {
            Some(&(last, _)) if last.pair.op_id != tuple.pair.op_id => Some(last),
            Some(&(_, before)) => before,
            None => None,
        };
        if let Some(earlier) = other {
            if earlier.view.contains(&tuple.pair) {
                return Err(ViewPropertyError::ProcessSequentiality {
                    first: earlier.pair.clone(),
                    second: tuple.pair.clone(),
                });
            }
        }
        latest.insert(tuple.pair.process, (tuple, other));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_spec::ops::queue;

    fn pair(p: u32, id: u64) -> InvocationPair {
        InvocationPair {
            process: ProcessId::new(p),
            op_id: OpId::new(id),
            operation: queue::enqueue(id as i64),
        }
    }

    fn view_of(pairs: &[&InvocationPair]) -> View {
        pairs.iter().map(|p| (*p).clone()).collect()
    }

    #[test]
    fn valid_views_pass_all_three_properties() {
        let a = pair(0, 0);
        let b = pair(1, 1);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(
            a.clone(),
            OpValue::Bool(true),
            view_of(&[&a]),
        ));
        tuples.insert(ViewTuple::new(
            b.clone(),
            OpValue::Bool(true),
            view_of(&[&a, &b]),
        ));
        assert_eq!(check_view_properties(&tuples), Ok(()));
    }

    #[test]
    fn missing_self_inclusion_is_detected() {
        let a = pair(0, 0);
        let b = pair(1, 1);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(
            a.clone(),
            OpValue::Bool(true),
            view_of(&[&b]),
        ));
        assert!(matches!(
            check_view_properties(&tuples),
            Err(ViewPropertyError::SelfInclusion { .. })
        ));
    }

    #[test]
    fn incomparable_views_are_detected() {
        let a = pair(0, 0);
        let b = pair(1, 1);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(
            a.clone(),
            OpValue::Bool(true),
            view_of(&[&a]),
        ));
        tuples.insert(ViewTuple::new(
            b.clone(),
            OpValue::Bool(true),
            view_of(&[&b]),
        ));
        assert!(matches!(
            check_view_properties(&tuples),
            Err(ViewPropertyError::Incomparable { .. })
        ));
    }

    #[test]
    fn mutual_observation_by_one_process_is_detected() {
        let a = pair(0, 0);
        let b = pair(0, 1);
        let mut tuples = TupleSet::new();
        tuples.insert(ViewTuple::new(
            a.clone(),
            OpValue::Bool(true),
            view_of(&[&a, &b]),
        ));
        tuples.insert(ViewTuple::new(
            b.clone(),
            OpValue::Bool(true),
            view_of(&[&a, &b]),
        ));
        assert!(matches!(
            check_view_properties(&tuples),
            Err(ViewPropertyError::ProcessSequentiality { .. })
        ));
    }

    fn tuple(p: u32, id: u64) -> ViewTuple {
        let own = pair(p, id);
        ViewTuple::new(own.clone(), OpValue::Bool(true), view_of(&[&own]))
    }

    fn addresses(set: &TupleSet) -> Vec<*const ViewTuple> {
        set.iter().map(|tuple| tuple as *const ViewTuple).collect()
    }

    /// An owner's append moves the tuple into its log's next slot: every tuple recorded
    /// before keeps its allocation, in the owner and in every clone taken before, across
    /// chunk boundaries. A write to a clone copies only the clone's run of the process
    /// it writes to, as a view's does: the original keeps its tuples, and the clone
    /// still shares every other process's run.
    #[test]
    fn a_write_to_a_clone_copies_only_its_own_run() {
        let mut owner = TupleSet::new();
        let mut clones: Vec<(TupleSet, Vec<*const ViewTuple>)> = Vec::new();
        for id in 0..40 {
            assert!(owner.insert(tuple(0, id)));
            let now = addresses(&owner);
            for (clone, then) in &clones {
                assert!(now.starts_with(then), "record {id} moved a tuple");
                assert_eq!(&addresses(clone), then, "record {id} changed a clone");
            }
            clones.push((owner.clone(), now));
        }

        let mut both = owner.clone();
        both.extend((0..6).map(|id| tuple(1, 100 + id)));
        let before = addresses(&both);
        let mut copy = both.clone();
        assert!(copy.insert(tuple(1, 200)));
        assert_eq!((both.len(), copy.len()), (46, 47));
        assert_eq!(addresses(&both), before, "the write reached the original");
        let (mine, theirs) = (addresses(&copy), &before);
        assert_eq!(mine[..40], theirs[..40], "process 0's run was copied");
        for (at, (mine, theirs)) in mine[40..46].iter().zip(&theirs[40..]).enumerate() {
            assert!(
                !std::ptr::eq(*mine, *theirs),
                "tuple {at} of process 1 is shared"
            );
        }
        assert!(copy.iter().zip(&both).all(|(a, b)| a == b));
    }

    #[test]
    fn display_formats_are_informative() {
        let a = pair(0, 3);
        let t = ViewTuple::new(a.clone(), OpValue::Bool(true), view_of(&[&a]));
        assert!(t.to_string().contains("Enqueue(3)"));
        let err = ViewPropertyError::SelfInclusion { pair: a };
        assert!(err.to_string().contains("does not contain"));
    }

    /// A seeded `splitmix64` stream: the differential runs are pure functions of
    /// their seeds.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// The items a differential run writes, of both arrays.
    trait Item: Keyed + fmt::Debug + Hash {
        /// A new item of process `p`, above every earlier one of it when `id` is.
        fn fresh(p: u32, id: u64) -> Self;

        /// Another item under the same process and identifier, as a forged second
        /// announcement or response of one operation is.
        fn twin(&self) -> Self;
    }

    impl Item for InvocationPair {
        fn fresh(p: u32, id: u64) -> Self {
            pair(p, id)
        }

        fn twin(&self) -> Self {
            InvocationPair {
                operation: queue::dequeue(),
                ..self.clone()
            }
        }
    }

    impl Item for ViewTuple {
        fn fresh(p: u32, id: u64) -> Self {
            tuple(p, id)
        }

        fn twin(&self) -> Self {
            ViewTuple {
                response: OpValue::Error,
                ..self.clone()
            }
        }
    }

    /// A set and the `BTreeSet` it must behave as.
    type Pair<T> = (RunSet<T>, BTreeSet<T>);

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Asserts that `set` is the set `oracle` to every query of one set.
    fn assert_is<T: Item>(set: &RunSet<T>, oracle: &BTreeSet<T>, known: &[T]) {
        assert_eq!(set.len(), oracle.len(), "len of {set:?}");
        assert_eq!(set.is_empty(), oracle.is_empty());
        assert!(set.iter().eq(oracle.iter()), "{set:?} against {oracle:?}");
        for item in known {
            let expected = oracle.contains(item);
            assert_eq!(set.contains(item), expected, "{item:?} in {set:?}");
        }
        assert_eq!(format!("{set:?}"), format!("{oracle:?}"));
        assert_eq!(hash_of(set), hash_of(oracle), "hash of {set:?}");
    }

    /// Asserts that two sets relate as their oracles do, and counts whether they
    /// shared a log for some process (`.0`) or held different logs for one (`.1`).
    fn assert_relate<T: Item>(a: &Pair<T>, b: &Pair<T>, coverage: &mut (usize, usize)) {
        let ((x, xs), (y, ys)) = (a, b);
        assert_eq!(x.is_subset(y), xs.is_subset(ys), "{x:?} ⊆ {y:?}");
        assert_eq!(y.is_subset(x), ys.is_subset(xs), "{y:?} ⊆ {x:?}");
        assert!(x.difference(y).eq(xs.difference(ys)), "{x:?} \\ {y:?}");
        assert!(y.difference(x).eq(ys.difference(xs)), "{y:?} \\ {x:?}");
        assert_eq!(x == y, xs == ys, "{x:?} = {y:?}");
        assert_eq!(x.cmp(y), xs.cmp(ys), "{x:?} against {y:?}");
        for mine in &x.runs {
            if let Some(theirs) = y.run(mine.process) {
                if Arc::ptr_eq(&mine.log, &theirs.log) {
                    coverage.0 += usize::from(mine.len != theirs.len);
                } else {
                    coverage.1 += 1;
                }
            }
        }
    }

    /// One seeded run: three owners append items as `SharedSets` does (now and then
    /// one of another process, as a `record` of a foreign tuple does), and a pool of
    /// sets is fed by their clones (`collect`, a publication) and unions, then written
    /// to by hand: inserts in and out of order, twins, appends that find the owner's
    /// next item already in the log, removes, `FromIterator`, `Extend`. Every written
    /// set is checked against its oracle, and a random two of them against each other.
    /// Returns the coverage counts of [`assert_relate`].
    fn differential_run<T: Item>(seed: u64, steps: usize) -> (usize, usize) {
        const PROCESSES: usize = 3;
        let mut rng = Rng(seed);
        let mut next_id = 0;
        let mut fresh = |process: usize| {
            next_id += 1;
            T::fresh(process as u32, next_id)
        };
        let mut owners: Vec<Pair<T>> = (0..PROCESSES).map(|_| Pair::default()).collect();
        let mut pool: Vec<Pair<T>> = vec![Pair::default()];
        let mut known: Vec<T> = vec![T::fresh(0, u64::MAX)];
        let mut coverage = (0, 0);
        for _ in 0..steps {
            let process = rng.below(PROCESSES);
            let at = rng.below(pool.len());
            let touched: Pair<T> = match rng.below(10) {
                0..=2 => {
                    let foreign = rng.below(8) == 0;
                    let added = fresh(if foreign {
                        rng.below(PROCESSES)
                    } else {
                        process
                    });
                    known.push(added.clone());
                    let (set, oracle) = &mut owners[process];
                    assert!(set.insert(added.clone()));
                    oracle.insert(added);
                    owners[process].clone()
                }
                3 => {
                    let sets = owners.iter().map(|(set, _)| set.clone());
                    let oracle = owners.iter().flat_map(|(_, oracle)| oracle.iter().cloned());
                    (RunSet::union_of(sets), oracle.collect())
                }
                4 => {
                    let (set, oracle) = &mut pool[at];
                    let added = match rng.below(4) {
                        0 => {
                            let twin = known[rng.below(known.len())].twin();
                            known.push(twin.clone());
                            twin
                        }
                        1 => known[rng.below(known.len())].clone(),
                        _ => {
                            let added = fresh(process);
                            known.push(added.clone());
                            added
                        }
                    };
                    assert_eq!(set.insert(added.clone()), oracle.insert(added));
                    pool[at].clone()
                }
                5 => {
                    // The item after the set's last one of `process` in the owner's
                    // log: that slot already holds it, so the append shares the log.
                    let (set, oracle) = &mut pool[at];
                    let of_process = |item: &&T| item.process().index() == process;
                    let last = oracle.iter().rev().find(of_process);
                    let next = owners[process]
                        .1
                        .iter()
                        .filter(of_process)
                        .find(|item| last.map_or(true, |last| *item > last));
                    if let Some(next) = next.cloned() {
                        assert_eq!(set.insert(next.clone()), oracle.insert(next));
                    }
                    pool[at].clone()
                }
                6 => {
                    let (set, oracle) = &mut pool[at];
                    let gone = if rng.below(3) > 0 && !oracle.is_empty() {
                        oracle.iter().nth(rng.below(oracle.len())).cloned().unwrap()
                    } else {
                        known[rng.below(known.len())].clone()
                    };
                    assert_eq!(set.remove(&gone), oracle.remove(&gone));
                    pool[at].clone()
                }
                7 => {
                    let oracle: BTreeSet<T> = known
                        .iter()
                        .filter(|_| rng.below(3) == 0)
                        .cloned()
                        .collect();
                    (oracle.iter().rev().cloned().collect(), oracle)
                }
                8 => {
                    let other = &pool[rng.below(pool.len())];
                    let sets = [pool[at].0.clone(), other.0.clone()];
                    let oracle = pool[at].1.union(&other.1).cloned().collect();
                    (RunSet::union_of(sets), oracle)
                }
                _ => {
                    let (set, oracle) = &mut pool[at];
                    let added: Vec<T> = (0..rng.below(4))
                        .map(|_| known[rng.below(known.len())].clone())
                        .collect();
                    set.extend(added.iter().cloned());
                    oracle.extend(added);
                    pool[at].clone()
                }
            };
            assert_is(&touched.0, &touched.1, &known);
            pool.push(touched);
            if pool.len() > 8 {
                pool.swap_remove(rng.below(pool.len()));
            }
            let others = pool.len() + owners.len();
            let pick = |i: usize| {
                if i < pool.len() {
                    &pool[i]
                } else {
                    &owners[i - pool.len()]
                }
            };
            let (a, b) = (pick(rng.below(others)), pick(rng.below(others)));
            assert_relate(a, b, &mut coverage);
        }
        for (set, oracle) in owners.iter().chain(&pool) {
            assert_is(set, oracle, &known);
        }
        coverage
    }

    fn differential<T: Item>(seeds: std::ops::Range<u64>) {
        let mut coverage = (0, 0);
        for seed in seeds.clone() {
            let (shared, merged) = differential_run::<T>(seed, 300);
            coverage = (coverage.0 + shared, coverage.1 + merged);
        }
        let runs = (seeds.end - seeds.start) as usize;
        assert!(
            coverage.0 > 20 * runs && coverage.1 > 20 * runs,
            "{coverage:?}: too few comparisons on one log or on two"
        );
    }

    /// `View` against a `BTreeSet<InvocationPair>` oracle on seeded sequences of
    /// writes, on the shared-log fast paths and on the merge path.
    #[test]
    fn views_behave_as_btree_sets() {
        differential::<InvocationPair>(0..40);
    }

    /// The same on ten times the seeds (`--release -- --ignored`).
    #[test]
    #[ignore = "ten times the seeds of views_behave_as_btree_sets; CI runs it in release"]
    fn views_behave_as_btree_sets_on_many_seeds() {
        differential::<InvocationPair>(0..400);
    }

    /// `TupleSet` against a `BTreeSet<ViewTuple>` oracle on the same sequences of
    /// writes, foreign-process tuples and twins included.
    #[test]
    fn tuple_sets_behave_as_btree_sets() {
        differential::<ViewTuple>(0..40);
    }

    /// The same on ten times the seeds (`--release -- --ignored`).
    #[test]
    #[ignore = "ten times the seeds of tuple_sets_behave_as_btree_sets; CI runs it in release"]
    fn tuple_sets_behave_as_btree_sets_on_many_seeds() {
        differential::<ViewTuple>(0..400);
    }
}
