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
use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::FlatMap;
use std::ops::Range;
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

/// Pairs in the first chunk of an announcement log; each later chunk holds twice as
/// many as the one before. A log built from `m` pairs at once starts with the next
/// power of two at or above `m`.
const FIRST_CHUNK: usize = 4;

/// Chunks per log: room for `FIRST_CHUNK · (2³² − 1)` pairs, more than memory holds.
const CHUNKS: usize = 32;

/// One process's append-only announcement log (the process's `set_i` of Figure 7, in
/// order, Remark 7.2): its pairs strictly ascending, so in `op_id` order, held in
/// chunks that double in size and are allocated when the log first reaches them. Each
/// slot is written once ([`OnceLock`]), so a reader of a prefix never waits and never
/// sees it change, whatever is appended after it.
struct Log {
    process: ProcessId,
    /// `log2` of the first chunk's size.
    shift: u32,
    chunks: [OnceLock<Box<[OnceLock<InvocationPair>]>>; CHUNKS],
}

impl Log {
    /// An empty log of `process` whose first chunk holds at least `capacity` pairs.
    fn new(process: ProcessId, capacity: usize) -> Self {
        Log {
            process,
            shift: capacity
                .max(FIRST_CHUNK)
                .next_power_of_two()
                .trailing_zeros(),
            chunks: [const { OnceLock::new() }; CHUNKS],
        }
    }

    /// The chunk of slot `index` and the slot's offset in it: chunk `k` holds the
    /// slots from `(2^k − 1)·first` on.
    fn locate(&self, index: usize) -> (usize, usize) {
        let chunk = ((index >> self.shift) + 1).ilog2() as usize;
        (chunk, index - (((1 << chunk) - 1) << self.shift))
    }

    /// The pair in slot `index`, once written.
    fn get(&self, index: usize) -> Option<&InvocationPair> {
        let (chunk, offset) = self.locate(index);
        self.chunks[chunk].get()?[offset].get()
    }

    /// The pair in slot `index` of a prefix that holds it.
    fn entry(&self, index: usize) -> &InvocationPair {
        self.get(index).expect("a prefix's slots are written")
    }

    /// Writes `pair` to slot `index`, allocating its chunk when the log first reaches
    /// it; gives `pair` back when the slot is already written.
    fn put(&self, index: usize, pair: InvocationPair) -> Result<(), InvocationPair> {
        let (chunk, offset) = self.locate(index);
        let slots = self.chunks[chunk].get_or_init(|| {
            (0..1usize << (self.shift as usize + chunk))
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[offset].set(pair)
    }
}

/// A non-empty prefix of one log: its first `len` pairs.
struct Run {
    log: Arc<Log>,
    len: usize,
    /// Whether this run may write the log's next slot: only the run the log was made
    /// for does. A clone does not, so appending to it copies its prefix into a new log,
    /// unless the next slot already holds that very pair.
    owned: bool,
}

impl Clone for Run {
    fn clone(&self) -> Self {
        Run {
            log: Arc::clone(&self.log),
            len: self.len,
            owned: false,
        }
    }
}

impl Run {
    /// The whole of a new log holding `pairs`: non-empty, of one process, strictly
    /// ascending.
    fn of(pairs: Vec<InvocationPair>) -> Run {
        let (log, len) = (Log::new(pairs[0].process, pairs.len()), pairs.len());
        for (index, pair) in pairs.into_iter().enumerate() {
            log.put(index, pair).expect("a new log is empty");
        }
        Run {
            log: Arc::new(log),
            len,
            owned: true,
        }
    }

    fn process(&self) -> ProcessId {
        self.log.process
    }

    /// The pairs of slots `range`, which the prefix holds.
    fn pairs(&self, range: Range<usize>) -> Pairs<'_> {
        Pairs {
            log: &self.log,
            range,
        }
    }

    fn iter(&self) -> Pairs<'_> {
        self.pairs(0..self.len)
    }

    /// Binary search of the prefix, as `slice::binary_search`.
    fn search(&self, pair: &InvocationPair) -> Result<usize, usize> {
        let (mut low, mut high) = (0, self.len);
        while low < high {
            let middle = low + (high - low) / 2;
            match self.log.entry(middle).cmp(pair) {
                std::cmp::Ordering::Less => low = middle + 1,
                std::cmp::Ordering::Greater => high = middle,
                std::cmp::Ordering::Equal => return Ok(middle),
            }
        }
        Err(low)
    }

    /// Appends `pair`, larger than every pair of the run: to the log itself when the
    /// run owns it or the log's next slot already holds `pair`, else to a copy.
    fn push(&mut self, pair: InvocationPair) {
        let refused = if self.owned {
            self.log.put(self.len, pair).err()
        } else {
            Some(pair)
        };
        match refused {
            Some(pair) if self.log.get(self.len) != Some(&pair) => {
                *self = Run::of(self.iter().cloned().chain([pair]).collect());
            }
            _ => self.len += 1,
        }
    }

    /// Containment of two runs of one process: a length compare for two prefixes of
    /// one log, else an ordered merge.
    fn is_subset(&self, other: &Run) -> bool {
        if Arc::ptr_eq(&self.log, &other.log) {
            return self.len <= other.len;
        }
        let mut theirs = other.iter();
        self.len <= other.len && self.iter().all(|pair| theirs.any(|their| their == pair))
    }
}

/// A view: the set of invocation pairs a completed operation observed in its snapshot
/// (Figure 7, Lines 05–06).
///
/// **Representation.** A view holds, per process with a pair in it, a prefix
/// `(Arc<log>, len)` of an append-only log of that process's pairs, in process order.
/// Pairs order by process first and each log is ascending, so the set's ascending
/// order is the runs one after the other. The [`Drv`](crate::drv::Drv) wrapper appends
/// each announcement to its process's log (allocated at that process's first
/// announce) and publishes a one-run view, so `Clone` costs a reference count per
/// process and the union of a scan reads `n` runs; no pair is ever copied.
///
/// **Fast paths and the merge path.** Two runs of one log are nested prefixes: their
/// containment is a length compare, their union the longer one and their difference
/// the longer one's tail. [`contains`](View::contains) is one binary search. Views
/// built by hand ([`FromIterator`], [`insert`](View::insert) out of order,
/// [`remove`](View::remove) inside a run) get logs of their own, and runs of two
/// different logs compare, unite and differ by an ordered merge; so every answer,
/// forged input included, is the set's.
///
/// **Set semantics.** `Eq`, `Ord`, `Hash` and `Debug` are those of a
/// `BTreeSet<InvocationPair>` holding the same pairs: `Ord` compares the ascending
/// pairs lexicographically, so a [`TupleSet`]'s order, and with it every sketch,
/// witness and certificate, is what it was with sets.
#[derive(Clone, Default)]
pub struct View {
    /// One run per process with a pair in the view, by process; each run's log holds
    /// pairs of its process only.
    runs: Vec<Run>,
    /// The number of pairs: the runs' lengths summed.
    len: usize,
}

impl View {
    /// An empty view.
    pub fn new() -> Self {
        View::default()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the view holds no pair.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pairs in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(
            self.runs
                .iter()
                .flat_map(Run::iter as fn(&Run) -> Pairs<'_>),
        )
    }

    /// Returns `true` when `pair` is in the view: one binary search.
    pub fn contains(&self, pair: &InvocationPair) -> bool {
        self.run(pair.process)
            .is_some_and(|run| run.search(pair).is_ok())
    }

    /// Returns `true` when every pair of the view is in `other`: per process, a length
    /// compare when both runs are of one log.
    pub fn is_subset(&self, other: &View) -> bool {
        let mut theirs = other.runs.iter();
        self.len <= other.len
            && self.runs.iter().all(|mine| {
                theirs
                    .find(|run| run.process() >= mine.process())
                    .is_some_and(|run| run.process() == mine.process() && mine.is_subset(run))
            })
    }

    /// The pairs of the view that are not in `other`, ascending: per process, the tail
    /// of the run past `other`'s when both are of one log, else the pairs `other`'s run
    /// does not hold.
    pub fn difference<'a>(
        &'a self,
        other: &'a View,
    ) -> impl Iterator<Item = &'a InvocationPair> + 'a {
        self.runs.iter().flat_map(move |mine| {
            let theirs = other.run(mine.process());
            let shared = theirs.filter(|theirs| Arc::ptr_eq(&mine.log, &theirs.log));
            let start = shared.map_or(0, |theirs| theirs.len.min(mine.len));
            let lookup = theirs.filter(|_| shared.is_none());
            mine.pairs(start..mine.len)
                .filter(move |pair| lookup.map_or(true, |theirs| theirs.search(pair).is_err()))
        })
    }

    /// Adds `pair`; returns `false` when it was already present. A pair larger than
    /// every other of its process is appended to that process's run.
    pub fn insert(&mut self, pair: InvocationPair) -> bool {
        match self.position(pair.process) {
            Err(at) => self.runs.insert(at, Run::of(vec![pair])),
            Ok(at) => {
                let run = &mut self.runs[at];
                if *run.log.entry(run.len - 1) < pair {
                    run.push(pair);
                } else {
                    let Err(index) = run.search(&pair) else {
                        return false;
                    };
                    let mut pairs: Vec<InvocationPair> = run.iter().cloned().collect();
                    pairs.insert(index, pair);
                    *run = Run::of(pairs);
                }
            }
        }
        self.len += 1;
        true
    }

    /// Removes `pair`; returns `false` when it was absent. Removing the last pair of a
    /// run keeps the shorter prefix of the same log.
    pub fn remove(&mut self, pair: &InvocationPair) -> bool {
        let Ok(at) = self.position(pair.process) else {
            return false;
        };
        let run = &mut self.runs[at];
        let Ok(index) = run.search(pair) else {
            return false;
        };
        if run.len == 1 {
            self.runs.remove(at);
        } else if index + 1 == run.len {
            run.len -= 1;
        } else {
            let rest = run.iter().enumerate().filter(|&(i, _)| i != index);
            *run = Run::of(rest.map(|(_, pair)| pair.clone()).collect());
        }
        self.len -= 1;
        true
    }

    /// The union of `views`. Per process: the longest run when all runs are of one log
    /// (prefixes of one log are nested), else an ordered merge into a new log. The
    /// union of the `n` one-run views of a scan of `N` is `n` reference counts.
    pub(crate) fn union_of(views: impl IntoIterator<Item = View>) -> View {
        let mut runs: Vec<Run> = views.into_iter().flat_map(|view| view.runs).collect();
        runs.sort_by_key(Run::process);
        let mut union = View::new();
        for group in runs.chunk_by(|a, b| a.process() == b.process()) {
            let run = if group.iter().all(|run| Arc::ptr_eq(&run.log, &group[0].log)) {
                group
                    .iter()
                    .max_by_key(|run| run.len)
                    .expect("a group is not empty")
                    .clone()
            } else {
                let pairs: BTreeSet<&InvocationPair> = group.iter().flat_map(Run::iter).collect();
                Run::of(pairs.into_iter().cloned().collect())
            };
            union.len += run.len;
            union.runs.push(run);
        }
        union
    }

    /// Where the run of `process` is, or would go.
    fn position(&self, process: ProcessId) -> Result<usize, usize> {
        self.runs.binary_search_by_key(&process, Run::process)
    }

    fn run(&self, process: ProcessId) -> Option<&Run> {
        self.position(process).ok().map(|at| &self.runs[at])
    }
}

/// Set equality: equal sizes and containment.
impl PartialEq for View {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.is_subset(other)
    }
}

impl Eq for View {}

/// The ascending pairs compared lexicographically, as `BTreeSet`'s `Ord`.
impl Ord for View {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for View {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The length, then the ascending pairs, as `BTreeSet`'s `Hash`.
impl Hash for View {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len);
        for pair in self {
            pair.hash(state);
        }
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<InvocationPair> for View {
    fn from_iter<I: IntoIterator<Item = InvocationPair>>(pairs: I) -> Self {
        let sorted: BTreeSet<InvocationPair> = pairs.into_iter().collect();
        let mut view = View::new();
        let mut rest = sorted.into_iter().peekable();
        while let Some(first) = rest.next() {
            let mut pairs = vec![first];
            while let Some(pair) = rest.next_if(|pair| pair.process == pairs[0].process) {
                pairs.push(pair);
            }
            view.len += pairs.len();
            view.runs.push(Run::of(pairs));
        }
        view
    }
}

impl<const N: usize> From<[InvocationPair; N]> for View {
    fn from(pairs: [InvocationPair; N]) -> Self {
        pairs.into_iter().collect()
    }
}

impl Extend<InvocationPair> for View {
    fn extend<I: IntoIterator<Item = InvocationPair>>(&mut self, pairs: I) {
        for pair in pairs {
            self.insert(pair);
        }
    }
}

impl<'a> IntoIterator for &'a View {
    type Item = &'a InvocationPair;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The pairs of some slots of one log.
struct Pairs<'a> {
    log: &'a Log,
    range: Range<usize>,
}

impl<'a> Iterator for Pairs<'a> {
    type Item = &'a InvocationPair;

    fn next(&mut self) -> Option<&'a InvocationPair> {
        self.range.next().map(|index| self.log.entry(index))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

/// The ascending iteration behind [`View::iter`]: the runs one after the other.
pub struct Iter<'a>(FlatMap<slice::Iter<'a, Run>, Pairs<'a>, fn(&'a Run) -> Pairs<'a>>);

impl<'a> Iterator for Iter<'a> {
    type Item = &'a InvocationPair;

    fn next(&mut self) -> Option<&'a InvocationPair> {
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

/// A set of view tuples — the `λ_E` of Section 7.3.3 and the content the verifier
/// exchanges through its snapshot object (Figure 10, variable `τ_i`).
///
/// **Representation.** The set is the union of a list of *parts*, each an
/// `Arc<BTreeSet<Arc<ViewTuple>>>` that other sets may share, and each tuple is held
/// once, behind its own `Arc`, however many parts and sets hold it. A process's `res_i`
/// is one part; the union `τ` of a scan of `M` holds the `n` parts the scan read. So
/// `Clone` and [`TupleSet::union_of`] cost one reference count per part and copy no
/// tuple, and a snapshot write of `res_i` (whose embedded scan clones all `n` entries)
/// copies none either. `Arc<ViewTuple>` orders, compares and looks up as the
/// `ViewTuple` it points to, so the sharing changes no order and no set semantics.
///
/// **Iteration is an ordered merge** of the parts: each step yields the smallest head
/// and advances every part whose head equals it. Parts may overlap (a forged union can
/// hold one tuple in two parts), so a tuple is yielded once, and the order is exactly a
/// `BTreeSet<ViewTuple>`'s — which every sketch, witness and certificate depends on.
/// With `n` parts a step costs `O(n)` comparisons; tuples of different processes differ
/// in their first field, so those comparisons do not reach the views.
///
/// **Copy-on-write copies pointers.** [`insert`](TupleSet::insert),
/// [`extend`](Extend::extend) and [`remove`](TupleSet::remove) write to one part through
/// [`Arc::make_mut`], which copies that part only while another set still shares it; a
/// set of several parts is first merged into one. Either copy clones the part's
/// `Arc<ViewTuple>`s, never a tuple, a view or a pair. A clone or a union therefore
/// never changes the set it came from, `Verifier::record` copies `|res_i|` pointers when
/// it adds to the part the snapshot still holds, and dropping a superseded part frees
/// pointers, not views.
#[derive(Clone, Default)]
pub struct TupleSet {
    parts: Vec<Arc<BTreeSet<Arc<ViewTuple>>>>,
}

impl TupleSet {
    /// An empty set.
    pub fn new() -> Self {
        TupleSet::default()
    }

    /// The union of `sets`, sharing their parts: no tuple is copied.
    pub fn union_of(sets: impl IntoIterator<Item = TupleSet>) -> Self {
        TupleSet {
            parts: sets
                .into_iter()
                .flat_map(|set| set.parts)
                .filter(|part| !part.is_empty())
                .collect(),
        }
    }

    /// The tuples in ascending order, each once.
    pub fn iter(&self) -> TupleSetIter<'_> {
        TupleSetIter {
            heads: self
                .parts
                .iter()
                .filter_map(|part| {
                    let mut rest = part.iter();
                    rest.next().map(|head| (&**head, rest))
                })
                .collect(),
        }
    }

    /// Number of distinct tuples (a merge when the set has several parts).
    pub fn len(&self) -> usize {
        match self.parts.as_slice() {
            [part] => part.len(),
            _ => self.iter().count(),
        }
    }

    /// Returns `true` when the set holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|part| part.is_empty())
    }

    /// Returns `true` when `tuple` is in the set.
    pub fn contains(&self, tuple: &ViewTuple) -> bool {
        self.parts.iter().any(|part| part.contains(tuple))
    }

    /// Adds `tuple`; returns `false` when it was already present.
    pub fn insert(&mut self, tuple: ViewTuple) -> bool {
        self.part_mut().insert(Arc::new(tuple))
    }

    /// Removes `tuple`; returns `false` when it was absent.
    pub fn remove(&mut self, tuple: &ViewTuple) -> bool {
        self.part_mut().remove(tuple)
    }

    /// The one part a write goes to, unshared.
    fn part_mut(&mut self) -> &mut BTreeSet<Arc<ViewTuple>> {
        if self.parts.len() != 1 {
            let merged = self
                .parts
                .iter()
                .flat_map(|part| part.iter().cloned())
                .collect();
            self.parts = vec![Arc::new(merged)];
        }
        Arc::make_mut(&mut self.parts[0])
    }
}

/// Set equality.
impl PartialEq for TupleSet {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for TupleSet {}

impl fmt::Debug for TupleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<ViewTuple> for TupleSet {
    fn from_iter<I: IntoIterator<Item = ViewTuple>>(tuples: I) -> Self {
        TupleSet {
            parts: vec![Arc::new(tuples.into_iter().map(Arc::new).collect())],
        }
    }
}

impl Extend<ViewTuple> for TupleSet {
    fn extend<I: IntoIterator<Item = ViewTuple>>(&mut self, tuples: I) {
        self.part_mut().extend(tuples.into_iter().map(Arc::new));
    }
}

impl<'a> IntoIterator for &'a TupleSet {
    type Item = &'a ViewTuple;
    type IntoIter = TupleSetIter<'a>;

    fn into_iter(self) -> TupleSetIter<'a> {
        self.iter()
    }
}

/// The ordered merge behind [`TupleSet::iter`].
pub struct TupleSetIter<'a> {
    /// Per part not yet exhausted: its smallest tuple not yet yielded, and the rest.
    heads: Vec<(&'a ViewTuple, btree_set::Iter<'a, Arc<ViewTuple>>)>,
}

impl<'a> Iterator for TupleSetIter<'a> {
    type Item = &'a ViewTuple;

    fn next(&mut self) -> Option<&'a ViewTuple> {
        let min = self.heads.iter().map(|&(head, _)| head).min()?;
        self.heads.retain_mut(|(head, rest)| {
            if std::ptr::eq(*head, min) || *head == min {
                match rest.next() {
                    Some(next) => *head = next,
                    None => return false,
                }
            }
            true
        });
        Some(min)
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

    /// A write to a clone copies the part the two sets share, and a write to a union
    /// merges its parts; both copies hold the original tuples themselves, so no tuple,
    /// view or pair is cloned.
    #[test]
    fn a_write_to_a_clone_shares_every_tuple() {
        let pairs: Vec<InvocationPair> = (0..4).map(|i| pair(i % 2, u64::from(i))).collect();
        let original: TupleSet = (1..=pairs.len())
            .map(|k| {
                let view = pairs[..k].iter().cloned().collect();
                ViewTuple::new(pairs[k - 1].clone(), OpValue::Bool(true), view)
            })
            .collect();
        let mut copy = original.clone();
        let extra = pair(2, 9);
        assert!(copy.insert(ViewTuple::new(
            extra.clone(),
            OpValue::Bool(true),
            view_of(&[&extra])
        )));
        assert_eq!((original.len(), copy.len()), (4, 5));
        for tuple in &original {
            let shared = copy.iter().find(|t| *t == tuple).expect("kept by the copy");
            assert!(std::ptr::eq(tuple, shared), "{} was copied", tuple.pair);
        }
        let merged = TupleSet::union_of([original.clone(), copy]);
        let mut written = merged.clone();
        assert!(written.remove(original.iter().next().expect("four tuples")));
        for tuple in written.iter() {
            let shared = merged.iter().find(|t| *t == tuple).expect("from the union");
            assert!(
                std::ptr::eq(tuple, shared),
                "the merge copied {}",
                tuple.pair
            );
        }
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

    /// A view and the `BTreeSet` it must behave as.
    type Pair = (View, BTreeSet<InvocationPair>);

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Asserts that `view` is the set `oracle` to every query of one view.
    fn assert_is(view: &View, oracle: &BTreeSet<InvocationPair>, known: &[InvocationPair]) {
        assert_eq!(view.len(), oracle.len(), "len of {view:?}");
        assert_eq!(view.is_empty(), oracle.is_empty());
        assert!(view.iter().eq(oracle.iter()), "{view:?} against {oracle:?}");
        for pair in known {
            assert_eq!(
                view.contains(pair),
                oracle.contains(pair),
                "{pair} in {view:?}"
            );
        }
        assert_eq!(format!("{view:?}"), format!("{oracle:?}"));
        assert_eq!(hash_of(view), hash_of(oracle), "hash of {view:?}");
    }

    /// Asserts that two views relate as their oracles do, and counts whether they
    /// shared a log for some process (`.0`) or held different logs for one (`.1`).
    fn assert_relate(a: &Pair, b: &Pair, coverage: &mut (usize, usize)) {
        let ((x, xs), (y, ys)) = (a, b);
        assert_eq!(x.is_subset(y), xs.is_subset(ys), "{x:?} ⊆ {y:?}");
        assert_eq!(y.is_subset(x), ys.is_subset(xs), "{y:?} ⊆ {x:?}");
        assert!(x.difference(y).eq(xs.difference(ys)), "{x:?} \\ {y:?}");
        assert!(y.difference(x).eq(ys.difference(xs)), "{y:?} \\ {x:?}");
        assert_eq!(x == y, xs == ys, "{x:?} = {y:?}");
        assert_eq!(x.cmp(y), xs.cmp(ys), "{x:?} against {y:?}");
        for mine in &x.runs {
            if let Some(theirs) = y.run(mine.process()) {
                if Arc::ptr_eq(&mine.log, &theirs.log) {
                    coverage.0 += usize::from(mine.len != theirs.len);
                } else {
                    coverage.1 += 1;
                }
            }
        }
    }

    /// One seeded run: three owners append their processes' pairs as `Drv` does, and
    /// a pool of views is fed by their clones (`collect`) and unions, then written to
    /// by hand: inserts in and out of order, appends that find the owner's next pair
    /// already in the log, removes, `FromIterator`, `Extend`. Every written view is
    /// checked against its oracle, and a random two of them against each other.
    /// Returns the coverage counts of [`assert_relate`].
    fn differential_run(seed: u64, steps: usize) -> (usize, usize) {
        const PROCESSES: usize = 3;
        let mut rng = Rng(seed);
        let mut next_id = 0;
        let mut fresh = |process: usize| {
            next_id += 1;
            pair(process as u32, next_id)
        };
        let mut owners: Vec<Pair> = (0..PROCESSES).map(|_| Pair::default()).collect();
        let mut pool: Vec<Pair> = vec![Pair::default()];
        let mut known: Vec<InvocationPair> = vec![pair(0, u64::MAX)];
        let mut coverage = (0, 0);
        for _ in 0..steps {
            let process = rng.below(PROCESSES);
            let at = rng.below(pool.len());
            let touched: Pair = match rng.below(10) {
                0..=2 => {
                    let added = fresh(process);
                    known.push(added.clone());
                    let (view, set) = &mut owners[process];
                    assert!(view.insert(added.clone()));
                    set.insert(added);
                    owners[process].clone()
                }
                3 => {
                    let views = owners.iter().map(|(view, _)| view.clone());
                    let set = owners.iter().flat_map(|(_, set)| set.iter().cloned());
                    (View::union_of(views), set.collect())
                }
                4 => {
                    let (view, set) = &mut pool[at];
                    let added = if rng.below(2) == 0 {
                        known[rng.below(known.len())].clone()
                    } else {
                        let added = fresh(process);
                        known.push(added.clone());
                        added
                    };
                    assert_eq!(view.insert(added.clone()), set.insert(added));
                    pool[at].clone()
                }
                5 => {
                    // The pair after the view's last one of `process` in the owner's
                    // log: that slot already holds it, so the append shares the log.
                    let (view, set) = &mut pool[at];
                    let last = set
                        .iter()
                        .rev()
                        .find(|pair| pair.process.index() == process);
                    let next = owners[process]
                        .1
                        .iter()
                        .find(|pair| last.map_or(true, |last| *pair > last));
                    if let Some(next) = next.cloned() {
                        assert_eq!(view.insert(next.clone()), set.insert(next));
                    }
                    pool[at].clone()
                }
                6 => {
                    let (view, set) = &mut pool[at];
                    let gone = if rng.below(3) > 0 && !set.is_empty() {
                        set.iter().nth(rng.below(set.len())).cloned().unwrap()
                    } else {
                        known[rng.below(known.len())].clone()
                    };
                    assert_eq!(view.remove(&gone), set.remove(&gone));
                    pool[at].clone()
                }
                7 => {
                    let set: BTreeSet<InvocationPair> = known
                        .iter()
                        .filter(|_| rng.below(3) == 0)
                        .cloned()
                        .collect();
                    (set.iter().rev().cloned().collect(), set)
                }
                8 => {
                    let other = &pool[rng.below(pool.len())];
                    let views = [pool[at].0.clone(), other.0.clone()];
                    let set = pool[at].1.union(&other.1).cloned().collect();
                    (View::union_of(views), set)
                }
                _ => {
                    let (view, set) = &mut pool[at];
                    let added: Vec<InvocationPair> = (0..rng.below(4))
                        .map(|_| known[rng.below(known.len())].clone())
                        .collect();
                    view.extend(added.iter().cloned());
                    set.extend(added);
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
        for (view, set) in owners.iter().chain(&pool) {
            assert_is(view, set, &known);
        }
        coverage
    }

    fn differential(seeds: std::ops::Range<u64>) {
        let mut coverage = (0, 0);
        for seed in seeds.clone() {
            let (shared, merged) = differential_run(seed, 300);
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
        differential(0..40);
    }

    /// The same on ten times the seeds (`--release -- --ignored`).
    #[test]
    #[ignore = "ten times the seeds of views_behave_as_btree_sets; CI runs it in release"]
    fn views_behave_as_btree_sets_on_many_seeds() {
        differential(0..400);
    }
}
