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
//! `t` tuples with views of at most `v` pairs, in `O(t log t + t·v)` pair visits: one
//! sort of the tuples by view size, then three linear passes over that order. (The
//! definitions quantify over all pairs of tuples; taken literally that is `O(t²·v)`
//! per verdict, which made the check, not the membership test, the cost of a verifier
//! step.) Two lemmas carry the passes.
//!
//! **Chain lemma (containment comparability).** Let `λ_1, …, λ_t` be the views sorted
//! by size, `|λ_1| ≤ … ≤ |λ_t|`. All pairs of views are ⊆-comparable iff
//! `λ_k ⊆ λ_{k+1}` for every `k < t`. *If:* ⊆ is transitive, so `λ_j ⊆ λ_k` for all
//! `j ≤ k`. *Only if:* comparable neighbours have `λ_k ⊆ λ_{k+1}` or
//! `λ_{k+1} ⊆ λ_k`; in the second case `|λ_{k+1}| ≤ |λ_k| ≤ |λ_{k+1}|` makes the two
//! equal, so the first holds too. Corollary: once the chain holds, views of equal size
//! are equal, and size order is containment order. One subset test per neighbouring
//! link is `O(v)`, `O(t·v)` in all.
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
//! Self-inclusion is one lookup per tuple. No pass samples or depends on the build
//! profile.
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
use std::sync::Arc;

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

/// A view: the set of invocation pairs a completed operation observed in its snapshot
/// (Figure 7, Lines 05–06).
pub type View = BTreeSet<InvocationPair>;

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
/// decided exactly, in `O(t log t + t·v)` (see the [module docs](self)); when several
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
}
