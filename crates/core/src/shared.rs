//! The paper's two shared arrays, `N` of Figure 7 (entry `i` holds `set_i`) and `M` of
//! Figure 10 (entry `i` holds `res_i`): one grow-only set per process behind a
//! linearizable snapshot object, read as the union of all entries. Only this module
//! knows how such an array is represented; `Drv` and `Verifier` sit on top of it.
//!
//! The two arrays differ only in their [`Entry`] type, and so in what they copy:
//!
//! * `N` holds [`View`]s, each a prefix of its process's append-only announcement log.
//!   A write appends the pair to `set_i`'s log (under the local lock, the only place
//!   that log is written) and publishes a one-run view: a reference count, as is each
//!   of the `n` entries the Afek write's embedded scan clones. A scan reads `n` runs,
//!   and their union is the caller's view; no pair is copied.
//! * `M` holds [`TupleSet`]s of shared copy-on-write parts, each tuple behind its own
//!   `Arc`. A write copies `res_i` once, when the insert reaches the part the snapshot
//!   still shares, and that copy is `|res_i|` tuple pointers, never a tuple, view or
//!   pair; its clone and the embedded scan are reference counts, and the superseded
//!   entry frees pointers. A scan copies nothing: the union `τ` holds the `n` parts it
//!   read.

use crate::view::{InvocationPair, TupleSet, View, ViewTuple};
use linrv_history::ProcessId;
use linrv_snapshot::Snapshot;
use parking_lot::Mutex;
use std::sync::Arc;

/// What one entry of a shared array holds: a set a single process adds to.
pub(crate) trait Entry: Clone + Default {
    type Item;

    fn add(&mut self, item: Self::Item);

    /// The union of the entries of one scan.
    fn union(entries: Vec<Self>) -> Self;
}

impl Entry for View {
    type Item = InvocationPair;

    fn add(&mut self, item: InvocationPair) {
        self.insert(item);
    }

    fn union(entries: Vec<View>) -> View {
        View::union_of(entries)
    }
}

impl Entry for TupleSet {
    type Item = ViewTuple;

    fn add(&mut self, item: ViewTuple) {
        self.insert(item);
    }

    fn union(entries: Vec<TupleSet>) -> TupleSet {
        TupleSet::union_of(entries)
    }
}

pub(crate) struct SharedSets<S: Entry> {
    snapshot: Arc<dyn Snapshot<S>>,
    /// The persistent local set of each process; its snapshot entry holds a clone.
    local: Vec<Mutex<S>>,
}

impl<S: Entry> SharedSets<S> {
    pub(crate) fn new(snapshot: Arc<dyn Snapshot<S>>) -> Self {
        let local = (0..snapshot.entries()).map(|_| Mutex::default()).collect();
        SharedSets { snapshot, local }
    }

    pub(crate) fn processes(&self) -> usize {
        self.local.len()
    }

    /// Adds the item `make` returns to the set of `process` and publishes that set: one
    /// insert, one clone, one snapshot write; returns what `make` returned with it.
    /// `make` and the write run under the local lock, so items made for one process
    /// are added in the order they were made, an entry only grows even when two
    /// threads misuse one process, and successive scans by one caller see growing
    /// unions. Panics when `process` is out of range.
    pub(crate) fn add<R>(&self, process: ProcessId, make: impl FnOnce() -> (S::Item, R)) -> R {
        assert!(
            process.index() < self.processes(),
            "process {process} out of range for a {}-process shared array",
            self.processes()
        );
        let mut local = self.local[process.index()].lock();
        let (item, made) = make();
        local.add(item);
        self.snapshot.write(process.index(), local.clone());
        made
    }

    /// The union of all entries, in one scan (an out-of-range `scanner` scans as the
    /// last process).
    pub(crate) fn union(&self, scanner: ProcessId) -> S {
        S::union(
            self.snapshot
                .scan(scanner.index().min(self.processes().saturating_sub(1))),
        )
    }
}
