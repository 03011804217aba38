//! The paper's two shared arrays, `N` of Figure 7 (entry `i` holds `set_i`) and `M` of
//! Figure 10 (entry `i` holds `res_i`): one grow-only set per process behind a
//! linearizable snapshot object, read as the union of all entries. Only this module
//! knows how such an array is represented; `Drv` and `Verifier` sit on top of it.
//!
//! Both arrays hold one set type, a [`RunSet`] of their items (invocation pairs for `N`,
//! view tuples for `M`): a prefix of an append-only log per process. A write appends the
//! item to the writer's own log in place (under the local lock, the only place that log
//! is written) and publishes a one-run set: a reference count, as is each of the `n`
//! entries the Afek write's embedded scan clones. A scan reads `n` runs, and their union
//! is the caller's view or `τ`; no item is copied after its write.

use crate::view::{Keyed, RunSet};
use linrv_history::ProcessId;
use linrv_snapshot::Snapshot;
use parking_lot::Mutex;
use std::sync::Arc;

pub(crate) struct SharedSets<T> {
    snapshot: Arc<dyn Snapshot<RunSet<T>>>,
    /// The persistent local set of each process; its snapshot entry holds a clone.
    local: Vec<Mutex<RunSet<T>>>,
}

impl<T: Keyed> SharedSets<T> {
    pub(crate) fn new(snapshot: Arc<dyn Snapshot<RunSet<T>>>) -> Self {
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
    pub(crate) fn add<R>(&self, process: ProcessId, make: impl FnOnce() -> (T, R)) -> R {
        assert!(
            process.index() < self.processes(),
            "process {process} out of range for a {}-process shared array",
            self.processes()
        );
        let mut local = self.local[process.index()].lock();
        let (item, made) = make();
        local.insert(item);
        self.snapshot.write(process.index(), local.clone());
        made
    }

    /// The union of all entries, in one scan (an out-of-range `scanner` scans as the
    /// last process).
    pub(crate) fn union(&self, scanner: ProcessId) -> RunSet<T> {
        RunSet::union_of(
            self.snapshot
                .scan(scanner.index().min(self.processes().saturating_sub(1))),
        )
    }
}
