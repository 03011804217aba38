//! The paper's two shared arrays, `N` of Figure 7 (entry `i` holds `set_i`) and `M` of
//! Figure 10 (entry `i` holds `res_i`): one grow-only set per process behind a
//! linearizable snapshot object, read as the union of all entries. Only this module
//! knows how such an array is represented; `Drv` and `Verifier` sit on top of it.

use linrv_history::ProcessId;
use linrv_snapshot::Snapshot;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

pub(crate) struct SharedSets<T: Clone> {
    snapshot: Arc<dyn Snapshot<BTreeSet<T>>>,
    /// The persistent local set of each process; its snapshot entry holds a copy.
    local: Vec<Mutex<BTreeSet<T>>>,
}

impl<T: Ord + Clone> SharedSets<T> {
    pub(crate) fn new(snapshot: Arc<dyn Snapshot<BTreeSet<T>>>) -> Self {
        let local = (0..snapshot.entries()).map(|_| Mutex::default()).collect();
        SharedSets { snapshot, local }
    }

    pub(crate) fn processes(&self) -> usize {
        self.local.len()
    }

    /// Adds `item` to the set of `process` and publishes that set: one insert, one
    /// clone, one snapshot write. Panics when `process` is out of range.
    pub(crate) fn add(&self, process: ProcessId, item: T) {
        assert!(
            process.index() < self.processes(),
            "process {process} out of range for a {}-process shared array",
            self.processes()
        );
        let set = {
            let mut local = self.local[process.index()].lock();
            local.insert(item);
            local.clone()
        };
        self.snapshot.write(process.index(), set);
    }

    /// The union of all entries, in one scan (an out-of-range `scanner` scans as the
    /// last process).
    pub(crate) fn union(&self, scanner: ProcessId) -> BTreeSet<T> {
        self.snapshot
            .scan(scanner.index().min(self.processes().saturating_sub(1)))
            .into_iter()
            .flatten()
            .collect()
    }
}
