//! The wait-free snapshot of Afek, Attiya, Dolev, Gafni, Merritt and Shavit
//! (the paper's reference `[1]`), built from single-writer atomic registers.

use crate::register::AtomicRegister;
use crate::traits::Snapshot;
use std::sync::Arc;

/// Content of one register of the snapshot: the writer's current value, a sequence
/// number incremented on every write, and the *embedded scan* the writer performed just
/// before writing (used for helping).
#[derive(Debug, Clone)]
struct Cell<T> {
    seq: u64,
    value: T,
    embedded_scan: Option<Vec<T>>,
}

/// The classic wait-free linearizable snapshot object.
///
/// * `Write` (called *update* in the original paper) first performs an embedded scan,
///   then writes `(value, seq + 1, scan)` into the writer's register.
/// * `Scan` repeatedly double-collects. If two successive collects show no sequence
///   number changed, the collect is atomic and is returned. Otherwise, a writer that is
///   observed to move **twice** during the scan must have performed a complete `Write`
///   — and therefore a complete embedded scan — entirely within the scan's interval, so
///   the scanner *borrows* that embedded scan and returns it.
///
/// Every scan terminates after at most `n + 1` double collects (each failed round
/// increments some writer's move count, and a writer observed moving twice ends the
/// scan), so both operations are wait-free with `O(n²)` register operations — the
/// `O(n)`-per-operation bound the paper quotes for `[63]` is an optimisation, not a
/// requirement, and is tracked as future work under item 2 of `ROADMAP.md`.
///
/// **Memory.** A cell's embedded scan holds `n` values cloned with `T::clone`, so what
/// it costs is `T`'s: for `linrv-core`'s result array `M` a clone is one reference count
/// per shared tuple-set part, for its announcement array `N` a deep copy of a view.
/// Each `write` supersedes the writer's whole cell — its value *and* the
/// embedded scan — by one [`AtomicRegister::write`], which
/// retires the old cell and attempts a collection at once. The cell is freed two epochs
/// later (two further register writes by any thread, unless a thread is stalled inside a
/// register operation), or when the last scanner that collected it drops its handle,
/// whichever is later; so a snapshot object holds its `n` current cells plus a constant
/// number of superseded ones per writing thread, however long it lives.
#[derive(Debug)]
pub struct AfekSnapshot<T> {
    registers: Vec<AtomicRegister<Cell<T>>>,
}

impl<T: Clone> AfekSnapshot<T> {
    /// Creates a snapshot with `n` entries, all holding `initial`.
    pub fn new(n: usize, initial: T) -> Self {
        AfekSnapshot {
            registers: (0..n)
                .map(|_| {
                    AtomicRegister::new(Cell {
                        seq: 0,
                        value: initial.clone(),
                        embedded_scan: None,
                    })
                })
                .collect(),
        }
    }

    fn collect(&self) -> Vec<Arc<Cell<T>>> {
        self.registers.iter().map(AtomicRegister::read).collect()
    }

    /// The scan procedure shared by `scan` and the embedded scan of `write`.
    fn scan_internal(&self) -> Vec<T> {
        let n = self.registers.len();
        let mut moved = vec![0u32; n];
        let mut previous = self.collect();
        loop {
            let current = self.collect();
            let mut interfered = false;
            for j in 0..n {
                if previous[j].seq != current[j].seq {
                    interfered = true;
                    moved[j] += 1;
                    if moved[j] >= 2 {
                        // Writer j completed a whole Write inside our scan interval;
                        // its embedded scan is linearizable within our interval too.
                        if let Some(embedded) = &current[j].embedded_scan {
                            return embedded.clone();
                        }
                    }
                }
            }
            if !interfered {
                return current.iter().map(|c| c.value.clone()).collect();
            }
            previous = current;
        }
    }
}

impl<T: Clone + Send + Sync> Snapshot<T> for AfekSnapshot<T> {
    fn entries(&self) -> usize {
        self.registers.len()
    }

    fn write(&self, writer: usize, value: T) {
        let embedded = self.scan_internal();
        let current = self.registers[writer].read();
        self.registers[writer].write(Cell {
            seq: current.seq + 1,
            value,
            embedded_scan: Some(embedded),
        });
    }

    fn scan(&self, _scanner: usize) -> Vec<T> {
        self.scan_internal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn sequential_write_scan() {
        let s = AfekSnapshot::new(3, 0i64);
        s.write(0, 5);
        s.write(2, -1);
        assert_eq!(s.scan(1), vec![5, 0, -1]);
        assert_eq!(s.entries(), 3);
    }

    #[test]
    fn embedded_scan_is_installed_after_first_write() {
        let s = AfekSnapshot::new(2, 0u32);
        s.write(0, 1);
        let cell = s.registers[0].read();
        assert_eq!(cell.seq, 1);
        assert_eq!(cell.embedded_scan.as_deref(), Some(&[0, 0][..]));
    }

    /// With writers publishing monotonically increasing values, every pair of scans
    /// must be comparable entrywise (one dominates the other); incomparable scans would
    /// contradict linearizability.
    #[test]
    fn concurrent_scans_are_comparable_under_monotone_writes() {
        let n = 3;
        let per_writer = 300u64;
        let s = Arc::new(AfekSnapshot::new(n, 0u64));
        let mut handles = Vec::new();
        // Writers 0 and 1 publish increasing values; process 2 scans continuously.
        for w in 0..2usize {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for v in 1..=per_writer {
                    s.write(w, v);
                }
            }));
        }
        let scans = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                let mut out = Vec::new();
                for _ in 0..200 {
                    out.push(s.scan(2));
                }
                out
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let scans = scans.join().unwrap();
        for a in &scans {
            for b in &scans {
                let a_le_b = a.iter().zip(b).all(|(x, y)| x <= y);
                let b_le_a = a.iter().zip(b).all(|(x, y)| x >= y);
                assert!(
                    a_le_b || b_le_a,
                    "incomparable scans under monotone writes: {a:?} vs {b:?}"
                );
            }
        }
        // Final scan sees the last values.
        assert_eq!(s.scan(2)[..2], [per_writer, per_writer]);
    }

    /// Scans by the writer itself always include its own latest value (self-inclusion,
    /// needed for Remark 7.2 (1) upstream).
    #[test]
    fn scans_after_own_write_contain_own_value() {
        let s = AfekSnapshot::new(2, 0u64);
        for v in 1..=50 {
            s.write(0, v);
            let scan = s.scan(0);
            assert_eq!(scan[0], v);
        }
    }
}
