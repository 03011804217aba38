//! Process identifiers.

use std::fmt;

/// Identifier of one of the `n` asynchronous processes `p_1, …, p_n` of the system
/// (Section 2 of the paper). Internally zero-based.
///
/// ```
/// use linrv_history::ProcessId;
/// let p = ProcessId::new(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "p3"); // paper numbering is one-based
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identifier from a zero-based index.
    pub fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Zero-based index of the process.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// All process identifiers `p_0 … p_{n-1}` for a system of `n` processes.
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n as u32).map(ProcessId)
    }
}

impl From<u32> for ProcessId {
    fn from(value: u32) -> Self {
        ProcessId(value)
    }
}

impl From<usize> for ProcessId {
    fn from(value: usize) -> Self {
        ProcessId(value as u32)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper numbers processes from one (p1, p2, …); widened, so that the
        // largest index still gets its own label.
        write!(f, "p{}", u64::from(self.0) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based() {
        assert_eq!(ProcessId::new(0).to_string(), "p1");
        assert_eq!(ProcessId::new(9).to_string(), "p10");
        assert_eq!(ProcessId::new(u32::MAX).to_string(), "p4294967296");
    }

    #[test]
    fn all_enumerates_n_processes() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[3].index(), 3);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ProcessId::new(1) < ProcessId::new(2));
    }

    #[test]
    fn conversions() {
        assert_eq!(ProcessId::from(3u32), ProcessId::new(3));
        assert_eq!(ProcessId::from(5usize), ProcessId::new(5));
    }
}
