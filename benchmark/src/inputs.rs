//! Seeded input generation shared by the workloads.
//!
//! The benchmark owns its random numbers: the program under test receives only
//! the generated operations, and a change to the repository's `rand` stand-in
//! cannot shift the benchmark's inputs.

use linrv_history::{OpValue, Operation, ProcessId};
use linrv_runtime::ConcurrentObject;
use linrv_spec::ObjectKind;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// SplitMix64 (Steele, Lea & Flood): small, fast, and good enough to shuffle
/// schedules.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A generator for sub-stream `stream` of this seed.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut base = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(base.next_u64())
    }
}

/// The amount a corrupted integer gains — far outside any generated value, so
/// a corrupted response can never be accidentally correct (the convention of
/// `linrv_runtime::faulty::MutatedObject`).
pub const CORRUPTION_OFFSET: i64 = 1_000_000_000;

/// Wraps an implementation and corrupts exactly one response: that of the
/// `at`-th call (counted from 1). An integer gains [`CORRUPTION_OFFSET`];
/// anything else becomes that integer, which no operation of any kind
/// answers with — so the corrupted response is wrong under every
/// linearization, never accidentally right.
pub struct CorruptOnce<A> {
    inner: A,
    at: u64,
    /// Calls so far, overall and per process, and the call corrupted.
    calls: Mutex<Calls>,
}

#[derive(Default)]
struct Calls {
    total: u64,
    per_process: BTreeMap<ProcessId, u64>,
    corrupted: Option<(ProcessId, u64)>,
}

impl<A> CorruptOnce<A> {
    pub fn new(inner: A, at: u64) -> Self {
        CorruptOnce {
            inner,
            at,
            calls: Mutex::default(),
        }
    }

    /// The process whose response was corrupted, and which of its calls
    /// (counted from 1) that was; `None` before the `at`-th call.
    pub fn corrupted(&self) -> Option<(ProcessId, u64)> {
        self.calls
            .lock()
            .expect("no call panics under the lock")
            .corrupted
    }
}

impl<A: ConcurrentObject> ConcurrentObject for CorruptOnce<A> {
    fn kind(&self) -> ObjectKind {
        self.inner.kind()
    }

    fn apply(&self, process: ProcessId, op: &Operation) -> OpValue {
        let value = self.inner.apply(process, op);
        let mut calls = self.calls.lock().expect("no call panics under the lock");
        calls.total += 1;
        let nth = calls.per_process.entry(process).or_default();
        *nth += 1;
        let nth = *nth;
        if calls.total != self.at {
            return value;
        }
        calls.corrupted = Some((process, nth));
        match value {
            OpValue::Int(i) => OpValue::Int(i + CORRUPTION_OFFSET),
            _ => OpValue::Int(CORRUPTION_OFFSET),
        }
    }

    fn name(&self) -> String {
        format!("{} with response {} corrupted", self.inner.name(), self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrv_runtime::impls::AtomicIntRegister;
    use linrv_spec::ops::register;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::fork(7, 1);
        let mut b = SplitMix64::fork(7, 1);
        let mut c = SplitMix64::fork(7, 2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert!(a.below(10) < 10);
    }

    #[test]
    fn exactly_one_response_is_corrupted() {
        let object = CorruptOnce::new(AtomicIntRegister::new(), 2);
        let p = ProcessId::new(0);
        object.apply(p, &register::write(5));
        assert_eq!(
            object.apply(p, &register::read()),
            OpValue::Int(5 + CORRUPTION_OFFSET)
        );
        assert_eq!(object.apply(p, &register::read()), OpValue::Int(5));
        assert_eq!(object.corrupted(), Some((p, 2)));
    }
}
