//! Seeded random workloads per object kind.

use linrv_history::Operation;
use linrv_spec::ops;
use linrv_spec::ObjectKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Which operation mix to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Enqueue/Dequeue mix (default 50/50).
    Queue,
    /// Push/Pop mix (default 50/50).
    Stack,
    /// Add/Remove/Contains mix (default 40/30/30) over a small key range.
    Set,
    /// Insert/ExtractMin mix (default 50/50).
    PriorityQueue,
    /// Inc/Read mix (default 70/30).
    Counter,
    /// Write/Read mix (default 50/50).
    Register,
    /// A single Decide per process.
    Consensus,
}

impl WorkloadKind {
    /// The canonical workload for a sequential object (inverse of
    /// [`WorkloadKind::object_kind`]).
    pub fn for_object(kind: ObjectKind) -> WorkloadKind {
        match kind {
            ObjectKind::Queue => WorkloadKind::Queue,
            ObjectKind::Stack => WorkloadKind::Stack,
            ObjectKind::Set => WorkloadKind::Set,
            ObjectKind::PriorityQueue => WorkloadKind::PriorityQueue,
            ObjectKind::Counter => WorkloadKind::Counter,
            ObjectKind::Register => WorkloadKind::Register,
            ObjectKind::Consensus => WorkloadKind::Consensus,
        }
    }

    /// The sequential object this workload targets.
    pub fn object_kind(self) -> ObjectKind {
        match self {
            WorkloadKind::Queue => ObjectKind::Queue,
            WorkloadKind::Stack => ObjectKind::Stack,
            WorkloadKind::Set => ObjectKind::Set,
            WorkloadKind::PriorityQueue => ObjectKind::PriorityQueue,
            WorkloadKind::Counter => ObjectKind::Counter,
            WorkloadKind::Register => ObjectKind::Register,
            WorkloadKind::Consensus => ObjectKind::Consensus,
        }
    }
}

/// Configurable operation-ratio weights and key-selection knobs for a workload.
///
/// Every [`WorkloadKind`] samples its operations from a `Mix`: integer ratio
/// `weights` over the kind's operation classes (in declaration order — e.g.
/// `[enqueue, dequeue, _]` for queues, `[add, remove, contains]` for sets), a
/// `key_range` for keyed kinds, and a hot-key `skew` exponent. Two-class kinds
/// ignore the third weight; consensus ignores the mix entirely (one `Decide`
/// per process).
///
/// [`Mix::default_for`] reproduces the historical hardcoded mixes **sample for
/// sample**: a workload built with [`Workload::new`] draws exactly the same RNG
/// sequence as before this knob existed, so seeded traces (and the golden
/// corpus) regenerate byte-identically.
///
/// ```
/// use linrv_runtime::{Mix, Workload, WorkloadKind};
///
/// // An enqueue-only workload over a hot 4-key range.
/// let mix = Mix::default_for(WorkloadKind::Queue).with_weights([1, 0, 0]);
/// let w = Workload::new(WorkloadKind::Queue, 7).with_mix(mix);
/// assert!(w
///     .operations_for(0, 10)
///     .iter()
///     .all(|op| op.kind == "Enqueue"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Integer ratio weights over the kind's operation classes. Unused trailing
    /// classes are ignored; the weights actually in use must not all be zero.
    pub weights: [u32; 3],
    /// Number of distinct keys keyed kinds (the set) draw from. Must be
    /// positive.
    pub key_range: u32,
    /// Hot-key skew exponent: `0.0` is uniform; larger values concentrate keys
    /// near `0` (zipf-ish, via the power transform `u^(1+skew)`).
    pub skew: f64,
}

impl Mix {
    /// The historical hardcoded mix for `kind` (50/50, 70/30 for counters,
    /// 40/30/30 over 8 keys for sets — see the [`WorkloadKind`] docs).
    pub fn default_for(kind: WorkloadKind) -> Mix {
        let weights = match kind {
            WorkloadKind::Counter => [7, 3, 0],
            WorkloadKind::Set => [4, 3, 3],
            WorkloadKind::Consensus => [1, 0, 0],
            _ => [1, 1, 0],
        };
        Mix {
            weights,
            key_range: 8,
            skew: 0.0,
        }
    }

    /// Replaces the ratio weights (builder style).
    pub fn with_weights(mut self, weights: [u32; 3]) -> Mix {
        self.weights = weights;
        self
    }

    /// Replaces the key range (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `key_range` is zero.
    pub fn with_key_range(mut self, key_range: u32) -> Mix {
        assert!(key_range > 0, "key_range must be positive");
        self.key_range = key_range;
        self
    }

    /// Replaces the skew exponent (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `skew` is negative or not finite.
    pub fn with_skew(mut self, skew: f64) -> Mix {
        assert!(skew.is_finite() && skew >= 0.0, "skew must be >= 0");
        self.skew = skew;
        self
    }

    /// Picks between the kind's first two operation classes; `true` is class 0.
    ///
    /// Implemented with `gen_bool` (not `gen_range`) so default weights consume
    /// the RNG exactly like the historical `gen_bool(0.5)` / `gen_bool(0.7)`
    /// calls did.
    fn pick_first(&self, rng: &mut StdRng) -> bool {
        let total = self.weights[0] + self.weights[1];
        assert!(total > 0, "mix weights must not all be zero");
        rng.gen_bool(f64::from(self.weights[0]) / f64::from(total))
    }

    /// Picks one of the kind's three operation classes by weight.
    fn pick_class3(&self, rng: &mut StdRng) -> usize {
        let total: u32 = self.weights.iter().sum();
        assert!(total > 0, "mix weights must not all be zero");
        let roll = rng.gen_range(0..i64::from(total));
        if roll < i64::from(self.weights[0]) {
            0
        } else if roll < i64::from(self.weights[0] + self.weights[1]) {
            1
        } else {
            2
        }
    }

    /// Draws a key from `0..key_range`, hot-skewed toward `0` when `skew > 0`.
    fn key(&self, rng: &mut StdRng) -> i64 {
        let range = i64::from(self.key_range);
        if self.skew == 0.0 {
            rng.gen_range(0..range)
        } else {
            // u^(1+skew) over [0, 1) concentrates mass near zero. `powf` is the
            // one platform-dependent operation in the pipeline; skewed runs are
            // reproducible per build, unskewed runs everywhere.
            let unit = rng.gen_range(0..(1i64 << 53)) as f64 / (1u64 << 53) as f64;
            ((unit.powf(1.0 + self.skew) * range as f64) as i64).min(range - 1)
        }
    }

    /// Samples one operation of `kind` for `process` from this mix.
    ///
    /// `fresh` supplies globally unique insertion values (see
    /// [`Workload::operations_for`]). The RNG consumption per sample is fixed
    /// per kind, so mixes can be swapped without perturbing later draws.
    pub fn sample(
        &self,
        kind: WorkloadKind,
        process: usize,
        rng: &mut StdRng,
        fresh: &mut impl FnMut() -> i64,
    ) -> Operation {
        match kind {
            WorkloadKind::Queue => {
                if self.pick_first(rng) {
                    ops::queue::enqueue(fresh())
                } else {
                    ops::queue::dequeue()
                }
            }
            WorkloadKind::Stack => {
                if self.pick_first(rng) {
                    ops::stack::push(fresh())
                } else {
                    ops::stack::pop()
                }
            }
            WorkloadKind::Set => {
                let key = self.key(rng);
                match self.pick_class3(rng) {
                    0 => ops::set::add(key),
                    1 => ops::set::remove(key),
                    _ => ops::set::contains(key),
                }
            }
            WorkloadKind::PriorityQueue => {
                if self.pick_first(rng) {
                    ops::priority_queue::insert(fresh())
                } else {
                    ops::priority_queue::extract_min()
                }
            }
            WorkloadKind::Counter => {
                if self.pick_first(rng) {
                    ops::counter::inc()
                } else {
                    ops::counter::read()
                }
            }
            WorkloadKind::Register => {
                if self.pick_first(rng) {
                    ops::register::write(fresh())
                } else {
                    ops::register::read()
                }
            }
            WorkloadKind::Consensus => ops::consensus::decide(process as i64 + 1),
        }
    }
}

/// A reproducible per-process operation sequence generator.
///
/// The same `(kind, seed, mix, process, len)` always yields the same operations,
/// so experiments are repeatable. Inserted values are globally unique across
/// processes (encoding the process index in the value), which keeps checker
/// instances small and mirrors the paper's assumption that all `Apply` inputs
/// are distinct.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Operation mix.
    pub kind: WorkloadKind,
    /// RNG seed.
    pub seed: u64,
    /// Ratio weights and key knobs; defaults to [`Mix::default_for`] the kind.
    pub mix: Mix,
}

impl Workload {
    /// Creates a workload description with the kind's default [`Mix`].
    pub fn new(kind: WorkloadKind, seed: u64) -> Self {
        Workload {
            kind,
            seed,
            mix: Mix::default_for(kind),
        }
    }

    /// Replaces the operation mix (builder style).
    pub fn with_mix(mut self, mix: Mix) -> Self {
        self.mix = mix;
        self
    }

    /// Generates the operation sequence for one process.
    pub fn operations_for(&self, process: usize, len: usize) -> Vec<Operation> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (process as u64).wrapping_mul(0x9E37_79B9));
        let mut next_value: i64 = (process as i64) * 1_000_000 + 1;
        let mut fresh = || {
            let v = next_value;
            next_value += 1;
            v
        };
        // Consensus workloads are one-shot regardless of the requested length.
        let len = if self.kind == WorkloadKind::Consensus {
            len.min(1)
        } else {
            len
        };
        (0..len)
            .map(|_| self.mix.sample(self.kind, process, &mut rng, &mut fresh))
            .collect()
    }
}

/// Adapts a [`Workload`] into a pull-based
/// [`OpSource`](crate::recorder::OpSource) for the controlled scheduler.
#[derive(Debug)]
pub struct WorkloadSource {
    queues: Vec<VecDeque<Operation>>,
}

impl WorkloadSource {
    /// Pre-generates each process's sequence
    /// ([`Workload::operations_for`]).
    pub fn new(workload: &Workload, processes: usize, ops_per_process: usize) -> Self {
        WorkloadSource {
            queues: (0..processes)
                .map(|p| workload.operations_for(p, ops_per_process).into())
                .collect(),
        }
    }
}

impl crate::recorder::OpSource for WorkloadSource {
    fn next_step(&mut self, process: usize) -> Option<crate::recorder::SourceStep> {
        self.queues
            .get_mut(process)?
            .pop_front()
            .map(crate::recorder::SourceStep::Invoke)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible() {
        let w = Workload::new(WorkloadKind::Queue, 42);
        assert_eq!(w.operations_for(0, 20), w.operations_for(0, 20));
        assert_ne!(w.operations_for(0, 20), w.operations_for(1, 20));
    }

    #[test]
    fn inserted_values_are_unique_across_processes() {
        let w = Workload::new(WorkloadKind::Stack, 7);
        let a = w.operations_for(0, 50);
        let b = w.operations_for(1, 50);
        let values =
            |ops: &[Operation]| -> Vec<i64> { ops.iter().filter_map(|o| o.arg.as_int()).collect() };
        for v in values(&a) {
            assert!(!values(&b).contains(&v));
        }
    }

    #[test]
    fn consensus_workload_is_one_shot() {
        let w = Workload::new(WorkloadKind::Consensus, 1);
        assert_eq!(w.operations_for(0, 10).len(), 1);
        assert_eq!(w.operations_for(3, 10)[0], ops::consensus::decide(4));
    }

    #[test]
    fn kinds_map_to_object_kinds() {
        assert_eq!(WorkloadKind::Queue.object_kind(), ObjectKind::Queue);
        assert_eq!(WorkloadKind::Set.object_kind(), ObjectKind::Set);
        assert_eq!(WorkloadKind::Consensus.object_kind(), ObjectKind::Consensus);
        for kind in ObjectKind::ALL {
            assert_eq!(WorkloadKind::for_object(kind).object_kind(), kind);
        }
    }

    #[test]
    fn default_mix_reproduces_the_historical_sampling() {
        // The historical generator (before mixes were configurable) drew
        // `gen_bool(0.5)` / `gen_bool(0.7)` / `gen_range(0..8)` +
        // `gen_range(0..10)` directly. The default mix must replay it exactly:
        // pin one sequence per shape so any change to the sampling shows up.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let w = Workload::new(WorkloadKind::Queue, 42);
        let got = w.operations_for(2, 6);
        let mut rng = StdRng::seed_from_u64(42 ^ 2u64.wrapping_mul(0x9E37_79B9));
        let mut next = 2_000_001i64;
        let want: Vec<Operation> = (0..6)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    let v = next;
                    next += 1;
                    ops::queue::enqueue(v)
                } else {
                    ops::queue::dequeue()
                }
            })
            .collect();
        assert_eq!(got, want);

        let w = Workload::new(WorkloadKind::Set, 13);
        let got = w.operations_for(1, 6);
        let mut rng = StdRng::seed_from_u64(13 ^ 0x9E37_79B9);
        let want: Vec<Operation> = (0..6)
            .map(|_| {
                let key = rng.gen_range(0..8);
                match rng.gen_range(0..10) {
                    0..=3 => ops::set::add(key),
                    4..=6 => ops::set::remove(key),
                    _ => ops::set::contains(key),
                }
            })
            .collect();
        assert_eq!(got, want);

        let w = Workload::new(WorkloadKind::Counter, 5);
        let got = w.operations_for(0, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let want: Vec<Operation> = (0..6)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    ops::counter::inc()
                } else {
                    ops::counter::read()
                }
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn extreme_weights_pin_the_operation_class() {
        let only_enqueues = Workload::new(WorkloadKind::Queue, 3)
            .with_mix(Mix::default_for(WorkloadKind::Queue).with_weights([1, 0, 0]));
        assert!(only_enqueues
            .operations_for(0, 30)
            .iter()
            .all(|op| op.kind == "Enqueue"));
        let only_pops = Workload::new(WorkloadKind::Stack, 3)
            .with_mix(Mix::default_for(WorkloadKind::Stack).with_weights([0, 1, 0]));
        assert!(only_pops
            .operations_for(0, 30)
            .iter()
            .all(|op| op.kind == "Pop"));
        let no_contains = Workload::new(WorkloadKind::Set, 3)
            .with_mix(Mix::default_for(WorkloadKind::Set).with_weights([1, 1, 0]));
        assert!(no_contains
            .operations_for(0, 50)
            .iter()
            .all(|op| op.kind != "Contains"));
    }

    #[test]
    fn skewed_keys_stay_in_range_and_concentrate_low() {
        let mix = Mix::default_for(WorkloadKind::Set)
            .with_key_range(16)
            .with_skew(2.0);
        let w = Workload::new(WorkloadKind::Set, 11).with_mix(mix);
        let keys: Vec<i64> = w
            .operations_for(0, 400)
            .iter()
            .filter_map(|op| op.arg.as_int())
            .collect();
        assert!(keys.iter().all(|&k| (0..16).contains(&k)));
        // With skew 2.0 the bottom quarter of the range must dominate.
        let low = keys.iter().filter(|&&k| k < 4).count();
        assert!(
            low * 2 > keys.len(),
            "expected >50% of keys below 4, got {low}/{}",
            keys.len()
        );
    }

    #[test]
    fn workload_source_drains_the_same_sequences() {
        use crate::recorder::{OpSource, SourceStep};
        let w = Workload::new(WorkloadKind::Queue, 21);
        let mut source = WorkloadSource::new(&w, 2, 5);
        let mut drained = Vec::new();
        while let Some(SourceStep::Invoke(op)) = source.next_step(1) {
            drained.push(op);
        }
        assert_eq!(drained, w.operations_for(1, 5));
        assert!(source.next_step(1).is_none());
        assert!(source.next_step(7).is_none());
    }
}
