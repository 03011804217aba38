//! Composable workload generators.
//!
//! A [`Generator`] produces one process's operation stream, one step at a
//! time: either an operation to invoke next or a pause (a number of scheduler
//! steps to stay quiescent). Generators are deterministic functions of the
//! per-process [`GenCtx`] — same seed, same stream — which is what makes whole
//! fuzz sweeps replayable bit for bit.
//!
//! The leaves sample the runtime's configurable [`Mix`] ([`op_mix`], with
//! [`fill`]/[`drain`] as the phased special cases); the combinators compose
//! them Jepsen-style: [`seq`] for phases, [`mix`] for weighted interleaving,
//! [`take`] for budgets, [`stagger`] for burst/quiescence timing.

use linrv_history::Operation;
use linrv_runtime::{Mix, OpSource, SourceStep, WorkloadKind, MAX_IDLE_TICKS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-process generator context: the seeded RNG and the fresh-value counter.
///
/// Seeding mirrors [`linrv_runtime::Workload::operations_for`]: the RNG is
/// derived from the scenario seed and the process index, and inserted values
/// encode the process (globally unique across processes).
#[derive(Debug)]
pub struct GenCtx {
    process: usize,
    rng: StdRng,
    next_value: i64,
}

impl GenCtx {
    /// A context for `process` under the scenario `seed`.
    pub fn new(seed: u64, process: usize) -> Self {
        GenCtx {
            process,
            rng: StdRng::seed_from_u64(seed ^ (process as u64).wrapping_mul(0x9E37_79B9)),
            next_value: (process as i64) * 1_000_000 + 1,
        }
    }

    /// The process this context belongs to.
    pub fn process(&self) -> usize {
        self.process
    }

    /// The context's RNG (for combinators that need randomness of their own).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Samples one operation of `kind` from `mix` (splitting the context's
    /// borrows so the mix can draw keys and fresh values in one call).
    pub fn sample(&mut self, kind: WorkloadKind, mix: &Mix) -> Operation {
        let GenCtx {
            process,
            rng,
            next_value,
        } = self;
        let mut fresh = || {
            let v = *next_value;
            *next_value += 1;
            v
        };
        mix.sample(kind, *process, rng, &mut fresh)
    }
}

/// One step of a generator's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum GenStep {
    /// Invoke this operation next.
    Op(Operation),
    /// Stay quiescent for this many scheduler steps.
    Pause(u64),
}

/// A composable per-process operation stream.
///
/// `next_step` returns `None` when the stream is exhausted; infinite streams
/// (the leaves) are bounded by wrapping them in [`take`].
pub trait Generator: Send {
    /// The next step of the stream, or `None` when exhausted.
    fn next_step(&mut self, ctx: &mut GenCtx) -> Option<GenStep>;
}

/// The uniform boxed generator the combinators compose.
pub type BoxGenerator = Box<dyn Generator>;

// --- leaves ------------------------------------------------------------------

struct OpMix {
    kind: WorkloadKind,
    mix: Mix,
}

impl Generator for OpMix {
    fn next_step(&mut self, ctx: &mut GenCtx) -> Option<GenStep> {
        Some(GenStep::Op(ctx.sample(self.kind, &self.mix)))
    }
}

/// An endless stream sampling `mix` over `kind`'s operations.
pub fn op_mix(kind: WorkloadKind, mix: Mix) -> BoxGenerator {
    Box::new(OpMix { kind, mix })
}

/// An endless stream of `kind`'s first operation class only (enqueue, push,
/// add, insert, inc, write — the "fill" phase of a phased schedule).
pub fn fill(kind: WorkloadKind) -> BoxGenerator {
    op_mix(kind, Mix::default_for(kind).with_weights([1, 0, 0]))
}

/// An endless stream of `kind`'s second operation class only (dequeue, pop,
/// remove, extract-min, read — the "drain" phase of a phased schedule).
pub fn drain(kind: WorkloadKind) -> BoxGenerator {
    // Consensus has a single operation class; its mix is ignored anyway, but
    // the weights must stay non-degenerate for the two-class kinds.
    op_mix(kind, Mix::default_for(kind).with_weights([0, 1, 0]))
}

// --- combinators -------------------------------------------------------------

struct Seq {
    parts: Vec<BoxGenerator>,
    current: usize,
}

impl Generator for Seq {
    fn next_step(&mut self, ctx: &mut GenCtx) -> Option<GenStep> {
        while self.current < self.parts.len() {
            if let Some(step) = self.parts[self.current].next_step(ctx) {
                return Some(step);
            }
            self.current += 1;
        }
        None
    }
}

/// Runs `parts` one after another: each part drains fully before the next
/// starts (phased schedules like fill-then-drain).
pub fn seq(parts: Vec<BoxGenerator>) -> BoxGenerator {
    Box::new(Seq { parts, current: 0 })
}

struct WeightedMix {
    parts: Vec<(u32, BoxGenerator)>,
}

impl Generator for WeightedMix {
    fn next_step(&mut self, ctx: &mut GenCtx) -> Option<GenStep> {
        while !self.parts.is_empty() {
            let total: u32 = self.parts.iter().map(|(w, _)| *w).sum();
            assert!(total > 0, "mix weights must not all be zero");
            let roll = ctx.rng().gen_range(0..i64::from(total));
            let mut acc = 0i64;
            let mut chosen = self.parts.len() - 1;
            for (i, (w, _)) in self.parts.iter().enumerate() {
                acc += i64::from(*w);
                if roll < acc {
                    chosen = i;
                    break;
                }
            }
            match self.parts[chosen].1.next_step(ctx) {
                Some(step) => return Some(step),
                // An exhausted part leaves the rotation; its weight is
                // redistributed implicitly.
                None => {
                    self.parts.remove(chosen);
                }
            }
        }
        None
    }
}

/// Interleaves `parts` at random, proportionally to their weights; exhausted
/// parts drop out. Exhausted when every part is.
pub fn mix(parts: Vec<(u32, BoxGenerator)>) -> BoxGenerator {
    Box::new(WeightedMix { parts })
}

struct Take {
    inner: BoxGenerator,
    remaining: usize,
}

impl Generator for Take {
    fn next_step(&mut self, ctx: &mut GenCtx) -> Option<GenStep> {
        if self.remaining == 0 {
            return None;
        }
        let step = self.inner.next_step(ctx)?;
        if matches!(step, GenStep::Op(_)) {
            self.remaining -= 1;
        }
        Some(step)
    }
}

/// At most `n` operations from `inner` (pauses pass through uncounted).
pub fn take(inner: BoxGenerator, n: usize) -> BoxGenerator {
    Box::new(Take {
        inner,
        remaining: n,
    })
}

struct Stagger {
    inner: BoxGenerator,
    burst: u64,
    pause: u64,
    issued: u64,
}

impl Generator for Stagger {
    fn next_step(&mut self, ctx: &mut GenCtx) -> Option<GenStep> {
        if self.issued == self.burst {
            self.issued = 0;
            return Some(GenStep::Pause(self.pause));
        }
        let step = self.inner.next_step(ctx)?;
        if matches!(step, GenStep::Op(_)) {
            self.issued += 1;
        }
        Some(step)
    }
}

/// Burst/quiescence timing: `burst` operations from `inner`, then a pause of
/// `pause` scheduler steps, repeating.
///
/// # Panics
///
/// Panics if `burst` is zero (the stream would emit pauses forever).
pub fn stagger(inner: BoxGenerator, burst: u64, pause: u64) -> BoxGenerator {
    assert!(burst > 0, "stagger burst must be positive");
    Box::new(Stagger {
        inner,
        burst,
        pause,
        issued: 0,
    })
}

// --- scheduler adaptor -------------------------------------------------------

/// Adapts one generator per process into the controlled scheduler's
/// [`OpSource`].
pub struct GeneratorSource {
    procs: Vec<(GenCtx, BoxGenerator)>,
}

impl GeneratorSource {
    /// One context per generator, seeded per process from the scenario `seed`.
    pub fn new(seed: u64, generators: Vec<BoxGenerator>) -> Self {
        GeneratorSource {
            procs: generators
                .into_iter()
                .enumerate()
                .map(|(p, g)| (GenCtx::new(seed, p), g))
                .collect(),
        }
    }

    /// The next *operation* for `process`, skipping over pauses (for drivers
    /// without a scheduler clock, like the pool runner).
    pub fn next_op(&mut self, process: usize) -> Option<Operation> {
        loop {
            let (ctx, generator) = self.procs.get_mut(process)?;
            match generator.next_step(ctx)? {
                GenStep::Op(op) => return Some(op),
                GenStep::Pause(_) => continue,
            }
        }
    }
}

impl OpSource for GeneratorSource {
    fn next_step(&mut self, process: usize) -> Option<SourceStep> {
        let (ctx, generator) = self.procs.get_mut(process)?;
        Some(match generator.next_step(ctx)? {
            GenStep::Op(op) => SourceStep::Invoke(op),
            GenStep::Pause(ticks) => SourceStep::Pause(ticks.min(MAX_IDLE_TICKS)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_ops(generator: &mut BoxGenerator, ctx: &mut GenCtx, cap: usize) -> Vec<Operation> {
        let mut ops = Vec::new();
        for _ in 0..cap {
            match generator.next_step(ctx) {
                Some(GenStep::Op(op)) => ops.push(op),
                Some(GenStep::Pause(_)) => continue,
                None => break,
            }
        }
        ops
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for _ in 0..2 {
            let make = || {
                take(
                    stagger(
                        op_mix(WorkloadKind::Queue, Mix::default_for(WorkloadKind::Queue)),
                        3,
                        8,
                    ),
                    20,
                )
            };
            let mut a = make();
            let mut b = make();
            let mut ctx_a = GenCtx::new(99, 1);
            let mut ctx_b = GenCtx::new(99, 1);
            assert_eq!(
                drain_ops(&mut a, &mut ctx_a, 100),
                drain_ops(&mut b, &mut ctx_b, 100)
            );
        }
    }

    #[test]
    fn seq_runs_phases_in_order() {
        let mut g = seq(vec![
            take(fill(WorkloadKind::Stack), 3),
            take(drain(WorkloadKind::Stack), 2),
        ]);
        let mut ctx = GenCtx::new(7, 0);
        let ops = drain_ops(&mut g, &mut ctx, 100);
        assert_eq!(
            ops.iter().map(|o| o.kind.as_str()).collect::<Vec<_>>(),
            ["Push", "Push", "Push", "Pop", "Pop"]
        );
        assert!(g.next_step(&mut ctx).is_none());
    }

    #[test]
    fn mix_interleaves_until_all_parts_drain() {
        let mut g = mix(vec![
            (3, take(fill(WorkloadKind::Queue), 5)),
            (1, take(drain(WorkloadKind::Queue), 5)),
        ]);
        let mut ctx = GenCtx::new(3, 0);
        let ops = drain_ops(&mut g, &mut ctx, 100);
        assert_eq!(ops.len(), 10);
        assert_eq!(ops.iter().filter(|o| o.kind == "Enqueue").count(), 5);
        assert_eq!(ops.iter().filter(|o| o.kind == "Dequeue").count(), 5);
    }

    #[test]
    fn stagger_inserts_pauses_between_bursts() {
        let mut g = stagger(fill(WorkloadKind::Counter), 2, 10);
        let mut ctx = GenCtx::new(1, 0);
        let mut shape = Vec::new();
        for _ in 0..9 {
            match g.next_step(&mut ctx).unwrap() {
                GenStep::Op(_) => shape.push('o'),
                GenStep::Pause(t) => {
                    assert_eq!(t, 10);
                    shape.push('-');
                }
            }
        }
        assert_eq!(shape.iter().collect::<String>(), "oo-oo-oo-");
    }

    #[test]
    fn take_counts_operations_not_pauses() {
        let mut g = take(stagger(fill(WorkloadKind::Register), 1, 4), 3);
        let mut ctx = GenCtx::new(5, 2);
        let ops = drain_ops(&mut g, &mut ctx, 100);
        assert_eq!(ops.len(), 3);
        assert!(ops.iter().all(|o| o.kind == "Write"));
    }

    #[test]
    fn generator_source_adapts_per_process_streams() {
        let mut source = GeneratorSource::new(
            11,
            vec![
                take(fill(WorkloadKind::Queue), 2),
                take(drain(WorkloadKind::Queue), 2),
            ],
        );
        assert!(matches!(
            OpSource::next_step(&mut source, 0),
            Some(SourceStep::Invoke(op)) if op.kind == "Enqueue"
        ));
        assert!(matches!(
            OpSource::next_step(&mut source, 1),
            Some(SourceStep::Invoke(op)) if op.kind == "Dequeue"
        ));
        assert_eq!(source.next_op(0).unwrap().kind, "Enqueue");
        assert!(source.next_op(0).is_none());
        assert!(OpSource::next_step(&mut source, 5).is_none());
    }
}
