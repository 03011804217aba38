//! The [`Monitor`]: a verified wrapper around one black-box implementation,
//! handing out per-process [`Session`] handles.

use crate::builder::{Mode, MonitorBuilder};
use crate::session::Session;
use linrv_check::StrategyChecker;
use linrv_core::certificate::Certificate;
use linrv_core::enforce::{decide, SelfEnforced};
use linrv_core::registry::RegistryFull;
use linrv_history::{History, ProcessId};
use linrv_runtime::ConcurrentObject;
use linrv_spec::TypedObject;
use std::sync::Arc;

/// The shared state behind a [`Monitor`] and its [`Session`]s.
pub(crate) struct MonitorInner<A, S: TypedObject> {
    pub(crate) enforced: SelfEnforced<A, StrategyChecker<S>>,
    pub(crate) mode: Mode,
    /// Trace tap installed by `MonitorBuilder::trace_to`, fed from every session.
    pub(crate) sink: Option<std::sync::Arc<dyn linrv_trace::EventSink>>,
}

impl<A: ConcurrentObject, S: TypedObject> MonitorInner<A, S> {
    /// Counts a surfaced violation verdict and records it as an event.
    pub(crate) fn note_violation(&self, process: ProcessId) {
        if linrv_obs::enabled() {
            crate::metrics::violations().inc();
            linrv_obs::event("monitor.violation", || {
                format!("violation verdict surfaced at {process}")
            });
        }
    }

    /// Forwards one event to the trace tap, when one is installed.
    pub(crate) fn tap(&self, event: &linrv_history::Event) {
        if let Some(sink) = &self.sink {
            sink.event(event);
        }
    }
}

/// The asynchronous verdict of a monitor over the computation it has seen so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every response exchanged so far is certified linearizable.
    Correct,
    /// The computation is not linearizable; the witness is a genuine history of
    /// the wrapped implementation (predictive soundness, Theorem 8.1).
    Violation {
        /// The non-linearizable witness history.
        witness: History,
    },
}

impl Verdict {
    /// Returns `true` when no violation has been detected.
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }

    /// The witness history, when a violation was detected.
    pub fn witness(&self) -> Option<&History> {
        match self {
            Verdict::Violation { witness } => Some(witness),
            Verdict::Correct => None,
        }
    }
}

/// A runtime-verification monitor wrapping one black-box implementation `A`
/// against the sequential specification `S`.
///
/// Obtain one through [`Monitor::builder`]; obtain per-process handles through
/// [`Monitor::register`]. The monitor is cheaply cloneable (it is an `Arc`
/// internally) and all methods take `&self`, so it can be shared freely across
/// threads.
pub struct Monitor<A, S: TypedObject> {
    inner: Arc<MonitorInner<A, S>>,
}

impl<A, S: TypedObject> Clone for Monitor<A, S> {
    fn clone(&self) -> Self {
        Monitor {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: TypedObject> Monitor<(), S> {
    /// Starts the fluent configuration chain (see [`MonitorBuilder`]).
    ///
    /// The implementation type is fixed later, by [`MonitorBuilder::build`]; this
    /// constructor lives on `Monitor<(), _>` only so that type inference never
    /// asks for it.
    pub fn builder(spec: S) -> MonitorBuilder<S> {
        MonitorBuilder::new(spec)
    }
}

impl<A: ConcurrentObject, S: TypedObject> Monitor<A, S> {
    pub(crate) fn from_inner(inner: MonitorInner<A, S>) -> Self {
        Monitor {
            inner: Arc::new(inner),
        }
    }

    /// Registers a new per-process session.
    ///
    /// Each session exclusively owns one of the monitor's `capacity()` process
    /// slots until it is dropped (slots are recycled). Call sites never handle
    /// process ids; the session threads its own id through every operation.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryFull`] when all slots are held by live sessions.
    pub fn register(&self) -> Result<Session<A, S>, RegistryFull> {
        let process = self.inner.enforced.drv().registry().register()?;
        Ok(Session::new(Arc::clone(&self.inner), process))
    }

    /// Maximum number of concurrently registered sessions.
    pub fn capacity(&self) -> usize {
        self.inner.enforced.processes()
    }

    /// Number of currently registered sessions.
    pub fn registered(&self) -> usize {
        self.inner.enforced.drv().registry().registered()
    }

    /// The monitor's verification mode.
    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// Recomputes the verdict over everything published so far (Figure 12,
    /// verifier role). In [`Mode::Observe`] this is the *only* place verdicts are
    /// computed; in [`Mode::Enforce`] it is a cheap way to poll global health
    /// without issuing an operation.
    ///
    /// # Panics
    ///
    /// Panics when the published tuples violate the view properties of
    /// Remark 7.2, which cannot happen unless the shared state was corrupted.
    pub fn check(&self) -> Verdict {
        let scanner = ProcessId::new(0);
        match decide(self.inner.enforced.verifier(), scanner) {
            None => Verdict::Correct,
            Some(witness) => {
                // In Observe mode this is where violations surface.
                self.inner.note_violation(scanner);
                Verdict::Violation { witness }
            }
        }
    }

    /// Produces a certificate of the computation so far (Theorem 8.2 (3)).
    pub fn certificate(&self) -> Certificate {
        self.inner.enforced.certificate()
    }

    /// Short human-readable name (implementation + object).
    pub fn name(&self) -> String {
        self.inner.enforced.name()
    }

    /// Escape hatch: the underlying self-enforced wrapper of the raw API.
    ///
    /// Everything the facade does can also be done here, at the price of manual
    /// `ProcessId` threading and untyped `Operation`/`OpValue` handling.
    pub fn as_raw(&self) -> &SelfEnforced<A, StrategyChecker<S>> {
        &self.inner.enforced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Mode;
    use linrv_runtime::faulty::LossyQueue;
    use linrv_runtime::impls::MsQueue;
    use linrv_spec::QueueSpec;

    #[test]
    fn sessions_recycle_capacity() {
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(1)
            .build(MsQueue::new());
        let first = monitor.register().unwrap();
        assert_eq!(monitor.registered(), 1);
        assert!(monitor.register().is_err(), "capacity is exhausted");
        drop(first);
        assert_eq!(monitor.registered(), 0);
        let second = monitor.register().unwrap();
        second.enqueue(1).unwrap();
        assert_eq!(second.dequeue().unwrap(), Some(1));
    }

    #[test]
    fn monitor_clones_share_state() {
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(2)
            .build(MsQueue::new());
        let clone = monitor.clone();
        let session = clone.register().unwrap();
        session.enqueue(9).unwrap();
        assert_eq!(monitor.registered(), 1);
        assert!(monitor.check().is_correct());
        assert_eq!(monitor.certificate().operations(), 1);
        assert!(monitor.name().contains("queue"));
    }

    #[test]
    fn observe_mode_defers_verdicts_to_check() {
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(1)
            .mode(Mode::Observe)
            .build(LossyQueue::new(2));
        let session = monitor.register().unwrap();
        for i in 0..6 {
            session.enqueue(i).expect("observe mode never rejects");
        }
        let mut drained = 0;
        while session
            .dequeue()
            .expect("observe mode never rejects")
            .is_some()
        {
            drained += 1;
        }
        assert!(drained < 6, "the lossy queue must lose elements");
        let verdict = monitor.check();
        assert!(!verdict.is_correct());
        assert!(verdict.witness().is_some());
    }

    /// `Monitor::check` (slot 0) and session 0 both continue the verifier's
    /// incremental sketch. Racing them from two threads (the loser audits from
    /// scratch; the core's unit tests force that case) never changes a verdict:
    /// afterwards `check` agrees with a from-scratch audit, witness and all, on a
    /// correct and on a lossy queue.
    #[test]
    fn a_check_racing_session_zero_agrees_with_the_audit() {
        fn race<A: ConcurrentObject>(object: A) -> bool {
            let monitor = Monitor::builder(QueueSpec::new())
                .processes(2)
                .build(object);
            let session = monitor.register().unwrap();
            let other = monitor.register().unwrap();
            let start = std::sync::Barrier::new(2);
            let clean = std::thread::scope(|scope| {
                let worker = scope.spawn(|| {
                    start.wait();
                    (0..40).all(|i| session.enqueue(i).is_ok() && session.dequeue().is_ok())
                });
                start.wait();
                let checks = (0..80).all(|i| {
                    if i % 8 == 0 {
                        let _ = other.enqueue(1000 + i);
                    }
                    monitor.check().is_correct()
                });
                worker.join().unwrap() && checks
            });
            let audit = monitor.as_raw().verifier().audit(ProcessId::new(0));
            match monitor.check() {
                Verdict::Correct => assert!(audit.member),
                Verdict::Violation { witness } => {
                    assert!(!audit.member);
                    assert_eq!(Some(witness), audit.sketch.ok());
                }
            }
            clean
        }
        assert!(race(MsQueue::new()), "a race raised a false alarm");
        assert!(!race(LossyQueue::new(3)), "the lossy queue went unnoticed");
    }

    /// The monitor decides through the specialized monitors, and its
    /// certificate names the object, not the procedure that decided.
    #[test]
    fn monitor_decides_through_the_strategy_checker() {
        use linrv_check::Route;
        let monitor = Monitor::builder(QueueSpec::new())
            .processes(1)
            .build(MsQueue::new());
        let session = monitor.register().unwrap();
        for i in 0..3 {
            session.enqueue(i).unwrap();
        }
        assert_eq!(session.dequeue().unwrap(), Some(0));
        let certificate = monitor.certificate();
        let object = monitor.as_raw().verifier().object();
        assert_eq!(
            object.check_routed(&certificate.sketch).1,
            Route::Specialized
        );
        assert_eq!(
            certificate.object,
            "linearizability w.r.t. the queue object"
        );
    }
}
