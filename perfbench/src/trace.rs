//! Round-phase tracing from outside the engine.
//!
//! The engine's round loop calls every process in node order and the link
//! process once per round, so wrapping them is enough to see where a round
//! spends its time. The clock is read only at phase boundaries — node 0's
//! entry and node n−1's exit of `on_round` and `on_feedback`, and the link
//! process's `on_start` and `decide` — about six reads a round. Each read
//! charges the time since the previous one to the phase that just ended:
//!
//! | boundary                        | phase that ended        |
//! |---------------------------------|-------------------------|
//! | link `on_start` entry           | [`Phase::TrialReset`]   |
//! | link `on_start` exit            | [`Phase::AdversaryStart`] |
//! | node 0 `on_round` entry         | [`Phase::ViewRecord`]   |
//! | node n−1 `on_round` exit        | [`Phase::CoreDecide`]   |
//! | link `decide` entry             | [`Phase::ViewRecord`]   |
//! | link `decide` exit              | [`Phase::AdversaryDecide`] |
//! | node 0 `on_feedback` entry      | [`Phase::Reception`]    |
//! | node n−1 `on_feedback` exit     | [`Phase::CoreFeedback`] |
//!
//! What follows the last boundary of a trial (the final stop check and the
//! outcome hand-off) is covered by no phase; the benchmark reports it as
//! unattributed time. Wrappers forward every trait method unchanged, so a
//! traced execution draws the same coins and makes the same decisions as
//! an untraced one. An adversary that pre-simulates processes through the
//! factory would read the node clocks from inside its own phase; none of
//! the benchmark's workloads uses one.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dradio_sim::{
    Action, AdversaryClass, AdversarySetup, AdversaryView, BatchProfile, Feedback, LinkDecision,
    LinkProcess, Process, ProcessContext, ProcessFactory, Round,
};
use rand::RngCore;

/// A span of a traced trial, named by the layer it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// From the trial's start to the link process's `on_start`: stream
    /// reseeding, process construction and link reset.
    TrialReset,
    /// The link process's `on_start`.
    AdversaryStart,
    /// Every process's `on_round` (node 0 entry to node n−1 exit).
    CoreDecide,
    /// The link process's `decide`.
    AdversaryDecide,
    /// From `decide` exit to node 0's `on_feedback`: link-edge filtering and
    /// collision-rule reception.
    Reception,
    /// Every process's `on_feedback`.
    CoreFeedback,
    /// Transmit-probability views, adversary views, history recording and
    /// stop evaluation: the engine's remaining per-round work.
    ViewRecord,
}

impl Phase {
    /// Every phase, in the order [`PhaseTimes`] stores them.
    pub const ALL: [Phase; 7] = [
        Phase::TrialReset,
        Phase::AdversaryStart,
        Phase::CoreDecide,
        Phase::AdversaryDecide,
        Phase::Reception,
        Phase::CoreFeedback,
        Phase::ViewRecord,
    ];

    /// The per-layer metric this phase's total is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Phase::TrialReset => "sim.trial_reset_s",
            Phase::AdversaryStart => "adversary.start_s",
            Phase::CoreDecide => "core.decide_s",
            Phase::AdversaryDecide => "adversary.decide_s",
            Phase::Reception => "sim.reception_s",
            Phase::CoreFeedback => "core.feedback_s",
            Phase::ViewRecord => "sim.view_record_s",
        }
    }
}

/// Phase durations and link-decision counts of one traced trial.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Seconds per phase, indexed like [`Phase::ALL`].
    pub seconds: [f64; 7],
    /// Edges the link process proposed over the trial (before the engine's
    /// dynamic-edge filter).
    pub edges_proposed: u64,
}

impl PhaseTimes {
    /// Seconds spent in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.seconds[phase as usize]
    }

    /// Seconds covered by any phase.
    pub fn covered(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Adds another trial's phases into this one.
    pub fn add(&mut self, other: &PhaseTimes) {
        for (mine, theirs) in self.seconds.iter_mut().zip(other.seconds) {
            *mine += theirs;
        }
        self.edges_proposed += other.edges_proposed;
    }
}

/// The running trial's clock. One traced trial runs per thread at a time
/// (the engine drives a trial's processes and link process on the calling
/// thread), so the clock is thread-local.
struct Clock {
    last: Instant,
    phases: [Duration; 7],
    edges_proposed: u64,
}

thread_local! {
    static CLOCK: RefCell<Clock> = RefCell::new(Clock {
        last: Instant::now(),
        phases: [Duration::ZERO; 7],
        edges_proposed: 0,
    });
}

/// Charges the time since the previous boundary to `phase`.
fn mark(phase: Phase) {
    let now = Instant::now();
    CLOCK.with(|clock| {
        let mut clock = clock.borrow_mut();
        let elapsed = now - clock.last;
        clock.phases[phase as usize] += elapsed;
        clock.last = now;
    });
}

/// Starts a traced trial on this thread: clears the phase totals and returns
/// the trial's start time, which the first phase is measured from.
pub fn begin_trial() -> Instant {
    CLOCK.with(|clock| {
        let mut clock = clock.borrow_mut();
        clock.phases = [Duration::ZERO; 7];
        clock.edges_proposed = 0;
        clock.last = Instant::now();
        clock.last
    })
}

/// Ends the running traced trial, returning its phases.
pub fn end_trial() -> PhaseTimes {
    CLOCK.with(|clock| {
        let clock = clock.borrow();
        PhaseTimes {
            seconds: clock.phases.map(|d| d.as_secs_f64()),
            edges_proposed: clock.edges_proposed,
        }
    })
}

/// A process that marks the round-phase boundaries it sits on.
struct TracedProcess {
    inner: Box<dyn Process>,
    first: bool,
    last: bool,
}

impl Process for TracedProcess {
    fn on_start(&mut self, rng: &mut dyn RngCore) {
        self.inner.on_start(rng);
    }

    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        if self.first {
            mark(Phase::ViewRecord);
        }
        let action = self.inner.on_round(round, rng);
        if self.last {
            mark(Phase::CoreDecide);
        }
        action
    }

    fn on_feedback(&mut self, round: Round, feedback: &Feedback, rng: &mut dyn RngCore) {
        if self.first {
            mark(Phase::Reception);
        }
        self.inner.on_feedback(round, feedback, rng);
        if self.last {
            mark(Phase::CoreFeedback);
        }
    }

    fn transmit_probability(&self, round: Round) -> f64 {
        self.inner.transmit_probability(round)
    }

    fn is_informed(&self) -> bool {
        self.inner.is_informed()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn batch_profile(&self) -> BatchProfile {
        self.inner.batch_profile()
    }
}

/// A link process that marks its own phases and counts proposed edges.
struct TracedLink {
    inner: Box<dyn LinkProcess>,
}

impl LinkProcess for TracedLink {
    fn class(&self) -> AdversaryClass {
        self.inner.class()
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        mark(Phase::TrialReset);
        self.inner.on_start(setup, rng);
        mark(Phase::AdversaryStart);
    }

    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        mark(Phase::ViewRecord);
        let decision = self.inner.decide(view, rng);
        mark(Phase::AdversaryDecide);
        CLOCK.with(|clock| clock.borrow_mut().edges_proposed += decision.len() as u64);
        decision
    }

    fn reset(&mut self) -> bool {
        self.inner.reset()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wraps every process `inner` creates so node 0 and node n−1 mark the
/// process-decision and feedback phases.
pub fn traced_factory(inner: ProcessFactory) -> ProcessFactory {
    Arc::new(move |ctx: &ProcessContext| {
        let index = ctx.id.index();
        Box::new(TracedProcess {
            inner: inner(ctx),
            first: index == 0,
            last: index + 1 == ctx.n,
        }) as Box<dyn Process>
    })
}

/// Wraps a link process so it marks the adversary phases.
pub fn traced_link(inner: Box<dyn LinkProcess>) -> Box<dyn LinkProcess> {
    Box::new(TracedLink { inner })
}
