//! Reusable trial execution: build the expensive parts once, run many seeds.
//!
//! [`Simulator`](crate::Simulator) is a single-shot value: constructing one
//! copies the network, boxes one process per node, and seeds every random
//! stream — and [`Simulator::run`](crate::Simulator::run) consumes it. For a
//! lone execution that is the right shape, but trial fan-out (hundreds of
//! short executions of the same scenario under different seeds) pays the
//! whole setup bill per trial, and after the round loop itself was made
//! allocation-free that bill *dominates* short executions.
//!
//! A [`TrialExecutor`] splits the state by lifetime instead:
//!
//! * **shared, immutable across trials** — the network (held as an
//!   [`Arc<DualGraph>`], never cloned), the process factory, the role
//!   assignment, the stop condition, and the configuration;
//! * **owned, reused across trials** — the process vector (the `Vec` is
//!   cleared and refilled, not reallocated), the per-node RNG vector
//!   (reseeded in place), the adversary RNG, the link process (reused when
//!   [`LinkProcess::reset`] succeeds, rebuilt from the [`LinkFactory`]
//!   otherwise), the [`StopTracker`] (reset in place), and the round
//!   scratch memory.
//!
//! [`TrialExecutor::execute`] is *deterministically equivalent* to building
//! a fresh `Simulator` with the same seed and running it: the per-node and
//! adversary streams are derived from the seed exactly as
//! [`Simulator::new`](crate::Simulator::new) derives them, and the round
//! loop is the same code (`Simulator::run` is implemented on top of this
//! type). The root `integration_executor` test suite pins outcome equality
//! across every registered algorithm × adversary × problem class.
//!
//! # How a round is resolved
//!
//! A round costs `O(n/64 + awake + heard)`, not `O(n)` process calls: the
//! executor keeps every process's [`Activity`] hint (read after `on_start`
//! and after every round that called the process) and walks bitsets of the
//! non-dormant nodes, the awake nodes and the nodes reached this round. A
//! process that declares no hint is awake and gets every call.
//!
//! 1. Adaptive adversaries get the processes' transmit probabilities (0.0
//!    for dormant nodes, which are not asked), then every non-dormant
//!    process picks its action with its private coins, in ascending order,
//!    which yields the ascending transmitter list. Dormant nodes listen; the
//!    action vector stays `n` long, so the offline adversary's view is
//!    unchanged. A deaf process gets no further call this round, so its hint
//!    is re-read right away.
//! 2. The link process returns a [`LinkDecision`](crate::LinkDecision) —
//!    an edge list or a bitmask over the network's grey ids
//!    ([`DualGraph::grey_table`], built on the first trial and shared by
//!    every executor holding the same `Arc<DualGraph>`). One resolver turns
//!    either form into the round's active grey mask, counting proposals that
//!    name no grey edge as rejected and dropping repeats. An oblivious link
//!    process that declares [`LinkProcess::iid_coins`] `Some(p)` with
//!    `0 < p < 1` is not asked in a round that records no history: its
//!    decision would be one `next_u64` coin per grey id, so the executor
//!    notes the adversary stream's word position `b`, seeks the stream to
//!    `b + 2·|grey|`, and lets reception evaluate coin `i` from words
//!    `b + 2i` and `b + 2i + 1` only when it reads grey edge `i` — a whole
//!    ChaCha block of coins at a time. The stream is counter-mode, so the
//!    coins, and the outcome, are the ones `decide` would have produced.
//! 3. Reception is a transmitter push: each transmitter bumps a saturating
//!    per-node count (0 / 1 / ≥ 2, plus the last sender) at every neighbor
//!    in its `G` row and across every active edge of its grey row, and marks
//!    that neighbor touched. The work is proportional to the transmitters'
//!    degrees, on the dense and the CSR backend alike.
//! 4. One ascending pass over the awake and the touched nodes counts
//!    deliveries and collisions, hands each delivery to stop tracking (so it
//!    observes deliveries in the same order as any listener-by-listener
//!    scan), and delivers the feedback each hint asks for: everything to an
//!    awake process, nothing to a deaf one, only a reception to a dormant
//!    one, re-reading the hint after each call. Every node the pass skips
//!    listened to silence, so idle listens are `n − |T| − heard listeners`.
//! 5. Under full recording the round's transmitters, deliveries and active
//!    grey edges (mask ids ascending, or listed edges in first-occurrence
//!    order) are appended to the history.

use std::sync::Arc;

use dradio_graphs::{DualGraph, Graph, GreyTable, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::action::{Action, Feedback};
use crate::config::SimConfig;
use crate::engine::{derive_stream_seed, ExecutionOutcome};
use crate::error::SimError;
use crate::history::{Delivery, RoundRecord};
use crate::link::{AdversaryClass, AdversarySetup, AdversaryView, LinkDecision, LinkProcess};
use crate::metrics::Metrics;
use crate::process::{Activity, Assignment, Process, ProcessContext, ProcessFactory};
use crate::recorder::{RecordMode, Recorder};
use crate::resolve::{ActiveGrey, LazyCoins};
use crate::round::Round;
use crate::sampling::bernoulli_threshold;
use crate::stop::{StopCondition, StopTracker};
use crate::Result;

/// Builds one fresh link process per execution. Adversaries are stateful, so
/// reusable executors store this recipe; it is only invoked when the previous
/// trial's process cannot [`reset`](LinkProcess::reset) itself.
pub type LinkFactory = Arc<dyn Fn() -> Box<dyn LinkProcess> + Send + Sync>;

/// A reusable execution harness over one fixed (network × algorithm ×
/// assignment × adversary recipe × stop condition) combination.
///
/// See the [module documentation](self) for the sharing/reuse split and the
/// equivalence guarantee.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use dradio_graphs::topology;
/// use dradio_sim::{
///     Action, Assignment, LinkFactory, Message, MessageKind, Process, ProcessContext,
///     ProcessFactory, RecordMode, Round, SimConfig, StaticLinks, StopCondition, TrialExecutor,
/// };
///
/// struct Beacon(Option<Message>);
/// impl Process for Beacon {
///     fn on_round(&mut self, _round: Round, _rng: &mut dyn rand::RngCore) -> Action {
///         match &self.0 {
///             Some(m) => Action::Transmit(m.clone()),
///             None => Action::Listen,
///         }
///     }
/// }
///
/// let factory: ProcessFactory = Arc::new(|ctx: &ProcessContext| {
///     let msg = (ctx.id.index() == 0).then(|| Message::plain(ctx.id, MessageKind::new(1), 7));
///     Box::new(Beacon(msg)) as Box<dyn Process>
/// });
/// let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
/// let mut executor = TrialExecutor::new(
///     topology::star(5)?,
///     factory,
///     Assignment::relays(5),
///     link,
///     StopCondition::max_rounds(),
///     SimConfig::default().with_max_rounds(3),
/// )?;
/// for seed in 0..10 {
///     let outcome = executor.execute(seed, RecordMode::None);
///     assert_eq!(outcome.metrics.deliveries, 3 * 4); // 4 leaves hear the hub, 3 rounds
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TrialExecutor {
    dual: Arc<DualGraph>,
    factory: ProcessFactory,
    assignment: Assignment,
    config: SimConfig,
    link_factory: Option<LinkFactory>,
    link: Option<Box<dyn LinkProcess>>,
    /// Whether the stored link process has served an execution (a fresh one
    /// may be used as-is; a spent one must reset or be rebuilt).
    link_spent: bool,
    contexts: Vec<ProcessContext>,
    processes: Vec<Box<dyn Process>>,
    node_rngs: Vec<ChaCha8Rng>,
    adversary_rng: ChaCha8Rng,
    tracker: StopTracker,
    scratch: RoundScratch,
}

impl TrialExecutor {
    /// Builds an executor whose link process is created (and, when
    /// [`LinkProcess::reset`] declines, re-created) through `link_factory`.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyNetwork`] if the network has no nodes.
    /// * [`SimError::AssignmentSizeMismatch`] if `assignment` covers a
    ///   different number of nodes.
    /// * [`SimError::InvalidConfig`] if the configuration is invalid.
    ///
    /// # Panics
    ///
    /// Panics if `stop` references nodes outside the network (a programming
    /// error in the experiment setup, not a runtime condition).
    pub fn new(
        dual: impl Into<Arc<DualGraph>>,
        factory: ProcessFactory,
        assignment: Assignment,
        link_factory: LinkFactory,
        stop: StopCondition,
        config: SimConfig,
    ) -> Result<Self> {
        let link = link_factory();
        Self::build(
            dual.into(),
            factory,
            assignment,
            Some(link_factory),
            link,
            stop,
            config,
        )
    }

    /// Builds a single-shot executor around an already-boxed link process
    /// ([`Simulator::run`](crate::Simulator::run) uses this); without a
    /// factory, only the first execution is guaranteed a rebuildable link.
    pub(crate) fn single_shot(
        dual: Arc<DualGraph>,
        factory: ProcessFactory,
        assignment: Assignment,
        link: Box<dyn LinkProcess>,
        stop: StopCondition,
        config: SimConfig,
    ) -> Result<Self> {
        Self::build(dual, factory, assignment, None, link, stop, config)
    }

    fn build(
        dual: Arc<DualGraph>,
        factory: ProcessFactory,
        assignment: Assignment,
        link_factory: Option<LinkFactory>,
        link: Box<dyn LinkProcess>,
        stop: StopCondition,
        config: SimConfig,
    ) -> Result<Self> {
        config.validate()?;
        let n = dual.len();
        if n == 0 {
            return Err(SimError::EmptyNetwork);
        }
        if assignment.len() != n {
            return Err(SimError::AssignmentSizeMismatch {
                network: n,
                assignment: assignment.len(),
            });
        }
        if let Some(max_index) = stop.max_node_index() {
            assert!(
                max_index < n,
                "stop condition references node {max_index} but the network has {n} nodes"
            );
        }
        let max_degree = dual.max_degree();
        let contexts: Vec<ProcessContext> = NodeId::all(n)
            .map(|u| ProcessContext::new(u, n, max_degree, assignment.role(u)))
            .collect();
        let scratch = RoundScratch::new(n);
        Ok(TrialExecutor {
            tracker: StopTracker::new(stop, n),
            dual,
            factory,
            assignment,
            config,
            link_factory,
            link: Some(link),
            link_spent: false,
            contexts,
            processes: Vec::with_capacity(n),
            node_rngs: Vec::with_capacity(n),
            adversary_rng: ChaCha8Rng::seed_from_u64(0),
            scratch,
        })
    }

    /// The network being simulated.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// The configuration in effect (its seed and record mode are superseded
    /// per execution by [`TrialExecutor::execute`]'s arguments).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs one independent execution from `seed`, retaining as much of it
    /// as `record_mode` asks for.
    ///
    /// Equivalent — outcome for outcome — to
    /// `Simulator::new(..., config.with_seed(seed).with_record_mode(record_mode))?.run(stop)`
    /// with the same components, but without re-copying the network,
    /// reallocating the per-round scratch, or reseeding streams from
    /// scratch-allocated state.
    pub fn execute(&mut self, seed: u64, record_mode: RecordMode) -> ExecutionOutcome {
        let n = self.dual.len();
        // Per-node and adversary streams, derived exactly as Simulator::new
        // derives them, reseeded in place.
        self.node_rngs
            .resize_with(n, || ChaCha8Rng::seed_from_u64(0));
        for (u, rng) in self.node_rngs.iter_mut().enumerate() {
            *rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed, u as u64));
        }
        self.adversary_rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed, u64::MAX));
        // Fresh processes into the reused vector.
        self.processes.clear();
        for ctx in &self.contexts {
            self.processes.push((self.factory)(ctx));
        }
        // The link process: first use as built, afterwards reset-in-place or
        // rebuild from the recipe.
        let rebuild = |factory: &Option<LinkFactory>| {
            // lint: allow(D4) -- reachable only through TrialExecutor, whose
            // constructor always installs a link factory
            factory.as_ref().expect(
                "this executor has no link factory (single-shot construction) and its \
                 link process does not support reset, so it cannot run a second trial",
            )()
        };
        let mut link = match self.link.take() {
            Some(link) if !self.link_spent => link,
            Some(mut link) => {
                if link.reset() {
                    link
                } else {
                    rebuild(&self.link_factory)
                }
            }
            None => rebuild(&self.link_factory),
        };
        self.link_spent = true;
        self.tracker.reset();
        self.scratch.reset();
        let outcome = self.run_rounds(link.as_mut(), record_mode);
        self.link = Some(link);
        outcome
    }

    /// The round loop (shared verbatim by `Simulator::run`, which wraps a
    /// single-shot executor around its parts).
    fn run_rounds(
        &mut self,
        link: &mut dyn LinkProcess,
        record_mode: RecordMode,
    ) -> ExecutionOutcome {
        let n = self.dual.len();
        let horizon = self.config.max_rounds();
        let class = link.class();
        let adaptive = class != AdversaryClass::Oblivious;
        let offline = class == AdversaryClass::OfflineAdaptive;
        let mut recorder = Recorder::new(record_mode, class, n);
        let mut metrics = Metrics::default();
        let scratch = &mut self.scratch;
        // Built on the network's first trial, shared by every later one.
        let grey = self.dual.grey_table();

        // Start-of-execution hooks.
        {
            let setup = AdversarySetup {
                dual: &self.dual,
                factory: &self.factory,
                assignment: &self.assignment,
                horizon,
            };
            link.on_start(&setup, &mut self.adversary_rng);
        }
        for (i, process) in self.processes.iter_mut().enumerate() {
            process.on_start(&mut self.node_rngs[i]);
        }

        // An oblivious link process that declares iid coins is not asked
        // to decide a round that records no history: its coins are
        // evaluated on demand (`LinkProcess::iid_coins`).
        let lazy_threshold = match link.iid_coins() {
            Some(p) if !adaptive && !recorder.wants_history() && p > 0.0 && p < 1.0 => {
                Some(bernoulli_threshold(p))
            }
            _ => None,
        };

        scratch.activity.reset(n);
        for (u, process) in self.processes.iter().enumerate() {
            scratch.activity.set(u, process.activity());
        }
        // Every action is already `Listen` at probability 0.0.
        scratch.activity.slept.clear();

        let mut completion_round = None;
        let mut rounds_executed = 0usize;

        if self.tracker.is_done() {
            // Degenerate conditions (e.g. empty receiver set) are complete
            // before any round executes.
            let record_mode = recorder.mode();
            let (history, collisions_per_round) = recorder.finish();
            return ExecutionOutcome {
                completed: true,
                rounds_executed: 0,
                completion_round: None,
                history,
                metrics,
                record_mode,
                collisions_per_round,
            };
        }

        // lint: hot-path
        for round in Round::range(horizon) {
            rounds_executed += 1;
            let activity = &mut scratch.activity;

            // Nodes that fell dormant last round listen, at probability 0,
            // until they wake.
            for &u in &activity.slept {
                scratch.actions[u as usize] = Action::Listen;
                scratch.transmit_probs[u as usize] = 0.0;
            }
            activity.slept.clear();

            // 1. Expected behaviour (visible to adaptive adversaries) must be
            //    captured before any round-r coin is flipped.
            if adaptive {
                for w in 0..activity.awake.len() {
                    let mut bits = activity.awake[w];
                    while bits != 0 {
                        let u = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        scratch.transmit_probs[u] = self.processes[u].transmit_probability(round);
                    }
                }
            }

            // 2. Non-dormant processes pick their actions using their private
            //    coins, in ascending order, which lists the transmitters
            //    ascending. A deaf process gets no further call this round,
            //    so its hint is re-read right away.
            scratch.transmitters.clear();
            for w in 0..activity.awake.len() {
                let mut bits = activity.awake[w];
                while bits != 0 {
                    let u = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let action = self.processes[u].on_round(round, &mut self.node_rngs[u]);
                    if action.is_transmit() {
                        scratch.transmitters.push(NodeId::new(u));
                    }
                    scratch.actions[u] = action;
                    if activity.hint[u] == Activity::Deaf {
                        activity.set(u, self.processes[u].activity());
                    }
                }
            }

            // 3. The link process fixes the dynamic edges, seeing only what
            //    its class entitles it to (the recorder's history is complete
            //    here: adaptive classes auto-promote to full recording).
            //    Lazy iid coins skip `decide`: the round's coins are the next
            //    2·|grey| stream words, evaluated as reception reads them.
            let decision = if let Some(threshold) = lazy_threshold {
                let base = self.adversary_rng.get_word_pos();
                self.adversary_rng
                    .set_word_pos(base + 2 * grey.len() as u128);
                scratch.coins.start_round(grey.len(), threshold, base);
                // Never read: a lazy round records no history.
                LinkDecision::none()
            } else {
                let view = AdversaryView::new(
                    round,
                    n,
                    adaptive.then(|| recorder.history()),
                    adaptive.then_some(scratch.transmit_probs.as_slice()),
                    offline.then_some(scratch.actions.as_slice()),
                );
                let decision = link.decide(&view, &mut self.adversary_rng);
                // Resolve the decision (either form) into the round's active
                // grey mask; proposals naming no grey edge are rejected.
                metrics.rejected_link_edges += scratch.active.resolve(grey, &decision);
                decision
            };

            // 4. Reception under the collision rule: every transmitter pushes
            //    itself into the saturating per-node counts of its G row and
            //    its active grey row, marking every node it reaches.
            metrics.transmissions += scratch.transmitters.len();
            push_reliable(
                self.dual.g(),
                &scratch.transmitters,
                &mut scratch.heard,
                &mut scratch.senders,
                &mut scratch.touched,
            );
            if lazy_threshold.is_some() {
                let stream = &self.adversary_rng;
                push_grey(
                    grey,
                    &scratch.transmitters,
                    &mut scratch.heard,
                    &mut scratch.senders,
                    &mut scratch.touched,
                    |id| scratch.coins.contains(id, stream),
                );
            } else if scratch.active.len() > 0 {
                push_grey(
                    grey,
                    &scratch.transmitters,
                    &mut scratch.heard,
                    &mut scratch.senders,
                    &mut scratch.touched,
                    |id| scratch.active.contains(id),
                );
            }

            // 5. One ascending pass over the awake and the reached nodes
            //    counts deliveries and collisions, observes deliveries for
            //    the stop condition, and delivers the feedback each hint
            //    asks for. Every other node listened to silence.
            // Deliveries are materialized only under full recording; feedback
            // and stop evaluation never need the allocation.
            let mut deliveries: Vec<Delivery> = Vec::new(); // lint: allow(D3) -- Vec::new is allocation-free; pushes happen only under full recording
            let mut round_deliveries = 0usize;
            let mut round_collisions = 0usize;
            let activity = &mut scratch.activity;
            for w in 0..activity.hearing.len() {
                let mut bits = activity.hearing[w] | std::mem::take(&mut scratch.touched[w]);
                while bits != 0 {
                    let u = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let heard = std::mem::take(&mut scratch.heard[u]);
                    let hint = activity.hint[u];
                    let feedback = if scratch.actions[u].is_transmit() {
                        Feedback::Transmitted
                    } else {
                        match heard {
                            0 => Feedback::Silence,
                            1 => {
                                let receiver = NodeId::new(u);
                                let sender = NodeId::new(scratch.senders[u] as usize);
                                let message = scratch.actions[sender.index()]
                                    .message()
                                    // lint: allow(D4) -- senders are only recorded
                                    // from the transmitter list built above
                                    .expect("a recorded sender implies a message");
                                round_deliveries += 1;
                                self.tracker.observe_one(receiver, sender, message.kind());
                                if recorder.wants_history() {
                                    deliveries.push(Delivery {
                                        receiver,
                                        sender,
                                        message: message.clone(), // lint: allow(D3) -- full-recording path only
                                    });
                                }
                                if hint == Activity::Deaf {
                                    continue;
                                }
                                // lint: allow(D3) -- feedback owns its message; a
                                // broadcast message is a small copyable token
                                Feedback::Received(message.clone())
                            }
                            _ => {
                                round_collisions += 1;
                                if self.config.collision_detection() {
                                    Feedback::Collision
                                } else {
                                    Feedback::Silence
                                }
                            }
                        }
                    };
                    let deliver = match hint {
                        Activity::Awake => true,
                        Activity::Deaf => false,
                        Activity::Dormant => matches!(feedback, Feedback::Received(_)),
                    };
                    if deliver {
                        self.processes[u].on_feedback(round, &feedback, &mut self.node_rngs[u]);
                        activity.set(u, self.processes[u].activity());
                    }
                }
            }
            metrics.deliveries += round_deliveries;
            metrics.collisions += round_collisions;
            metrics.idle_listens +=
                n - scratch.transmitters.len() - round_deliveries - round_collisions;

            // 6. Record and evaluate the stop condition (already observed
            //    delivery by delivery, in ascending receiver order).
            recorder.push_collisions(round_collisions);
            if recorder.wants_history() {
                let mut active_dynamic_edges = Vec::new(); // lint: allow(D3) -- full-recording path only
                scratch
                    .active
                    .push_edges(grey, &decision, &mut active_dynamic_edges);
                recorder.push(RoundRecord {
                    round,
                    transmitters: scratch.transmitters.clone(), // lint: allow(D3) -- full-recording path only
                    active_dynamic_edges,
                    deliveries,
                });
            }
            metrics.rounds = rounds_executed;

            if self.tracker.is_done() {
                completion_round = Some(round);
                break;
            }
        }
        // lint: end-hot-path

        metrics.rounds = rounds_executed;
        let record_mode = recorder.mode();
        let (history, collisions_per_round) = recorder.finish();
        ExecutionOutcome {
            completed: completion_round.is_some(),
            rounds_executed,
            completion_round,
            history,
            metrics,
            record_mode,
            collisions_per_round,
        }
    }
}

impl std::fmt::Debug for TrialExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrialExecutor")
            .field("n", &self.dual.len())
            .field("config", &self.config)
            .field("reusable_link", &self.link_factory.is_some())
            .finish()
    }
}

/// Reusable per-round working memory: every buffer is cleared, never
/// reallocated, between rounds, so the steady-state round loop performs no
/// heap allocation beyond what the processes and the link process themselves
/// do (under [`RecordMode::Full`], the retained round records are
/// additionally built per round).
#[derive(Debug)]
struct RoundScratch {
    /// Per-node actions of the current round (`Listen` for dormant nodes).
    actions: Vec<Action>,
    /// Per-node transmit probabilities (0.0 for dormant nodes; refreshed
    /// for adaptive adversaries only).
    transmit_probs: Vec<f64>,
    /// Transmitting nodes, ascending.
    transmitters: Vec<NodeId>,
    /// The round's active grey edges.
    active: ActiveGrey,
    /// The round's grey coins, when they are evaluated on demand.
    coins: LazyCoins,
    /// Per-node count of transmitters heard this round, saturating (only
    /// 0 / 1 / ≥ 2 matter); zeroed as feedback is read off.
    heard: Vec<u8>,
    /// Per-node last transmitter heard — the unique sender wherever
    /// `heard` ends at 1.
    senders: Vec<u32>,
    /// Bit `u` set iff `heard[u]` was bumped this round; cleared as
    /// feedback is read off.
    touched: Vec<u64>,
    /// Every process's activity hint and the node sets it implies.
    activity: ActivitySet,
}

impl RoundScratch {
    fn new(n: usize) -> Self {
        RoundScratch {
            actions: Vec::with_capacity(n),
            transmit_probs: Vec::with_capacity(n),
            transmitters: Vec::with_capacity(n),
            active: ActiveGrey::new(),
            coins: LazyCoins::new(),
            heard: vec![0; n],
            senders: vec![0; n],
            touched: vec![0; n.div_ceil(64)],
            activity: ActivitySet::new(n),
        }
    }

    /// Restores the start-of-execution state (keeping capacity) so the
    /// scratch can serve a new execution; within an execution the round
    /// loop maintains it incrementally.
    fn reset(&mut self) {
        let n = self.heard.len();
        self.actions.clear();
        self.actions.resize(n, Action::Listen);
        self.transmit_probs.clear();
        self.transmit_probs.resize(n, 0.0);
        self.transmitters.clear();
        self.heard.fill(0);
        self.touched.fill(0);
    }
}

/// The executor's record of every process's [`Activity`] hint, as last read,
/// with the two node sets the round loop walks.
#[derive(Debug)]
struct ActivitySet {
    /// Per-node hint.
    hint: Vec<Activity>,
    /// Bit `u` set iff node `u` is not dormant: its `on_round` is called.
    awake: Vec<u64>,
    /// Bit `u` set iff node `u` is awake: every feedback is delivered.
    hearing: Vec<u64>,
    /// Nodes that fell dormant this round; their action and transmit
    /// probability are reset at the start of the next one.
    slept: Vec<u32>,
}

impl ActivitySet {
    fn new(n: usize) -> Self {
        ActivitySet {
            hint: Vec::with_capacity(n),
            awake: Vec::with_capacity(n.div_ceil(64)),
            hearing: Vec::with_capacity(n.div_ceil(64)),
            slept: Vec::with_capacity(n),
        }
    }

    /// Marks all `n` nodes awake (the state before any hint is read).
    fn reset(&mut self, n: usize) {
        self.hint.clear();
        self.hint.resize(n, Activity::Awake);
        self.awake.clear();
        self.awake.resize(n.div_ceil(64), u64::MAX);
        if let Some(last) = self.awake.last_mut() {
            *last >>= (64 - n % 64) % 64;
        }
        self.hearing.clone_from(&self.awake);
        self.slept.clear();
    }

    /// Records node `u`'s freshly read hint.
    // lint: hot-path
    #[inline]
    fn set(&mut self, u: usize, hint: Activity) {
        if self.hint[u] == hint {
            return;
        }
        self.hint[u] = hint;
        let (w, bit) = (u / 64, 1u64 << (u % 64));
        if hint == Activity::Dormant {
            self.awake[w] &= !bit;
            self.slept.push(u as u32);
        } else {
            self.awake[w] |= bit;
        }
        if hint == Activity::Awake {
            self.hearing[w] |= bit;
        } else {
            self.hearing[w] &= !bit;
        }
    }
    // lint: end-hot-path
}

/// Transmitter-push reception over `G`: every transmitter bumps the
/// saturating `heard` count of each neighbor in its `G` row, recording itself
/// as that neighbor's latest sender and setting the neighbor's `touched` bit.
/// A count that ends at 1 had exactly one bump, so its recorded sender is the
/// unique transmitter heard — whatever order the bumps came in.
// lint: hot-path
fn push_reliable(
    g: &Graph,
    transmitters: &[NodeId],
    heard: &mut [u8],
    senders: &mut [u32],
    touched: &mut [u64],
) {
    for &t in transmitters {
        for &v in g.neighbors(t) {
            let v = v.index();
            heard[v] = heard[v].saturating_add(1);
            senders[v] = t.index() as u32;
            touched[v / 64] |= 1 << (v % 64);
        }
    }
}

/// The same push across every grey edge of a transmitter's grey row for
/// which `active` holds.
fn push_grey(
    grey: &GreyTable,
    transmitters: &[NodeId],
    heard: &mut [u8],
    senders: &mut [u32],
    touched: &mut [u64],
    mut active: impl FnMut(u32) -> bool,
) {
    for &t in transmitters {
        let (neighbors, ids) = grey.row(t);
        for (&v, &id) in neighbors.iter().zip(ids) {
            let v = v.index();
            let on = active(id);
            heard[v] = heard[v].saturating_add(u8::from(on));
            touched[v / 64] |= u64::from(on) << (v % 64);
            if on {
                senders[v] = t.index() as u32;
            }
        }
    }
}
// lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::StaticLinks;
    use crate::message::{Message, MessageKind};
    use crate::process::Role;
    use crate::Simulator;
    use dradio_graphs::topology;
    use rand::RngCore;

    const DATA: MessageKind = MessageKind::new(1);

    /// Source transmits with probability 1/2; relays stay silent.
    struct CoinBeacon {
        msg: Option<Message>,
    }

    impl Process for CoinBeacon {
        fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
            match &self.msg {
                Some(m) if crate::sampling::bernoulli(rng, 0.5) => Action::Transmit(m.clone()),
                _ => Action::Listen,
            }
        }
        fn transmit_probability(&self, _round: Round) -> f64 {
            if self.msg.is_some() {
                0.5
            } else {
                0.0
            }
        }
    }

    fn coin_factory() -> ProcessFactory {
        Arc::new(|ctx: &ProcessContext| {
            let msg = (ctx.role == Role::Source).then(|| Message::plain(ctx.id, DATA, 7));
            Box::new(CoinBeacon { msg }) as Box<dyn Process>
        })
    }

    fn star_executor() -> TrialExecutor {
        let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
        TrialExecutor::new(
            topology::star(6).unwrap(),
            coin_factory(),
            Assignment::global(6, NodeId::new(0)),
            link,
            StopCondition::global_broadcast(DATA, NodeId::new(0)),
            SimConfig::default().with_max_rounds(50),
        )
        .expect("executor builds")
    }

    fn star_simulator(seed: u64, mode: RecordMode) -> ExecutionOutcome {
        Simulator::new(
            topology::star(6).unwrap(),
            coin_factory(),
            Assignment::global(6, NodeId::new(0)),
            Box::new(StaticLinks::none()),
            SimConfig::default()
                .with_max_rounds(50)
                .with_seed(seed)
                .with_record_mode(mode),
        )
        .unwrap()
        .run(StopCondition::global_broadcast(DATA, NodeId::new(0)))
    }

    #[test]
    fn reused_executor_matches_fresh_simulators() {
        let mut executor = star_executor();
        for seed in 0..20u64 {
            for mode in [RecordMode::Full, RecordMode::None] {
                let reused = executor.execute(seed, mode);
                let fresh = star_simulator(seed, mode);
                assert_eq!(reused, fresh, "seed {seed} mode {mode} diverged");
            }
        }
        // Seed order does not matter either: re-running an earlier seed
        // reproduces its outcome exactly.
        let replay = executor.execute(3, RecordMode::Full);
        assert_eq!(replay, star_simulator(3, RecordMode::Full));
    }

    #[test]
    fn executor_validates_like_the_simulator() {
        let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
        let err = TrialExecutor::new(
            topology::line(3).unwrap(),
            coin_factory(),
            Assignment::relays(2),
            link.clone(),
            StopCondition::max_rounds(),
            SimConfig::default(),
        )
        .expect_err("size mismatch must be rejected");
        assert!(matches!(err, SimError::AssignmentSizeMismatch { .. }));

        let err = TrialExecutor::new(
            topology::line(3).unwrap(),
            coin_factory(),
            Assignment::relays(3),
            link,
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(0),
        )
        .expect_err("zero horizon must be rejected");
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    #[should_panic(expected = "stop condition references node")]
    fn executor_rejects_out_of_range_stop_conditions() {
        let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
        let _ = TrialExecutor::new(
            topology::line(3).unwrap(),
            coin_factory(),
            Assignment::relays(3),
            link,
            StopCondition::global_broadcast(DATA, NodeId::new(9)),
            SimConfig::default(),
        );
    }

    /// A link process that refuses to reset, counting its constructions.
    struct NoReset {
        _probe: Arc<()>,
    }
    impl LinkProcess for NoReset {
        fn class(&self) -> AdversaryClass {
            AdversaryClass::Oblivious
        }
        fn decide(
            &mut self,
            _view: &AdversaryView<'_>,
            _rng: &mut dyn RngCore,
        ) -> crate::link::LinkDecision {
            crate::link::LinkDecision::none()
        }
    }

    #[test]
    fn non_resettable_links_are_rebuilt_from_the_factory() {
        let probe = Arc::new(());
        let handle = Arc::clone(&probe);
        let link: LinkFactory = Arc::new(move || {
            Box::new(NoReset {
                _probe: Arc::clone(&handle),
            })
        });
        let mut executor = TrialExecutor::new(
            topology::line(4).unwrap(),
            coin_factory(),
            Assignment::global(4, NodeId::new(0)),
            link,
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(5),
        )
        .unwrap();
        // strong count: probe + factory capture + 1 live link instance.
        assert_eq!(Arc::strong_count(&probe), 3);
        let _ = executor.execute(1, RecordMode::None);
        let _ = executor.execute(2, RecordMode::None);
        // Still exactly one live instance: each trial's rebuild replaced it.
        assert_eq!(Arc::strong_count(&probe), 3);
    }

    #[test]
    fn resettable_links_are_reused_not_rebuilt() {
        let builds = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&builds);
        let link: LinkFactory = Arc::new(move || {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Box::new(StaticLinks::all())
        });
        let mut executor = TrialExecutor::new(
            topology::dual_clique(6).unwrap(),
            coin_factory(),
            Assignment::global(6, NodeId::new(0)),
            link,
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(5),
        )
        .unwrap();
        for seed in 0..4 {
            let _ = executor.execute(seed, RecordMode::None);
        }
        assert_eq!(
            builds.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "a resettable link process is built exactly once"
        );
    }
}
