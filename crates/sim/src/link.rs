//! Link processes (adversaries) controlling the dynamic edges.

use std::fmt;
use std::sync::Arc;

use dradio_graphs::{DualGraph, Edge};
use rand::RngCore;

use crate::action::Action;
use crate::history::History;
use crate::process::{Assignment, ProcessFactory};
use crate::round::Round;

/// The three classic adversary capability classes of randomized analysis,
/// in increasing order of power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdversaryClass {
    /// Must fix all link behaviour before the execution begins; sees only the
    /// network, the algorithm, and the round number.
    Oblivious,
    /// Sees the execution history through the previous round (and the
    /// algorithm's expected behaviour), but not the current round's coins.
    OnlineAdaptive,
    /// Additionally sees the current round's actions before fixing the links.
    OfflineAdaptive,
}

impl fmt::Display for AdversaryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryClass::Oblivious => write!(f, "oblivious"),
            AdversaryClass::OnlineAdaptive => write!(f, "online-adaptive"),
            AdversaryClass::OfflineAdaptive => write!(f, "offline-adaptive"),
        }
    }
}

/// The set of dynamic (`E' \ E`) edges a link process activates for one
/// round.
///
/// A decision names edges in one of two forms, and the engine honours both:
///
/// * an **edge list** ([`LinkDecision::from_edges`]) — the engine filters out
///   any proposed edge that is not actually a dynamic edge of the network
///   (reliable edges are always present and cannot be removed; edges outside
///   `G'` cannot be added), counting such proposals in the metrics so buggy
///   adversaries are visible, and drops repeats;
/// * a **grey-id bitmask** ([`LinkDecision::from_grey_mask`]) over the ids of
///   the network's [`GreyTable`](dradio_graphs::GreyTable) — bit `i` (word
///   `i / 64`, bit `i % 64`) activates grey edge `i`. Set bits at or past the
///   grey count are counted as rejected proposals. Oblivious processes that
///   decide edge by edge in canonical order produce this form without
///   materializing edges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkDecision {
    edges: Vec<Edge>,
    grey_mask: Vec<u64>,
}

impl LinkDecision {
    /// Activate no dynamic edges: the round topology is exactly `G`.
    pub fn none() -> Self {
        LinkDecision::default()
    }

    /// Activate every dynamic edge of `dual`: the round topology is `G'`.
    pub fn all_dynamic(dual: &DualGraph) -> Self {
        LinkDecision::all_grey(dual.grey_table().len())
    }

    /// Activate grey ids `0..count` — every dynamic edge of a network with
    /// `count` grey edges.
    pub fn all_grey(count: usize) -> Self {
        let mut mask = vec![u64::MAX; count / 64];
        if !count.is_multiple_of(64) {
            mask.push((1u64 << (count % 64)) - 1);
        }
        LinkDecision::from_grey_mask(mask)
    }

    /// Activate exactly the given edges.
    pub fn from_edges(edges: Vec<Edge>) -> Self {
        LinkDecision {
            edges,
            grey_mask: Vec::new(),
        }
    }

    /// Activate the grey edges whose ids are set in `mask`.
    pub fn from_grey_mask(mask: Vec<u64>) -> Self {
        LinkDecision {
            edges: Vec::new(),
            grey_mask: mask,
        }
    }

    /// The edges proposed as an explicit list (empty for a bitmask
    /// decision).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The grey ids proposed as a bitmask (empty for an edge-list decision).
    pub fn grey_mask(&self) -> &[u64] {
        &self.grey_mask
    }

    /// Number of proposed edges: list entries plus set mask bits (before
    /// the engine's filtering).
    pub fn len(&self) -> usize {
        self.edges.len()
            + self
                .grey_mask
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Returns `true` if no dynamic edge is proposed.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.grey_mask.iter().all(|&w| w == 0)
    }
}

/// Everything a link process may inspect before the execution begins: the
/// topology, the algorithm (process factory), the problem roles, the horizon,
/// and the simulation's collision-detection setting.
///
/// All three adversary classes receive this setup — "the network topology and
/// algorithm description" are known even to the oblivious adversary.
pub struct AdversarySetup<'a> {
    /// The dual graph being simulated, behind the engine's shared handle:
    /// adversaries that keep the network around across rounds should store
    /// `setup.dual.clone()` (an [`Arc`] bump), never a deep graph copy.
    pub dual: &'a Arc<DualGraph>,
    /// The algorithm under attack (so the adversary can pre-simulate it).
    pub factory: &'a ProcessFactory,
    /// The problem-level role assignment.
    pub assignment: &'a Assignment,
    /// Maximum number of rounds the execution may last.
    pub horizon: usize,
}

/// The per-round information a link process is entitled to see, scoped by its
/// [`AdversaryClass`].
///
/// The engine constructs the view: oblivious adversaries get only the round
/// number, online adaptive adversaries additionally get the [`History`]
/// through the previous round and the per-node transmit probabilities implied
/// by the algorithm's current state, and offline adaptive adversaries also
/// get the actual actions of the current round.
#[derive(Debug)]
pub struct AdversaryView<'a> {
    round: Round,
    n: usize,
    history: Option<&'a History>,
    transmit_probabilities: Option<&'a [f64]>,
    actions: Option<&'a [Action]>,
}

impl<'a> AdversaryView<'a> {
    /// Creates a view; intended for the engine and for adversary unit tests.
    pub fn new(
        round: Round,
        n: usize,
        history: Option<&'a History>,
        transmit_probabilities: Option<&'a [f64]>,
        actions: Option<&'a [Action]>,
    ) -> Self {
        AdversaryView {
            round,
            n,
            history,
            transmit_probabilities,
            actions,
        }
    }

    /// The round being decided.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Execution history through the previous round (adaptive classes only).
    pub fn history(&self) -> Option<&History> {
        self.history
    }

    /// Per-node probabilities of transmitting this round given the processes'
    /// current state (adaptive classes only).
    pub fn transmit_probabilities(&self) -> Option<&[f64]> {
        self.transmit_probabilities
    }

    /// The actual actions of this round (offline adaptive only).
    pub fn actions(&self) -> Option<&[Action]> {
        self.actions
    }

    /// Expected number of transmitters this round, `E[|X| | S]` in the
    /// notation of Theorem 3.1 (adaptive classes only).
    pub fn expected_transmitters(&self) -> Option<f64> {
        self.transmit_probabilities.map(|p| p.iter().sum())
    }
}

/// A link process: the adversary deciding, round by round, which dynamic
/// edges are present.
pub trait LinkProcess: Send {
    /// The capability class this adversary declares. The engine uses it to
    /// scope the [`AdversaryView`]; declaring a weaker class never grants
    /// more information.
    fn class(&self) -> AdversaryClass;

    /// Called once before round 0 with everything the adversary may
    /// pre-compute from.
    fn on_start(&mut self, _setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {}

    /// Chooses the dynamic edges for the round described by `view`.
    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision;

    /// Declares the process an independent coin per grey edge, or `None`
    /// (the default) to promise nothing.
    ///
    /// `Some(p)` promises that every [`decide`](LinkProcess::decide) call
    /// returns exactly the grey-id mask whose bit `i` is
    /// [`bernoulli(rng, p)`](crate::sampling::bernoulli) of the `i`-th draw
    /// — one `next_u64` per grey id in id order when `0 < p < 1` — draws
    /// nothing else from `rng`, and has no other side effect. The executor
    /// reads the hint once per execution, after
    /// [`on_start`](LinkProcess::on_start).
    ///
    /// For an oblivious process declaring `Some(p)` with `0 < p < 1`,
    /// [`TrialExecutor`](crate::TrialExecutor) does not call `decide` in a
    /// round that records no history: it notes the adversary stream's word
    /// position, seeks the stream past the round's `2 · |grey|` words, and
    /// evaluates a coin from its two words only when reception reads that
    /// grey edge. Outcomes are identical either way; a round recorded under
    /// [`RecordMode::Full`](crate::RecordMode::Full), and every executor
    /// other than `TrialExecutor`, calls `decide` as usual.
    fn iid_coins(&self) -> Option<f64> {
        None
    }

    /// Restores the process to its just-constructed state so the same boxed
    /// value can serve another independent execution, returning `true` on
    /// success.
    ///
    /// [`TrialExecutor`](crate::TrialExecutor) calls this between trials; on
    /// `false` (the default) it rebuilds the process from its
    /// [`LinkFactory`](crate::LinkFactory) recipe instead — always correct,
    /// just one boxing per trial slower. The engine invokes
    /// [`LinkProcess::on_start`] at the beginning of *every* execution, so
    /// state that is unconditionally (re)initialized there needs no handling
    /// here; only return `true` if everything else is back to its
    /// post-construction value.
    fn reset(&mut self) -> bool {
        false
    }

    /// Short adversary name for traces and tables.
    fn name(&self) -> &'static str {
        "link-process"
    }
}

/// Built-in oblivious link process with fixed behaviour: activate either none
/// or all of the dynamic edges in every round.
///
/// `StaticLinks::none()` turns the dual graph model into the static protocol
/// model over `G`; `StaticLinks::all()` turns it into the protocol model over
/// `G'`. Both are useful baselines and test fixtures.
#[derive(Debug, Clone)]
pub struct StaticLinks {
    include_all: bool,
    cached: LinkDecision,
}

impl StaticLinks {
    /// Never activate dynamic edges (communication happens over `G` only).
    pub fn none() -> Self {
        StaticLinks {
            include_all: false,
            cached: LinkDecision::none(),
        }
    }

    /// Activate every dynamic edge every round (communication over `G'`).
    pub fn all() -> Self {
        StaticLinks {
            include_all: true,
            cached: LinkDecision::none(),
        }
    }
}

impl LinkProcess for StaticLinks {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::Oblivious
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
        if self.include_all {
            self.cached = LinkDecision::all_dynamic(setup.dual);
        }
    }

    fn decide(&mut self, _view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
        self.cached.clone()
    }

    fn reset(&mut self) -> bool {
        // `cached` is rewritten by `on_start` whenever it is read.
        true
    }

    fn name(&self) -> &'static str {
        if self.include_all {
            "static-all"
        } else {
            "static-none"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_graphs::topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    use crate::process::ProcessContext;

    struct Dummy;
    impl crate::process::Process for Dummy {
        fn on_round(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Action {
            Action::Listen
        }
    }

    fn dummy_factory() -> ProcessFactory {
        Arc::new(|_ctx: &ProcessContext| Box::new(Dummy) as Box<dyn crate::process::Process>)
    }

    #[test]
    fn adversary_class_ordering_reflects_power() {
        assert!(AdversaryClass::Oblivious < AdversaryClass::OnlineAdaptive);
        assert!(AdversaryClass::OnlineAdaptive < AdversaryClass::OfflineAdaptive);
        assert_eq!(AdversaryClass::Oblivious.to_string(), "oblivious");
    }

    #[test]
    fn link_decision_constructors() {
        let dual = topology::dual_clique(8).unwrap();
        assert!(LinkDecision::none().is_empty());
        let all = LinkDecision::all_dynamic(&dual);
        assert_eq!(all.len(), dual.dynamic_edges().len());
        assert!(!all.is_empty());
    }

    #[test]
    fn view_exposes_only_what_it_is_given() {
        let view = AdversaryView::new(Round::new(3), 10, None, None, None);
        assert_eq!(view.round(), Round::new(3));
        assert_eq!(view.n(), 10);
        assert!(view.history().is_none());
        assert!(view.transmit_probabilities().is_none());
        assert!(view.actions().is_none());
        assert!(view.expected_transmitters().is_none());
    }

    #[test]
    fn expected_transmitters_sums_probabilities() {
        let probs = vec![0.5, 0.25, 0.0];
        let view = AdversaryView::new(Round::ZERO, 3, None, Some(&probs), None);
        assert!((view.expected_transmitters().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn static_links_decisions() {
        let dual = Arc::new(topology::dual_clique(8).unwrap());
        let factory = dummy_factory();
        let assignment = Assignment::relays(8);
        let setup = AdversarySetup {
            dual: &dual,
            factory: &factory,
            assignment: &assignment,
            horizon: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);

        let mut none = StaticLinks::none();
        none.on_start(&setup, &mut rng);
        let view = AdversaryView::new(Round::ZERO, 8, None, None, None);
        assert!(none.decide(&view, &mut rng).is_empty());
        assert_eq!(none.name(), "static-none");

        let mut all = StaticLinks::all();
        all.on_start(&setup, &mut rng);
        assert_eq!(
            all.decide(&view, &mut rng).len(),
            dual.dynamic_edges().len()
        );
        assert_eq!(all.name(), "static-all");
        assert_eq!(all.class(), AdversaryClass::Oblivious);
    }
}
