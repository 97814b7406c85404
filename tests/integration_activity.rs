//! Activity hints are pure accelerators: for every registered algorithm, a
//! [`TrialExecutor`] driving the processes with their
//! [`Process::activity`] hints produces byte-for-byte the same
//! [`ExecutionOutcome`] — history, metrics, completion — as one driving the
//! same processes with the hints hidden, where every process reports the
//! default [`Activity::Awake`] and receives every call. The cross covers
//! oblivious, online adaptive and offline adaptive adversaries, global and
//! local problems, both record modes, and the dense and CSR graph backends.
//! A process whose hint lies is caught.

use std::sync::Arc;

use dradio::prelude::*;
use dradio::sim::BatchProfile;
use rand::RngCore;

const TRIALS: usize = 3;

/// Forwards every [`Process`] method except `activity`, which stays at the
/// default `Awake`: the executor then makes every call, as it did before
/// hints existed.
struct HideActivity(Box<dyn Process>);

impl Process for HideActivity {
    fn on_start(&mut self, rng: &mut dyn RngCore) {
        self.0.on_start(rng);
    }
    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        self.0.on_round(round, rng)
    }
    fn on_feedback(&mut self, round: Round, feedback: &Feedback, rng: &mut dyn RngCore) {
        self.0.on_feedback(round, feedback, rng);
    }
    fn transmit_probability(&self, round: Round) -> f64 {
        self.0.transmit_probability(round)
    }
    fn is_informed(&self) -> bool {
        self.0.is_informed()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn batch_profile(&self) -> BatchProfile {
        self.0.batch_profile()
    }
}

fn hide_activity(factory: ProcessFactory) -> ProcessFactory {
    Arc::new(move |ctx: &ProcessContext| Box::new(HideActivity(factory(ctx))) as Box<dyn Process>)
}

/// One scenario driving `factory`'s processes with their hints and one
/// driving them with the hints hidden; nothing else differs.
fn hinted_and_hidden(
    topology: &TopologySpec,
    backend: BackendChoice,
    factory: ProcessFactory,
    adversary: &AdversarySpec,
    problem: &ProblemSpec,
) -> (Scenario, Scenario) {
    let build = |name: &str, factory: ProcessFactory| {
        Scenario::on(topology.clone())
            .custom_algorithm(name, factory)
            .adversary(adversary.clone())
            .problem(problem.clone())
            .backend(backend)
            .seed(31)
            .max_rounds(600)
            .build()
            .unwrap_or_else(|e| panic!("{topology:?} × {adversary:?} × {problem:?}: {e}"))
    };
    (
        build("hinted", Arc::clone(&factory)),
        build("hidden", hide_activity(factory)),
    )
}

/// `algorithm`'s registered factory for `topology`.
fn registered(
    algorithm: &AlgorithmSpec,
    topology: &TopologySpec,
    backend: BackendChoice,
) -> ProcessFactory {
    let network = topology
        .build_with_backend(backend)
        .expect("the topology builds");
    algorithm
        .factory(network.len(), network.max_degree())
        .expect("registered algorithms have factories")
}

/// The first trial, record mode and field where the two executors disagree.
fn divergence(hinted: &Scenario, hidden: &Scenario) -> Option<String> {
    let runner = hinted.runner();
    let mut with_hints = hinted.executor();
    let mut without = hidden.executor();
    for mode in [RecordMode::Full, RecordMode::None] {
        for trial in 0..TRIALS {
            let seed = runner.trial_seed(trial);
            let a = with_hints.execute(seed, mode);
            let b = without.execute(seed, mode);
            if a.metrics != b.metrics {
                return Some(format!(
                    "trial {trial} {mode}: metrics {} vs {}",
                    a.metrics, b.metrics
                ));
            }
            if a != b {
                return Some(format!(
                    "trial {trial} {mode}: outcomes differ (history or completion)"
                ));
            }
        }
    }
    None
}

fn adversaries() -> Vec<AdversarySpec> {
    vec![
        AdversarySpec::StaticNone,
        AdversarySpec::Iid { p: 0.5 },
        AdversarySpec::GilbertElliott {
            p_fail: 0.2,
            p_recover: 0.3,
        },
        AdversarySpec::DenseSparse {
            density_factor: None,
        },
        AdversarySpec::Omniscient,
    ]
}

fn assert_hints_are_invisible(
    topology: TopologySpec,
    algorithm: AlgorithmSpec,
    adversary: AdversarySpec,
    problem: ProblemSpec,
) {
    for backend in [BackendChoice::Dense, BackendChoice::Csr] {
        let (hinted, hidden) = hinted_and_hidden(
            &topology,
            backend,
            registered(&algorithm, &topology, backend),
            &adversary,
            &problem,
        );
        if let Some(why) = divergence(&hinted, &hidden) {
            panic!(
                "{} × {} × {} on {topology:?} ({backend:?}): hints changed the execution: {why}",
                algorithm.name(),
                adversary.label(),
                problem.label()
            );
        }
    }
}

#[test]
fn global_algorithms_execute_identically_with_and_without_hints() {
    for algorithm in GlobalAlgorithm::all() {
        for adversary in adversaries() {
            assert_hints_are_invisible(
                TopologySpec::DualClique { n: 16 },
                algorithm.into(),
                adversary,
                ProblemSpec::GlobalFrom(0),
            );
        }
        assert_hints_are_invisible(
            TopologySpec::Grid { cols: 5, rows: 4 },
            algorithm.into(),
            AdversarySpec::StaticNone,
            ProblemSpec::GlobalFrom(7),
        );
    }
}

#[test]
fn local_algorithms_execute_identically_with_and_without_hints() {
    for algorithm in LocalAlgorithm::all() {
        for adversary in adversaries() {
            assert_hints_are_invisible(
                TopologySpec::DualClique { n: 16 },
                algorithm.into(),
                adversary.clone(),
                ProblemSpec::Local {
                    broadcasters: vec![0, 3, 9],
                },
            );
            assert_hints_are_invisible(
                TopologySpec::RandomGeometric {
                    n: 24,
                    side: 2.0,
                    r: 1.5,
                    seed: 11,
                },
                algorithm.into(),
                adversary,
                ProblemSpec::LocalRandom { count: 4, seed: 5 },
            );
        }
        assert_hints_are_invisible(
            TopologySpec::Bracelet { k: 3 },
            algorithm.into(),
            AdversarySpec::BraceletAttack,
            ProblemSpec::LocalHeadsA,
        );
    }
}

/// BGI with a false hint: it keeps BGI's `Dormant` claim while uninformed
/// but draws a coin in every uninformed round, so skipping its `on_round`
/// shifts the coin stream it transmits with once informed.
struct Liar(Box<dyn Process>);

impl Process for Liar {
    fn on_start(&mut self, rng: &mut dyn RngCore) {
        self.0.on_start(rng);
    }
    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        if !self.0.is_informed() {
            rng.next_u64();
        }
        self.0.on_round(round, rng)
    }
    fn on_feedback(&mut self, round: Round, feedback: &Feedback, rng: &mut dyn RngCore) {
        self.0.on_feedback(round, feedback, rng);
    }
    fn transmit_probability(&self, round: Round) -> f64 {
        self.0.transmit_probability(round)
    }
    fn is_informed(&self) -> bool {
        self.0.is_informed()
    }
    fn activity(&self) -> Activity {
        self.0.activity()
    }
}

#[test]
fn a_lying_hint_is_detected() {
    let topology = TopologySpec::DualClique { n: 16 };
    let bgi = registered(
        &GlobalAlgorithm::Bgi.into(),
        &topology,
        BackendChoice::Dense,
    );
    let liar: ProcessFactory =
        Arc::new(move |ctx: &ProcessContext| Box::new(Liar(bgi(ctx))) as Box<dyn Process>);
    let (lying, hidden) = hinted_and_hidden(
        &topology,
        BackendChoice::Dense,
        liar,
        &AdversarySpec::StaticNone,
        &ProblemSpec::GlobalFrom(0),
    );
    assert!(
        divergence(&lying, &hidden).is_some(),
        "a process that reports Dormant but draws coins must change the execution"
    );
}
