//! Lazy iid coins are a pure accelerator: for every registered algorithm, a
//! [`TrialExecutor`] whose iid link process declares
//! [`LinkProcess::iid_coins`] — and so evaluates only the coins reception
//! reads, straight from the adversary stream — produces byte-for-byte the
//! same [`ExecutionOutcome`] as one whose link process hides the hint and
//! decides every coin of every round. The cross covers global and local
//! problems, `p` at and strictly between the extremes, grey counts that end
//! in a partial mask word, coins starting at an even and at an odd stream
//! word, both record modes and the dense and CSR backends. A link process
//! whose hint lies is caught.

use dradio::prelude::*;
use dradio::sim::{AdversarySetup, AdversaryView, LinkDecision};
use rand::RngCore;

const TRIALS: usize = 2;
const PROBABILITIES: [f64; 5] = [0.0, 0.1, 0.5, 0.9, 1.0];

/// Forwards every [`LinkProcess`] method except `iid_coins`, which stays at
/// the default `None`: the executor then calls `decide` every round.
struct HideCoins(Box<dyn LinkProcess>);

impl LinkProcess for HideCoins {
    fn class(&self) -> AdversaryClass {
        self.0.class()
    }
    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        self.0.on_start(setup, rng);
    }
    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        self.0.decide(view, rng)
    }
    fn reset(&mut self) -> bool {
        self.0.reset()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// An iid link process that draws one `next_u32` in `on_start`, so every
/// round's coins start at an odd stream word and some straddle a keystream
/// block boundary. Its decisions are still one coin per grey id, so it keeps
/// the hint.
struct OddStart(IidLinks);

impl LinkProcess for OddStart {
    fn class(&self) -> AdversaryClass {
        self.0.class()
    }
    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        rng.next_u32();
        self.0.on_start(setup, rng);
    }
    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        self.0.decide(view, rng)
    }
    fn iid_coins(&self) -> Option<f64> {
        self.0.iid_coins()
    }
    fn reset(&mut self) -> bool {
        self.0.reset()
    }
    fn name(&self) -> &'static str {
        "odd-start-iid"
    }
}

type LinkRecipe = fn(f64) -> Box<dyn LinkProcess>;

fn iid(p: f64) -> Box<dyn LinkProcess> {
    Box::new(IidLinks::new(p))
}

fn odd_start(p: f64) -> Box<dyn LinkProcess> {
    Box::new(OddStart(IidLinks::new(p)))
}

/// One scenario driving `link(p)` with its hint and one driving it with the
/// hint hidden; nothing else differs.
fn hinted_and_hidden(
    topology: &TopologySpec,
    backend: BackendChoice,
    algorithm: &AlgorithmSpec,
    problem: &ProblemSpec,
    link: LinkRecipe,
    p: f64,
) -> (Scenario, Scenario) {
    let build = |name: &str, hide: bool| {
        Scenario::on(topology.clone())
            .algorithm(algorithm.clone())
            .custom_adversary(name, move || {
                if hide {
                    Box::new(HideCoins(link(p)))
                } else {
                    link(p)
                }
            })
            .problem(problem.clone())
            .backend(backend)
            .seed(47)
            .max_rounds(300)
            .build()
            .unwrap_or_else(|e| panic!("{topology:?} × {problem:?}: {e}"))
    };
    (build("hinted", false), build("hidden", true))
}

/// The first trial, record mode and field where the two executors disagree.
fn divergence(hinted: &Scenario, hidden: &Scenario) -> Option<String> {
    let runner = hinted.runner();
    let mut lazy = hinted.executor();
    let mut eager = hidden.executor();
    for mode in [RecordMode::None, RecordMode::Full] {
        for trial in 0..TRIALS {
            let seed = runner.trial_seed(trial);
            let a = lazy.execute(seed, mode);
            let b = eager.execute(seed, mode);
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

/// The cross's networks, each with a grey count that is not a multiple of
/// 64 (so the last mask word is partial): 63, 1224 and the random geometric
/// network's own count.
fn networks() -> Vec<(TopologySpec, ProblemSpec, ProblemSpec)> {
    let networks = vec![
        (
            TopologySpec::DualClique { n: 16 },
            ProblemSpec::GlobalFrom(0),
            ProblemSpec::Local {
                broadcasters: vec![0, 3, 9],
            },
        ),
        (
            TopologySpec::DualClique { n: 70 },
            ProblemSpec::GlobalFrom(40),
            ProblemSpec::Local {
                broadcasters: vec![1, 34, 35, 60],
            },
        ),
        (
            TopologySpec::RandomGeometric {
                n: 24,
                side: 2.0,
                r: 1.5,
                seed: 11,
            },
            ProblemSpec::GlobalFrom(0),
            ProblemSpec::LocalRandom { count: 4, seed: 5 },
        ),
    ];
    for (topology, _, _) in &networks {
        let grey = topology
            .build_with_backend(BackendChoice::Dense)
            .expect("the topology builds")
            .dual
            .grey_table()
            .len();
        assert!(
            grey > 0 && !grey.is_multiple_of(64),
            "{topology:?} has {grey} grey edges"
        );
    }
    networks
}

fn assert_lazy_coins_are_invisible(algorithm: AlgorithmSpec, local: bool) {
    for (topology, global_problem, local_problem) in networks() {
        let problem = if local { local_problem } else { global_problem };
        for link in [iid as LinkRecipe, odd_start] {
            for p in PROBABILITIES {
                for backend in [BackendChoice::Dense, BackendChoice::Csr] {
                    let (hinted, hidden) =
                        hinted_and_hidden(&topology, backend, &algorithm, &problem, link, p);
                    if let Some(why) = divergence(&hinted, &hidden) {
                        panic!(
                            "{} × {}(p = {p}) × {} on {topology:?} ({backend:?}): lazy coins \
                             changed the execution: {why}",
                            algorithm.name(),
                            link(p).name(),
                            problem.label()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn global_algorithms_execute_identically_with_lazy_and_eager_coins() {
    for algorithm in GlobalAlgorithm::all() {
        assert_lazy_coins_are_invisible(algorithm.into(), false);
    }
}

#[test]
fn local_algorithms_execute_identically_with_lazy_and_eager_coins() {
    for algorithm in LocalAlgorithm::all() {
        assert_lazy_coins_are_invisible(algorithm.into(), true);
    }
}

/// Declares iid coins at a probability other than the one it decides with,
/// so the executor's on-demand coins differ from its decisions.
struct Liar(IidLinks);

impl LinkProcess for Liar {
    fn class(&self) -> AdversaryClass {
        self.0.class()
    }
    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        self.0.on_start(setup, rng);
    }
    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        self.0.decide(view, rng)
    }
    fn iid_coins(&self) -> Option<f64> {
        Some(0.05)
    }
}

#[test]
fn a_lying_hint_is_detected() {
    let topology = TopologySpec::DualClique { n: 16 };
    let build = |name: &str, hide: bool| {
        Scenario::on(topology.clone())
            .algorithm(GlobalAlgorithm::Bgi)
            .custom_adversary(name, move || {
                let liar = Box::new(Liar(IidLinks::new(0.9)));
                if hide {
                    Box::new(HideCoins(liar)) as Box<dyn LinkProcess>
                } else {
                    liar
                }
            })
            .problem(ProblemSpec::GlobalFrom(0))
            .seed(47)
            .max_rounds(300)
            .build()
            .expect("the scenario builds")
    };
    assert!(
        divergence(&build("lying", false), &build("hidden", true)).is_some(),
        "a link process whose declared coins differ from its decisions must change the execution"
    );
}
