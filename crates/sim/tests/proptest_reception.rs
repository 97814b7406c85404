//! Reference test for reception: on random dual graphs, both graph backends,
//! scripted transmitter sets and scripted link decisions of both forms, the
//! engine's feedback, metrics and full history must equal a brute-force
//! count over `G ∪ active grey edges`.

use std::sync::{Arc, Mutex};

use dradio_graphs::{DualGraph, Edge, GraphBackend, GraphBuilder, NodeId};
use dradio_sim::{
    Action, AdversaryClass, AdversaryView, Assignment, Feedback, LinkDecision, LinkProcess,
    Message, MessageKind, Metrics, Process, ProcessContext, ProcessFactory, RecordMode, Round,
    SimConfig, Simulator, StopCondition,
};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DATA: MessageKind = MessageKind::new(1);

/// Feedback each node received, per round (`log[round][node]`).
type FeedbackLog = Arc<Mutex<Vec<Vec<Feedback>>>>;

/// Transmits exactly in the rounds its schedule says and logs its feedback.
struct Scripted {
    id: usize,
    transmit: Arc<Vec<Vec<bool>>>,
    log: FeedbackLog,
}

impl Process for Scripted {
    fn on_round(&mut self, round: Round, _rng: &mut dyn RngCore) -> Action {
        if self.transmit[round.index()][self.id] {
            Action::Transmit(message(self.id))
        } else {
            Action::Listen
        }
    }
    fn on_feedback(&mut self, round: Round, feedback: &Feedback, _rng: &mut dyn RngCore) {
        self.log.lock().unwrap()[round.index()][self.id] = feedback.clone();
    }
}

/// Node `u`'s message: the payload names the sender.
fn message(u: usize) -> Message {
    Message::plain(NodeId::new(u), DATA, u as u64)
}

/// Replays a fixed decision per round.
struct ScriptedLinks(Arc<Vec<LinkDecision>>);

impl LinkProcess for ScriptedLinks {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::Oblivious
    }
    fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
        self.0[view.round().index()].clone()
    }
}

/// A random dual graph: each pair is in `G'` with probability `p_prime`,
/// and a `G'` edge is reliable with probability `p_reliable`.
fn random_dual(rng: &mut ChaCha8Rng, n: usize, p_prime: f64, p_reliable: f64) -> DualGraph {
    let mut reliable = Vec::new();
    let mut all = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p_prime) {
                all.push((u, v));
                if rng.gen_bool(p_reliable) {
                    reliable.push((u, v));
                }
            }
        }
    }
    let g = GraphBuilder::new(n).edges(reliable).build().unwrap();
    let g_prime = GraphBuilder::new(n).edges(all).build().unwrap();
    DualGraph::new(g, g_prime).unwrap()
}

/// A random transmitter set; every fourth round is empty and every fourth
/// (offset by two) has every node transmitting.
fn random_transmitters(rng: &mut ChaCha8Rng, n: usize, round: usize) -> Vec<bool> {
    match round % 4 {
        0 => vec![false; n],
        2 => vec![true; n],
        _ => {
            let p = rng.gen_range(0.0..1.0);
            (0..n).map(|_| rng.gen_bool(p)).collect()
        }
    }
}

/// A random decision, alternating forms: edge lists mixing grey, reliable
/// and non-`G'` pairs with repeats, or masks with bits past the grey count.
fn random_decision(rng: &mut ChaCha8Rng, dual: &DualGraph, round: usize) -> LinkDecision {
    let n = dual.len();
    let grey = dual.grey_table().edges();
    if round.is_multiple_of(2) {
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..3 * n) {
            if !grey.is_empty() && rng.gen_bool(0.5) {
                edges.push(grey[rng.gen_range(0..grey.len())]);
            } else {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    edges.push(Edge::new(NodeId::new(u), NodeId::new(v)));
                }
            }
            if !edges.is_empty() && rng.gen_bool(0.2) {
                let repeat = edges[rng.gen_range(0..edges.len())];
                edges.push(repeat);
            }
        }
        LinkDecision::from_edges(edges)
    } else {
        let words = grey.len().div_ceil(64) + rng.gen_range(0..2usize);
        let density = rng.gen_range(0.0..1.0);
        let mask = (0..words)
            .map(|_| (0..64).fold(0u64, |w, i| w | u64::from(rng.gen_bool(density)) << i))
            .collect();
        LinkDecision::from_grey_mask(mask)
    }
}

/// What the engine must produce for one round, by brute force.
struct Expected {
    feedback: Vec<Feedback>,
    active: Vec<Edge>,
}

fn reference_round(
    dual: &DualGraph,
    transmit: &[bool],
    decision: &LinkDecision,
    collision_detection: bool,
    metrics: &mut Metrics,
) -> Expected {
    let n = dual.len();
    let grey = dual.dynamic_edges();
    let is_grey = |e: &Edge| {
        let (u, v) = e.endpoints();
        dual.g_prime().has_edge(u, v) && !dual.g().has_edge(u, v)
    };
    // History order: mask ids ascending, or listed edges first-occurrence.
    let mut active: Vec<Edge> = Vec::new();
    for (w, &bits) in decision.grey_mask().iter().enumerate() {
        for i in 0..64 {
            if bits >> i & 1 == 1 {
                match grey.get(w * 64 + i) {
                    Some(&e) => active.push(e),
                    None => metrics.rejected_link_edges += 1,
                }
            }
        }
    }
    for e in decision.edges() {
        if !is_grey(e) {
            metrics.rejected_link_edges += 1;
        } else if !active.contains(e) {
            active.push(*e);
        }
    }
    let mut feedback = Vec::with_capacity(n);
    for u in 0..n {
        if transmit[u] {
            metrics.transmissions += 1;
            feedback.push(Feedback::Transmitted);
            continue;
        }
        let heard: Vec<usize> = (0..n)
            .filter(|&t| transmit[t] && t != u)
            .filter(|&t| {
                let (a, b) = (NodeId::new(u), NodeId::new(t));
                dual.g().has_edge(a, b) || active.contains(&Edge::new(a, b))
            })
            .collect();
        feedback.push(match heard.len() {
            0 => {
                metrics.idle_listens += 1;
                Feedback::Silence
            }
            1 => {
                metrics.deliveries += 1;
                Feedback::Received(message(heard[0]))
            }
            _ => {
                metrics.collisions += 1;
                if collision_detection {
                    Feedback::Collision
                } else {
                    Feedback::Silence
                }
            }
        });
    }
    metrics.rounds += 1;
    Expected { feedback, active }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn push_reception_matches_brute_force(
        seed in 0u64..1_000_000,
        n in 2usize..40,
        p_prime in 0.05f64..1.0,
        p_reliable in 0.0f64..1.0,
        collision_detection in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = random_dual(&mut rng, n, p_prime, p_reliable);
        let rounds = 12;
        let transmit: Arc<Vec<Vec<bool>>> =
            Arc::new((0..rounds).map(|r| random_transmitters(&mut rng, n, r)).collect());
        let decisions: Arc<Vec<LinkDecision>> =
            Arc::new((0..rounds).map(|r| random_decision(&mut rng, &base, r)).collect());

        let mut expected_metrics = Metrics::default();
        let expected: Vec<Expected> = (0..rounds)
            .map(|r| {
                reference_round(
                    &base,
                    &transmit[r],
                    &decisions[r],
                    collision_detection,
                    &mut expected_metrics,
                )
            })
            .collect();

        for backend in [GraphBackend::Dense, GraphBackend::Csr] {
            let dual = base.with_graph_backend(backend);
            let log: FeedbackLog = Arc::new(Mutex::new(vec![vec![Feedback::Silence; n]; rounds]));
            let factory: ProcessFactory = {
                let (transmit, log) = (Arc::clone(&transmit), Arc::clone(&log));
                Arc::new(move |ctx: &ProcessContext| {
                    Box::new(Scripted {
                        id: ctx.id.index(),
                        transmit: Arc::clone(&transmit),
                        log: Arc::clone(&log),
                    }) as Box<dyn Process>
                })
            };
            let outcome = Simulator::new(
                dual,
                factory,
                Assignment::relays(n),
                Box::new(ScriptedLinks(Arc::clone(&decisions))),
                SimConfig::default()
                    .with_seed(seed)
                    .with_max_rounds(rounds)
                    .with_collision_detection(collision_detection)
                    .with_record_mode(RecordMode::Full),
            )
            .unwrap()
            .run(StopCondition::max_rounds());

            prop_assert_eq!(outcome.metrics, expected_metrics);
            let log = log.lock().unwrap();
            prop_assert_eq!(outcome.history.len(), rounds);
            for (r, record) in outcome.history.records().iter().enumerate() {
                prop_assert_eq!(&log[r], &expected[r].feedback, "round {} on {}", r, backend);
                prop_assert_eq!(&record.active_dynamic_edges, &expected[r].active);
                let transmitters: Vec<NodeId> =
                    NodeId::all(n).filter(|u| transmit[r][u.index()]).collect();
                prop_assert_eq!(&record.transmitters, &transmitters);
                let deliveries: Vec<(NodeId, NodeId)> =
                    record.deliveries.iter().map(|d| (d.receiver, d.sender)).collect();
                let expected_deliveries: Vec<(NodeId, NodeId)> = expected[r]
                    .feedback
                    .iter()
                    .enumerate()
                    .filter_map(|(u, f)| match f {
                        Feedback::Received(m) => Some((NodeId::new(u), m.source())),
                        _ => None,
                    })
                    .collect();
                prop_assert_eq!(deliveries, expected_deliveries);
            }
        }
    }
}
