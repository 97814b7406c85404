//! E8 — ablation: why Permuted Decay is needed (Section 4.1, Lemma 4.2).
//!
//! Two checks:
//!
//! 1. on a single-hop "grey star" (a receiver with a couple of reliable
//!    broadcaster neighbors and many grey-zone broadcaster neighbors) the
//!    schedule-aware oblivious adversary keeps plain Decay from delivering for
//!    a long time, while Permuted Decay delivers within a few calls — the
//!    per-call delivery probability of Lemma 4.2;
//! 2. the same comparison at network scale: global broadcast on the dual
//!    clique under the decay-aware adversary.
//!
//! The grey-star check also exercises the scenario layer's escape hatches:
//! the topology is hand-built (no generator covers it) and the broadcasters
//! run a hand-written shared-bits decay process, both attached through
//! [`Scenario::on_dual`] / `custom_algorithm`.

use std::sync::Arc;

use dradio_core::algorithms::GlobalAlgorithm;
use dradio_core::decay::{DecaySchedule, PermutedDecaySchedule};
use dradio_core::kinds;
use dradio_graphs::{DualGraph, GraphBuilder};
use dradio_scenario::{AdversarySpec, ProblemSpec, Scenario, ScenarioSpec, TopologySpec};
use dradio_sim::process::log2_ceil;
use dradio_sim::sampling::bernoulli;
use dradio_sim::{
    Action, Activity, BitString, Message, Process, ProcessContext, ProcessFactory, Role, Round,
};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::experiments::{
    dual_clique_contention_table, fmt1, ContentionSetup, Experiment, ExperimentConfig,
};
use crate::sweep::{
    measurement_for, run_campaign, CampaignError, CampaignSpec, RoundsRule, SweepGroup, TrialPolicy,
};
use crate::table::Table;

/// Experiment E8: fixed vs permuted decay under the schedule-aware oblivious
/// adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct E8DecayAblation;

impl Experiment for E8DecayAblation {
    fn id(&self) -> &'static str {
        "E8"
    }

    fn title(&self) -> &'static str {
        "Ablation: fixed Decay vs Permuted Decay under an oblivious schedule-aware adversary"
    }

    fn paper_claim(&self) -> &'static str {
        "A fixed decay schedule can be attacked by an oblivious adversary, while each permuted \
         decay call still delivers with probability > 1/2 (Lemma 4.2)"
    }

    fn run(&self, cfg: &ExperimentConfig) -> Result<Vec<Table>, CampaignError> {
        Ok(vec![
            self.grey_star(cfg)?,
            self.dual_clique_comparison(cfg)?,
            self.contention_over_time(cfg)?,
        ])
    }
}

/// A broadcaster that runs (fixed or permuted) decay with a bit string shared
/// by every broadcaster, which is how the grey-star scenario isolates the
/// Lemma 4.2 coordination property.
struct SharedDecayBroadcaster {
    msg: Option<Message>,
    levels: usize,
    bits: BitString,
    permuted: bool,
}

impl SharedDecayBroadcaster {
    fn probability(&self, round: Round) -> f64 {
        if self.permuted {
            PermutedDecaySchedule::new(self.levels).probability(&self.bits, round.index())
        } else {
            DecaySchedule::new(self.levels).probability(round.index())
        }
    }
}

impl Process for SharedDecayBroadcaster {
    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.msg {
            Some(m) if bernoulli(rng, self.probability(round)) => Action::Transmit(m.clone()),
            _ => Action::Listen,
        }
    }
    fn transmit_probability(&self, round: Round) -> f64 {
        if self.msg.is_some() {
            self.probability(round)
        } else {
            0.0
        }
    }
    fn name(&self) -> &'static str {
        "shared-decay"
    }
    fn activity(&self) -> Activity {
        if self.msg.is_some() {
            Activity::Deaf
        } else {
            Activity::Dormant
        }
    }
}

impl E8DecayAblation {
    /// Builds the grey star: node 0 is the receiver, nodes `1..=reliable` are
    /// reliable broadcaster neighbors, nodes `reliable+1..=reliable+grey` are
    /// grey-zone broadcaster neighbors (present only in `G'`).
    fn grey_star_topology(reliable: usize, grey: usize) -> DualGraph {
        let n = 1 + reliable + grey;
        let mut g = GraphBuilder::new(n);
        let mut gp = GraphBuilder::new(n);
        for i in 1..=reliable {
            g = g.edge(0, i);
            gp = gp.edge(0, i);
        }
        for i in (reliable + 1)..n {
            gp = gp.edge(0, i);
        }
        // Keep G connected: chain the broadcasters behind the receiver's back
        // (they are all mutually out of the receiver's picture).
        for i in 1..n - 1 {
            g = g.edge(i, i + 1);
            gp = gp.edge(i, i + 1);
        }
        // lint: allow(D4) -- path edges are in range and distinct
        DualGraph::new(g.build().expect("valid"), gp.build().expect("valid"))
            // lint: allow(D4) -- G is a subgraph of G' by construction above
            .expect("containment holds")
            .with_name(format!("grey-star(reliable={reliable}, grey={grey})"))
    }

    fn shared_factory(levels: usize, permuted: bool, seed: u64) -> ProcessFactory {
        // The shared bits model the coordination the real algorithms obtain
        // from the source message (global) or the disseminated seeds (local):
        // generated after the adversary committed, identical at every
        // broadcaster.
        let bits = BitString::random(4096, &mut ChaCha8Rng::seed_from_u64(seed));
        Arc::new(move |ctx: &ProcessContext| {
            let msg = (ctx.role == Role::Broadcaster)
                .then(|| Message::plain(ctx.id, kinds::DATA, ctx.id.index() as u64));
            Box::new(SharedDecayBroadcaster {
                msg,
                levels,
                bits: bits.clone(),
                permuted,
            }) as Box<dyn Process>
        })
    }

    /// Rounds until the grey-star receiver hears some broadcaster.
    ///
    /// This table cannot be a campaign: the topology is hand-built and every
    /// trial attaches a *different* hand-written factory (a fresh shared bit
    /// string), neither of which a declarative, serializable cell can carry.
    /// It runs through `Scenario` directly but reports errors like the
    /// campaign-backed tables instead of panicking.
    fn grey_star(&self, cfg: &ExperimentConfig) -> Result<Table, CampaignError> {
        let grey_sizes = cfg.pick(&[8usize, 16], &[8, 16, 32, 64], &[16, 32, 64, 128, 256]);
        let reliable = 2usize;
        let mut table = Table::new(
            "E8a: grey star — rounds until the receiver hears a broadcaster (decay-aware adversary)",
            vec![
                "grey degree",
                "n",
                "schedule",
                "rounds (mean)",
                "delivered within one call (gamma log n rounds)",
            ],
        );
        for &grey in &grey_sizes {
            let dual = Self::grey_star_topology(reliable, grey);
            let n = dual.len();
            let levels = log2_ceil(n).max(1);
            let call_length = 16 * levels;
            let broadcasters: Vec<usize> = (1..n).collect();
            for permuted in [false, true] {
                let trials = (cfg.trials * 4).max(4);
                let mut costs = Vec::with_capacity(trials);
                let mut within_call = 0usize;
                for t in 0..trials {
                    // The shared bit string differs per trial, so each trial
                    // is its own scenario with its own attached factory.
                    let scenario = Scenario::on_dual(dual.clone())
                        .custom_algorithm(
                            if permuted {
                                "shared-permuted-decay"
                            } else {
                                "shared-fixed-decay"
                            },
                            Self::shared_factory(levels, permuted, cfg.seed + 70 + t as u64),
                        )
                        .adversary(AdversarySpec::DecayAware {
                            levels: Some(levels),
                            assumed_transmitters: vec![],
                        })
                        .problem(ProblemSpec::Local {
                            broadcasters: broadcasters.clone(),
                        })
                        .seed(cfg.seed + 71 + t as u64)
                        .max_rounds(400 * levels)
                        .build()?;
                    let cost = scenario.run().cost();
                    if cost <= call_length {
                        within_call += 1;
                    }
                    costs.push(cost as f64);
                }
                let summary = crate::stats::Summary::from_samples(&costs);
                table.push_row(vec![
                    grey.to_string(),
                    n.to_string(),
                    if permuted { "permuted" } else { "fixed" }.to_string(),
                    fmt1(summary.mean),
                    format!("{:.0}%", 100.0 * within_call as f64 / trials as f64),
                ]);
            }
        }
        Ok(table.with_caption(
            "paper (Lemma 4.2): one permuted decay call delivers with probability > 1/2 even under \
             an oblivious adversary; the fixed schedule's delivery rate collapses as the grey \
             degree grows",
        ))
    }

    /// Network-scale comparison on the dual clique, as a campaign. The
    /// decay-aware attacker's assumed-transmitter set depends on n (it
    /// correctly assumes only the source's clique side transmits until the
    /// bridge carries the message across), so each size is its own group.
    fn dual_clique_comparison(&self, cfg: &ExperimentConfig) -> Result<Table, CampaignError> {
        let sizes = cfg.pick(&[16usize, 32], &[32, 64, 128], &[64, 128, 256, 512]);
        let algorithms = [GlobalAlgorithm::Bgi, GlobalAlgorithm::Permuted];
        let adversary = |n: usize| AdversarySpec::DecayAware {
            levels: None,
            assumed_transmitters: (0..n / 2).collect(),
        };
        let mut campaign = CampaignSpec::named("e8b-decay-aware-clique")
            .seed(cfg.seed + 72)
            .trials(TrialPolicy::Fixed(cfg.trials));
        for &n in &sizes {
            campaign = campaign.group(
                SweepGroup::product(
                    vec![TopologySpec::DualClique { n }],
                    algorithms.iter().map(|&a| a.into()).collect(),
                    vec![adversary(n)],
                    vec![ProblemSpec::GlobalFrom(0)],
                )
                .rounds(RoundsRule::Fixed(100 * n + 2_000)),
            );
        }
        let store = run_campaign(&campaign)?;

        let mut table = Table::new(
            "E8b: global broadcast on the dual clique under the decay-aware oblivious adversary",
            vec!["n", "algorithm", "rounds (mean)", "completion"],
        );
        for &n in &sizes {
            for algorithm in algorithms {
                let scenario = ScenarioSpec {
                    topology: TopologySpec::DualClique { n },
                    algorithm: algorithm.into(),
                    adversary: adversary(n),
                    problem: ProblemSpec::GlobalFrom(0),
                    seed: cfg.seed + 72,
                    max_rounds: Some(100 * n + 2_000),
                    collision_detection: false,
                };
                let m = measurement_for(&store, &scenario)?;
                table.push_row(vec![
                    n.to_string(),
                    algorithm.name().to_string(),
                    fmt1(m.rounds.mean),
                    format!("{:.0}%", m.completion_rate() * 100.0),
                ]);
            }
        }
        Ok(table.with_caption(
            "context: on the dual clique every receiver keeps ~n/2 reliable broadcaster neighbors, \
             so even plain decay resists the oblivious schedule attack here (both variants stay \
             polylogarithmic); the schedule attack bites when receivers depend on grey-zone links \
             for most of their broadcaster connectivity — that regime is measured in E8a",
        ))
    }

    /// Contention over time under the decay-aware schedule attack: the fixed
    /// schedule's collisions cluster at the rounds the attacker targets,
    /// while the permuted schedule spreads them (streamed from
    /// `CollisionsOnly` recording; see [`dual_clique_contention_table`]).
    fn contention_over_time(&self, cfg: &ExperimentConfig) -> Result<Table, CampaignError> {
        let n = *cfg
            .pick(&[32usize], &[128], &[512])
            .first()
            // lint: allow(D4) -- pick() returns one of three non-empty literal slices
            .expect("non-empty");
        dual_clique_contention_table(
            format!("E8c: contention over time (dual clique n = {n}, decay-aware adversary)"),
            ContentionSetup {
                campaign_name: "e8c-contention",
                seed: cfg.seed + 73,
                n,
                adversary: AdversarySpec::DecayAware {
                    levels: None,
                    assumed_transmitters: (0..n / 2).collect(),
                },
                max_rounds: 100 * n + 2_000,
                trials: (cfg.trials * 4).max(4),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_graphs::NodeId;

    #[test]
    fn grey_star_topology_shape() {
        let dual = E8DecayAblation::grey_star_topology(2, 5);
        assert_eq!(dual.len(), 8);
        // Receiver 0 has 2 reliable and 5 grey neighbors.
        assert_eq!(dual.g_neighbors(NodeId::new(0)).len(), 2);
        assert_eq!(dual.g_prime_neighbors(NodeId::new(0)).len(), 7);
        assert!(dual.is_valid());
        assert!(dradio_graphs::properties::is_connected(dual.g()));
    }

    #[test]
    fn smoke_run_produces_three_tables() {
        let tables = E8DecayAblation.run(&ExperimentConfig::smoke()).unwrap();
        assert_eq!(tables.len(), 3);
        assert!(tables[0].title().contains("E8a"));
        assert!(tables[1].title().contains("E8b"));
        assert!(tables[2].title().contains("E8c"));
    }

    #[test]
    fn contention_curves_are_nontrivial_at_smoke_scale() {
        let table = E8DecayAblation
            .contention_over_time(&ExperimentConfig::smoke())
            .unwrap();
        assert!(table.rows().len() > 1, "more than one round window");
        let nonzero = table
            .rows()
            .iter()
            .flat_map(|row| &row[1..])
            .any(|cell| cell.parse::<f64>().unwrap() > 0.0);
        assert!(nonzero, "the streamed curve should not be identically zero");
    }

    #[test]
    fn permuted_is_not_slower_than_fixed_on_the_grey_star() {
        let table = E8DecayAblation
            .grey_star(&ExperimentConfig::smoke())
            .unwrap();
        // Rows alternate fixed/permuted per grey size; compare the largest.
        let rows = table.rows();
        let fixed: f64 = rows[rows.len() - 2][3].parse().unwrap();
        let permuted: f64 = rows[rows.len() - 1][3].parse().unwrap();
        assert!(
            permuted <= fixed * 1.5,
            "permuted ({permuted}) should not be much slower than fixed ({fixed})"
        );
    }
}
