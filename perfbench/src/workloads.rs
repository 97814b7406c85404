//! The benchmark's workloads: real campaign specs generated from a seed.
//!
//! Every workload is a [`CampaignSpec`] the repository's own campaign engine
//! runs unchanged. The seed becomes the campaign's scenario seed, from which
//! every trial's seed derives, so one seed names one exact set of inputs.

use dradio_campaign::{CampaignSpec, RoundsRule, StopRule, SweepGroup, TrialPolicy};
use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio_scenario::{AdversarySpec, ProblemSpec, TopologySpec};

/// The paper's round budget for the adaptive rows (E5/E6): `200·n + 2000`.
const PAPER_BUDGET: RoundsRule = RoundsRule::PerNode {
    per_node: 200,
    base: 2_000,
    min_nodes: 0,
};

/// Seed of the random-geometric deployment and of the local-broadcast
/// broadcaster sample. The networks and broadcaster sets are part of a
/// workload's definition, like its grid size; the workload seed varies the
/// executions on them. (A deployment seed that followed the workload seed
/// would move broadcast source 0 between the centre and the corner of the
/// square, and with it every run's length.)
const DEPLOYMENT_SEED: u64 = 0x6C4E_2013;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Global broadcast under an iid(0.5) oblivious link process on a dense
    /// dual clique and a sparse random-geometric deployment (E2).
    E2GreyIid,
    /// The static model on a grid: global and local Decay broadcast (E1).
    E1StaticDecay,
    /// The Figure 1 adversary-class sweep on dual cliques with adaptive
    /// trial allocation (E5/E6 rows).
    Figure1AdaptiveSweep,
}

/// How large a workload's campaign is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's measured size.
    Full,
    /// A seconds-long version of the same cells, for the benchmark's tests.
    Toy,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::E2GreyIid,
        Workload::E1StaticDecay,
        Workload::Figure1AdaptiveSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E2GreyIid => "e2-grey-iid",
            Workload::E1StaticDecay => "e1-static-decay",
            Workload::Figure1AdaptiveSweep => "figure1-adaptive-sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's campaign for `seed`.
    pub fn campaign(self, seed: u64, scale: Scale) -> CampaignSpec {
        let toy = scale == Scale::Toy;
        match self {
            Workload::E2GreyIid => {
                let (clique, geo_n, side, clique_trials, geo_trials) = if toy {
                    (64, 256, 5.66, 2, 2)
                } else {
                    (256, 2048, 16.0, 48, 16)
                };
                let iid = |topology, trials| {
                    SweepGroup::product(
                        vec![topology],
                        vec![
                            GlobalAlgorithm::Bgi.into(),
                            GlobalAlgorithm::Permuted.into(),
                        ],
                        vec![AdversarySpec::Iid { p: 0.5 }],
                        vec![ProblemSpec::GlobalFrom(0)],
                    )
                    .trials(TrialPolicy::Fixed(trials))
                };
                let geometric = TopologySpec::RandomGeometric {
                    n: geo_n,
                    side,
                    r: 1.5,
                    seed: DEPLOYMENT_SEED,
                };
                CampaignSpec::named(self.name())
                    .seed(seed)
                    .group(iid(geometric, geo_trials))
                    .group(iid(TopologySpec::DualClique { n: clique }, clique_trials))
            }
            Workload::E1StaticDecay => {
                let (side, local_trials, global_trials, broadcasters) =
                    if toy { (12, 2, 2, 8) } else { (64, 2, 16, 256) };
                let grid = TopologySpec::Grid {
                    cols: side,
                    rows: side,
                };
                // Two broadcaster sets, so the long Geo cells split evenly
                // over two workers.
                let samples = (0..2)
                    .map(|k| ProblemSpec::LocalRandom {
                        count: broadcasters,
                        seed: DEPLOYMENT_SEED + k,
                    })
                    .collect();
                CampaignSpec::named(self.name())
                    .seed(seed)
                    .group(
                        SweepGroup::product(
                            vec![grid.clone()],
                            vec![
                                LocalAlgorithm::StaticDecay.into(),
                                LocalAlgorithm::Geo.into(),
                            ],
                            vec![AdversarySpec::StaticNone],
                            samples,
                        )
                        .trials(TrialPolicy::Fixed(local_trials)),
                    )
                    .group(
                        SweepGroup::product(
                            vec![grid],
                            vec![
                                GlobalAlgorithm::Bgi.into(),
                                GlobalAlgorithm::Permuted.into(),
                            ],
                            vec![AdversarySpec::StaticNone],
                            vec![ProblemSpec::GlobalFrom(0)],
                        )
                        .trials(TrialPolicy::Fixed(global_trials)),
                    )
            }
            Workload::Figure1AdaptiveSweep => {
                // Largest networks and strongest adversaries first: the
                // runner hands cells out in expansion order, so the long
                // cells start early and the short ones fill the workers'
                // tails instead of one long cell running alone at the end.
                let (sizes, max): (&[usize], usize) = if toy {
                    (&[16, 8], 8)
                } else {
                    (&[128, 64, 32, 16], 64)
                };
                CampaignSpec::named(self.name())
                    .seed(seed)
                    .trials(TrialPolicy::Adaptive {
                        min: 8.min(max),
                        max,
                        relative_width: 0.1,
                        stop: StopRule::MeanCostCi,
                    })
                    .group(
                        SweepGroup::product(
                            sizes
                                .iter()
                                .map(|&n| TopologySpec::DualClique { n })
                                .collect(),
                            GlobalAlgorithm::all().map(Into::into).to_vec(),
                            vec![
                                AdversarySpec::Omniscient,
                                AdversarySpec::DenseSparse {
                                    density_factor: None,
                                },
                                AdversarySpec::Iid { p: 0.5 },
                                AdversarySpec::StaticNone,
                            ],
                            vec![ProblemSpec::GlobalFrom(0)],
                        )
                        .rounds(PAPER_BUDGET),
                    )
            }
        }
    }
}
