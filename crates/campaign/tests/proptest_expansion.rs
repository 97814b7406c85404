//! Property tests for campaign grid expansion: the cell list is always
//! duplicate-free and order-stable, whatever the axes hold, and static
//! shards partition it.

use dradio_campaign::{
    execute_cell, CampaignRunner, CampaignSpec, CellRecord, CellSpec, ResultStore, RoundsRule,
    SweepGroup, TrialPolicy,
};
use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio_scenario::{AdversarySpec, AlgorithmSpec, ProblemSpec, TopologySpec};
use proptest::prelude::*;

fn topology_strategy() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (4usize..64).prop_map(|n| TopologySpec::Clique { n }),
        (2usize..32).prop_map(|n| TopologySpec::DualClique { n: 2 * n }),
        (2usize..8).prop_map(|k| TopologySpec::Bracelet { k }),
        (2usize..64).prop_map(|n| TopologySpec::Line { n }),
        (2usize..64).prop_map(|n| TopologySpec::Star { n }),
        ((1usize..6), (1usize..6)).prop_map(|(cliques, clique_size)| TopologySpec::LineOfCliques {
            cliques,
            clique_size
        }),
    ]
}

fn algorithm_strategy() -> impl Strategy<Value = AlgorithmSpec> {
    prop_oneof![
        Just(AlgorithmSpec::Global(GlobalAlgorithm::Bgi)),
        Just(AlgorithmSpec::Global(GlobalAlgorithm::Permuted)),
        Just(AlgorithmSpec::Global(GlobalAlgorithm::RoundRobin)),
        Just(AlgorithmSpec::Local(LocalAlgorithm::StaticDecay)),
        Just(AlgorithmSpec::Local(LocalAlgorithm::Uniform)),
    ]
}

fn adversary_strategy() -> impl Strategy<Value = AdversarySpec> {
    prop_oneof![
        Just(AdversarySpec::StaticNone),
        Just(AdversarySpec::StaticAll),
        (0.05f64..0.95).prop_map(|p| AdversarySpec::Iid { p }),
        Just(AdversarySpec::Omniscient),
    ]
}

fn problem_strategy() -> impl Strategy<Value = ProblemSpec> {
    prop_oneof![
        (0usize..4).prop_map(ProblemSpec::GlobalFrom),
        ((1usize..5), (0u64..100))
            .prop_map(|(count, seed)| ProblemSpec::LocalRandom { count, seed }),
    ]
}

fn group_strategy() -> impl Strategy<Value = SweepGroup> {
    (
        proptest::collection::vec(topology_strategy(), 1..4),
        proptest::collection::vec(algorithm_strategy(), 1..4),
        (
            proptest::collection::vec(adversary_strategy(), 1..3),
            proptest::collection::vec(problem_strategy(), 1..3),
            0u64..1000,
        ),
    )
        .prop_map(|(topologies, algorithms, (adversaries, problems, seed))| {
            SweepGroup::product(topologies, algorithms, adversaries, problems)
                .seed(seed)
                .rounds(RoundsRule::PerNode {
                    per_node: 50,
                    base: 100,
                    min_nodes: 4,
                })
        })
}

fn campaign_strategy() -> impl Strategy<Value = CampaignSpec> {
    (
        proptest::collection::vec(group_strategy(), 1..4),
        0u64..1000,
        1usize..8,
    )
        .prop_map(|(groups, seed, trials)| {
            let mut campaign = CampaignSpec::named("prop")
                .seed(seed)
                .trials(TrialPolicy::Fixed(trials));
            for group in groups {
                campaign = campaign.group(group);
            }
            campaign
        })
}

/// A stand-in record for `cell`: the right key and cell, with one tiny
/// real measurement. Store lookups go by key, so this is all a pending-set
/// computation can see of a record.
fn stand_in_record(cell: &CellSpec, measured: &CellRecord) -> CellRecord {
    CellRecord {
        key: cell.key(),
        cell: cell.clone(),
        ..measured.clone()
    }
}

fn tiny_record() -> CellRecord {
    let spec = CampaignSpec::named("tiny")
        .trials(TrialPolicy::Fixed(1))
        .group(
            SweepGroup::cell(
                TopologySpec::Clique { n: 4 },
                GlobalAlgorithm::Bgi,
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(0),
            )
            .rounds(RoundsRule::Fixed(100)),
        );
    let cell = &spec.expand().expect("valid")[0];
    execute_cell(cell, false).expect("a 4-clique broadcast runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `n` static shards of a campaign partition its expansion: they
    /// are disjoint, their union is the expansion, and each lists its cells
    /// in expansion order. A shard's membership does not depend on the
    /// store: against a store already holding an arbitrary subset of the
    /// cells, each shard's pending cells are exactly its slice minus that
    /// subset.
    #[test]
    fn shards_partition_the_expansion(
        campaign in campaign_strategy(),
        n in 1usize..=8,
        held in any::<u64>(),
    ) {
        let cells = campaign.expand().expect("valid");
        let empty = ResultStore::in_memory();
        let slices: Vec<Vec<CellSpec>> = (0..n)
            .map(|k| CampaignRunner::new(&campaign).shard(k, n).pending(&empty))
            .collect::<Result<_, _>>()
            .expect("every shard k < n exists");

        let mut owner: Vec<Option<usize>> = vec![None; cells.len()];
        for (k, slice) in slices.iter().enumerate() {
            let mut previous: Option<usize> = None;
            for cell in slice {
                let i = cells.iter().position(|c| c == cell).ok_or_else(|| {
                    TestCaseError::fail(format!("shard {k}/{n} holds a cell outside the expansion"))
                })?;
                prop_assert!(owner[i].is_none(), "cell {i} is in shards {:?} and {k}", owner[i]);
                prop_assert!(previous < Some(i), "shard {k}/{n} is out of expansion order");
                owner[i] = Some(k);
                previous = Some(i);
            }
        }
        prop_assert!(owner.iter().all(Option::is_some), "the shards miss a cell");

        let measured = tiny_record();
        let mut store = ResultStore::in_memory();
        for (i, cell) in cells.iter().enumerate() {
            if held >> (i % 64) & 1 == 1 {
                store.append(stand_in_record(cell, &measured)).expect("distinct keys");
            }
        }
        for (k, slice) in slices.iter().enumerate() {
            let pending = CampaignRunner::new(&campaign)
                .shard(k, n)
                .pending(&store)
                .expect("shard exists");
            let expected: Vec<CellSpec> = slice
                .iter()
                .filter(|cell| !store.contains(&cell.key()))
                .cloned()
                .collect();
            prop_assert_eq!(pending, expected);
        }
    }

    /// Expansion never yields two cells with the same content key — the
    /// property the resume logic relies on (a key identifies one measurement).
    #[test]
    fn expansion_is_duplicate_free(campaign in campaign_strategy()) {
        let cells = campaign.expand().expect("generated campaigns are valid");
        prop_assert!(!cells.is_empty());
        let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "duplicate cell keys in expansion");
    }

    /// Expansion is a pure function of the spec: repeated calls (and a
    /// serde round trip of the spec) give the identical cell list in the
    /// identical order.
    #[test]
    fn expansion_is_order_stable(campaign in campaign_strategy()) {
        let first = campaign.expand().expect("valid");
        let second = campaign.expand().expect("valid");
        prop_assert_eq!(&first, &second);
        let json = serde_json::to_string(&campaign).expect("specs serialize");
        let reloaded: CampaignSpec = serde_json::from_str(&json).expect("specs reload");
        let third = reloaded.expand().expect("valid after round trip");
        prop_assert_eq!(&first, &third);
    }

    /// Doubling a campaign's groups adds no cells: duplicates collapse onto
    /// their first occurrence without disturbing the order of the rest.
    #[test]
    fn duplicated_groups_collapse(campaign in campaign_strategy()) {
        let base = campaign.expand().expect("valid");
        let mut doubled = campaign.clone();
        for group in campaign.groups.clone() {
            doubled = doubled.group(group);
        }
        let cells = doubled.expand().expect("valid");
        prop_assert_eq!(&cells, &base);
    }
}
