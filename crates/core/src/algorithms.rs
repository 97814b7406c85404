//! A small registry of the implemented broadcast algorithms.
//!
//! The experiment harness iterates over these enums to build its comparison
//! tables; each variant knows how to construct the [`ProcessFactory`] for a
//! given network size and maximum degree.

use dradio_sim::ProcessFactory;

use crate::global::{BgiGlobalBroadcast, PermutedGlobalBroadcast, RoundRobinGlobalBroadcast};
use crate::local::{
    GeoLocalBroadcast, RoundRobinLocalBroadcast, StaticLocalBroadcast, UniformLocalBroadcast,
};

/// The global broadcast algorithms implemented by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalAlgorithm {
    /// Bar-Yehuda–Goldreich–Itai decay broadcast (static-model baseline).
    Bgi,
    /// The paper's permuted-decay broadcast for the oblivious dual graph
    /// model (Theorem 4.1).
    Permuted,
    /// Deterministic round robin (footnote 5 fallback).
    RoundRobin,
}

impl GlobalAlgorithm {
    /// All global algorithms, in presentation order.
    pub fn all() -> [GlobalAlgorithm; 3] {
        [
            GlobalAlgorithm::Bgi,
            GlobalAlgorithm::Permuted,
            GlobalAlgorithm::RoundRobin,
        ]
    }

    /// Short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            GlobalAlgorithm::Bgi => "bgi-decay",
            GlobalAlgorithm::Permuted => "permuted-decay",
            GlobalAlgorithm::RoundRobin => "round-robin",
        }
    }

    /// Builds the process factory for a network with `n` nodes and maximum
    /// degree `max_degree`.
    pub fn factory(&self, n: usize, max_degree: usize) -> ProcessFactory {
        let _ = max_degree; // global algorithms are parameterized by n only
        match self {
            GlobalAlgorithm::Bgi => BgiGlobalBroadcast::factory(n),
            GlobalAlgorithm::Permuted => PermutedGlobalBroadcast::factory(n),
            GlobalAlgorithm::RoundRobin => RoundRobinGlobalBroadcast::factory(n),
        }
    }
}

serde::serde_enum!(GlobalAlgorithm {
    Bgi,
    Permuted,
    RoundRobin
});

impl std::fmt::Display for GlobalAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The local broadcast algorithms implemented by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalAlgorithm {
    /// Decay over `log Δ` levels (static-model baseline).
    StaticDecay,
    /// Uniform probability `1/Δ` baseline.
    Uniform,
    /// Deterministic round robin (footnote 4 fallback).
    RoundRobin,
    /// The paper's geographic seed-coordinated algorithm (Theorem 4.6).
    Geo,
}

impl LocalAlgorithm {
    /// All local algorithms, in presentation order.
    pub fn all() -> [LocalAlgorithm; 4] {
        [
            LocalAlgorithm::StaticDecay,
            LocalAlgorithm::Uniform,
            LocalAlgorithm::RoundRobin,
            LocalAlgorithm::Geo,
        ]
    }

    /// Short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            LocalAlgorithm::StaticDecay => "static-decay",
            LocalAlgorithm::Uniform => "uniform",
            LocalAlgorithm::RoundRobin => "round-robin",
            LocalAlgorithm::Geo => "geo-seeded",
        }
    }

    /// Builds the process factory for a network with `n` nodes and maximum
    /// degree `max_degree`.
    pub fn factory(&self, n: usize, max_degree: usize) -> ProcessFactory {
        match self {
            LocalAlgorithm::StaticDecay => StaticLocalBroadcast::factory(n, max_degree),
            LocalAlgorithm::Uniform => UniformLocalBroadcast::factory(n, max_degree),
            LocalAlgorithm::RoundRobin => RoundRobinLocalBroadcast::factory(n),
            LocalAlgorithm::Geo => GeoLocalBroadcast::factory(n, max_degree),
        }
    }
}

serde::serde_enum!(LocalAlgorithm {
    StaticDecay,
    Uniform,
    RoundRobin,
    Geo
});

impl std::fmt::Display for LocalAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds;
    use crate::problem::{GlobalBroadcastProblem, LocalBroadcastProblem};
    use dradio_graphs::{topology, NodeId};
    use dradio_sim::{
        Activity, Feedback, Message, ProcessContext, Role, Round, SimConfig, Simulator, StaticLinks,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn algorithm_specs_round_trip_and_keep_their_wire_names() {
        // Pinned wire shape (serde-stability registry): unit variants
        // serialize as bare strings of their Rust names. Campaign stores
        // embed these — renaming a variant is a format break.
        use serde::{Deserialize, Serialize, Value};
        let global_wire = ["Bgi", "Permuted", "RoundRobin"];
        for (algorithm, wire) in GlobalAlgorithm::all().iter().zip(global_wire) {
            assert_eq!(algorithm.to_value(), Value::Str(wire.into()));
            assert_eq!(
                GlobalAlgorithm::from_value(&algorithm.to_value()),
                Ok(*algorithm)
            );
        }
        let local_wire = ["StaticDecay", "Uniform", "RoundRobin", "Geo"];
        for (algorithm, wire) in LocalAlgorithm::all().iter().zip(local_wire) {
            assert_eq!(algorithm.to_value(), Value::Str(wire.into()));
            assert_eq!(
                LocalAlgorithm::from_value(&algorithm.to_value()),
                Ok(*algorithm)
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let global: Vec<&str> = GlobalAlgorithm::all().iter().map(|a| a.name()).collect();
        let mut dedup = global.clone();
        dedup.dedup();
        assert_eq!(global, dedup);
        let local: Vec<&str> = LocalAlgorithm::all().iter().map(|a| a.name()).collect();
        let mut dedup = local.clone();
        dedup.dedup();
        assert_eq!(local, dedup);
        assert_eq!(GlobalAlgorithm::Permuted.to_string(), "permuted-decay");
        assert_eq!(LocalAlgorithm::Geo.to_string(), "geo-seeded");
    }

    #[test]
    fn every_global_algorithm_completes_on_a_static_clique() {
        let n = 16;
        let dual = topology::clique(n);
        let problem = GlobalBroadcastProblem::new(NodeId::new(0));
        for algorithm in GlobalAlgorithm::all() {
            let outcome = Simulator::new(
                dual.clone(),
                algorithm.factory(n, dual.max_degree()),
                problem.assignment(n),
                Box::new(StaticLinks::none()),
                SimConfig::default().with_seed(3).with_max_rounds(5_000),
            )
            .unwrap()
            .run(problem.stop_condition());
            assert!(outcome.completed, "{algorithm} failed on the static clique");
            assert!(
                problem.verify(&dual, &outcome.history),
                "{algorithm} produced a bad history"
            );
        }
    }

    #[test]
    fn every_local_algorithm_completes_on_a_static_star() {
        let n = 16;
        let dual = topology::star(n).unwrap();
        let broadcasters: Vec<NodeId> = (1..n).map(NodeId::new).collect();
        let problem = LocalBroadcastProblem::new(broadcasters.clone());
        for algorithm in LocalAlgorithm::all() {
            let outcome = Simulator::new(
                dual.clone(),
                algorithm.factory(n, dual.max_degree()),
                problem.assignment(n),
                Box::new(StaticLinks::none()),
                SimConfig::default().with_seed(5).with_max_rounds(20_000),
            )
            .unwrap()
            .run(problem.stop_condition(&dual));
            assert!(outcome.completed, "{algorithm} failed on the static star");
            assert!(
                problem.verify(&dual, &outcome.history),
                "{algorithm} produced a bad history"
            );
        }
    }

    #[test]
    fn global_algorithms_are_dormant_until_data_arrives_then_deaf() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for algorithm in GlobalAlgorithm::all() {
            let factory = algorithm.factory(16, 15);
            let mut source = factory(&ProcessContext::new(NodeId::new(0), 16, 15, Role::Source));
            source.on_start(&mut rng);
            assert_eq!(source.activity(), Activity::Deaf, "{algorithm} source");

            let mut relay = factory(&ProcessContext::new(NodeId::new(1), 16, 15, Role::Relay));
            relay.on_start(&mut rng);
            assert_eq!(relay.activity(), Activity::Dormant, "{algorithm} relay");
            let seed = Message::plain(NodeId::new(7), kinds::SEED, 3);
            for feedback in [
                Feedback::Silence,
                Feedback::Collision,
                Feedback::Received(seed),
            ] {
                relay.on_feedback(Round::ZERO, &feedback, &mut rng);
                assert_eq!(
                    relay.activity(),
                    Activity::Dormant,
                    "{feedback:?} must not wake an uninformed {algorithm} relay"
                );
            }
            let data = Message::plain(NodeId::new(7), kinds::DATA, 3);
            relay.on_feedback(Round::ZERO, &Feedback::Received(data), &mut rng);
            assert_eq!(
                relay.activity(),
                Activity::Deaf,
                "informed {algorithm} relay"
            );
        }
    }

    #[test]
    fn local_decay_and_round_robin_relays_are_dormant_and_broadcasters_deaf() {
        // Geo's stage-dependent hint has its own test in `local::geo`.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for algorithm in [
            LocalAlgorithm::StaticDecay,
            LocalAlgorithm::Uniform,
            LocalAlgorithm::RoundRobin,
        ] {
            let factory = algorithm.factory(16, 4);
            let mut relay = factory(&ProcessContext::new(NodeId::new(1), 16, 4, Role::Relay));
            relay.on_start(&mut rng);
            assert_eq!(relay.activity(), Activity::Dormant, "{algorithm} relay");
            let data = Message::plain(NodeId::new(2), kinds::DATA, 2);
            relay.on_feedback(Round::ZERO, &Feedback::Received(data), &mut rng);
            assert_eq!(
                relay.activity(),
                Activity::Dormant,
                "hearing a broadcaster does not make a {algorithm} relay transmit"
            );
            let mut broadcaster = factory(&ProcessContext::new(
                NodeId::new(2),
                16,
                4,
                Role::Broadcaster,
            ));
            broadcaster.on_start(&mut rng);
            assert_eq!(
                broadcaster.activity(),
                Activity::Deaf,
                "{algorithm} broadcaster"
            );
        }
    }
}
