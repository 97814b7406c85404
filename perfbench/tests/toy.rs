//! The benchmark's own checks, on seconds-long versions of every workload.

use std::path::PathBuf;
use std::time::Instant;

use dradio_perfbench::bench::{self, Config};
use dradio_perfbench::harness::{run_campaign, set_up, traced_scenario, trial_pass, StoreCheck};
use dradio_perfbench::references::{self, fnv64, Reference};
use dradio_perfbench::workloads::{Scale, Workload};

const SEED: u64 = 3;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn toy_config(workload: Workload, name: &str) -> Config {
    Config {
        workload,
        seed: SEED,
        seconds: 0.01,
        scale: Scale::Toy,
        threads: 2,
        work_dir: scratch(name),
        spans_file: None,
    }
}

/// Metric names of one `BENCHMARK.json` list, in file order.
fn declared(list: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{list}\"")).expect("list is declared");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn traced_trials_measure_exactly_what_the_store_holds() {
    for workload in Workload::ALL {
        let spec = workload.campaign(SEED, Scale::Toy);
        let (_, prepared) = set_up(&spec).unwrap();
        let path = scratch("traced-eq").join(format!("{}.jsonl", workload.name()));
        let run = run_campaign(&spec, 2, &path).unwrap();
        for (i, record) in run.records.iter().enumerate() {
            let traced = traced_scenario(&prepared.cells[i], &prepared.topologies[i]).unwrap();
            let origin = Instant::now();
            let mode = record.cell.record_mode;
            let plain = trial_pass(
                &prepared.scenarios[i],
                mode,
                record.trials_run,
                false,
                origin,
            );
            let wrapped = trial_pass(&traced, mode, record.trials_run, true, origin);
            assert_eq!(plain.measurement.as_ref().unwrap(), &record.measurement);
            assert_eq!(wrapped.measurement.as_ref().unwrap(), &record.measurement);
            assert_eq!(plain.counts, wrapped.counts, "{}", record.cell.label());
        }
    }
}

#[test]
fn phases_account_for_the_traced_trial_time() {
    for workload in Workload::ALL {
        let spec = workload.campaign(SEED, Scale::Toy);
        let (_, prepared) = set_up(&spec).unwrap();
        let (mut trial_s, mut covered) = (0.0, 0.0);
        for (cell, topology) in prepared.cells.iter().zip(&prepared.topologies) {
            let traced = traced_scenario(cell, topology).unwrap();
            let pass = trial_pass(&traced, cell.record_mode, 4, true, Instant::now());
            for trial in &pass.trials {
                assert!(
                    trial.phases.covered() <= trial.seconds + 1e-9,
                    "{}",
                    cell.label()
                );
            }
            trial_s += pass.trial_seconds();
            covered += pass.phases().covered();
        }
        let unattributed = (trial_s - covered) / trial_s;
        assert!(
            unattributed < 0.1,
            "{}: {unattributed:.3} of traced trial time is in no phase",
            workload.name()
        );
    }
}

#[test]
fn a_tampered_store_fails_the_digest_check() {
    let spec = Workload::Figure1AdaptiveSweep.campaign(SEED, Scale::Toy);
    let dir = scratch("tamper");
    let first = run_campaign(&spec, 2, &dir.join("a.jsonl")).unwrap();
    let second = run_campaign(&spec, 1, &dir.join("b.jsonl")).unwrap();

    let mut pinned = StoreCheck::new(None);
    pinned.check(&first.bytes).unwrap();
    pinned.check(&second.bytes).unwrap();
    let mut tampered = second.bytes.clone();
    let digit = tampered.iter().position(u8::is_ascii_digit).unwrap();
    tampered[digit] = if tampered[digit] == b'9' {
        b'8'
    } else {
        tampered[digit] + 1
    };
    assert!(pinned.check(&tampered).is_err());

    let reference = Reference {
        store_fnv64: fnv64(&first.bytes),
        store_bytes: first.bytes.len() as u64,
        counts: Default::default(),
    };
    assert!(StoreCheck::new(Some(&reference))
        .check(&second.bytes)
        .is_ok());
    assert!(StoreCheck::new(Some(&reference)).check(&tampered).is_err());
}

#[test]
fn every_run_reports_the_declared_metrics_and_passes_its_checks() {
    for workload in Workload::ALL {
        let report = bench::end_to_end(&toy_config(workload, "e2e")).unwrap();
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, declared("end_to_end"), "{}", workload.name());

        let report = bench::traced(&toy_config(workload, "traced")).unwrap();
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let mut expected = declared("per_layer");
        names.sort_unstable();
        expected.sort_unstable();
        assert_eq!(names, expected, "{}", workload.name());
    }
}

#[test]
fn recorded_seeds_cover_every_workload_and_count() {
    for workload in Workload::ALL {
        let recorded: Vec<Reference> = (0..1000)
            .filter_map(|seed| references::lookup(workload.name(), seed))
            .collect();
        assert!(
            recorded.len() >= 2,
            "{}: primary and held-out seeds",
            workload.name()
        );
        for reference in recorded {
            assert_eq!(reference.store_fnv64.len(), 16);
            for name in [
                "campaign.trials_run",
                "sim.rounds",
                "adversary.edges_proposed",
            ] {
                assert!(
                    reference.counts.contains_key(name),
                    "{} lacks {name}",
                    workload.name()
                );
            }
        }
    }
}
