//! Process-level static-shard tests: the `repro` binary running a campaign
//! as `campaign run --shard K/N` processes, each into its own store, then
//! merging the shard stores and comparing bytes against a single-process
//! run.
//!
//! These are the acceptance checks for distributed campaigns: sharding plus
//! merge must be invisible in the output bytes, even when a shard's store
//! is torn by a crash and resumed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dradio_campaign::{CampaignSpec, RoundsRule, SweepGroup, TrialPolicy};
use dradio_core::algorithms::GlobalAlgorithm;
use dradio_scenario::{AdversarySpec, ProblemSpec, TopologySpec};

/// A fresh scratch directory per test (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dradio-shard-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `repro` binary, run inside `dir`.
fn repro(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.current_dir(dir);
    cmd
}

/// A small sweep, written to `campaign.json` in `dir`.
fn write_campaign(dir: &Path) -> String {
    let spec = CampaignSpec::named("shard-it")
        .seed(11)
        .trials(TrialPolicy::Fixed(2))
        .group(
            SweepGroup::product(
                vec![
                    TopologySpec::Clique { n: 8 },
                    TopologySpec::Clique { n: 16 },
                    TopologySpec::DualClique { n: 16 },
                ],
                vec![
                    GlobalAlgorithm::Bgi.into(),
                    GlobalAlgorithm::Permuted.into(),
                ],
                vec![AdversarySpec::StaticNone],
                vec![ProblemSpec::GlobalFrom(0)],
            )
            .rounds(RoundsRule::Fixed(2_000)),
        );
    let json = serde_json::to_string(&spec).unwrap();
    std::fs::write(dir.join("campaign.json"), &json).unwrap();
    "campaign.json".into()
}

/// Panics with the command's output unless it succeeded; returns stdout.
fn assert_ok(cmd: &Command, out: Output) -> String {
    assert!(
        out.status.success(),
        "command failed ({:?}):\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs a command expecting success; returns its stdout.
fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert_ok(cmd, out)
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap()
}

/// Runs `campaign <action> --shard k/2` for both shards concurrently, shard
/// `k` into `<prefix>k.jsonl`.
fn run_two_shards(dir: &Path, camp: &str, action: &str, prefix: &str) {
    let mut commands: Vec<Command> = (0..2)
        .map(|k| {
            let mut cmd = repro(dir);
            cmd.args(["campaign", action, "--campaign", camp])
                .args(["--store", &format!("{prefix}{k}.jsonl")])
                .args(["--shard", &format!("{k}/2")]);
            cmd
        })
        .collect();
    let children: Vec<_> = commands
        .iter_mut()
        .map(|cmd| cmd.stdout(std::process::Stdio::piped()).spawn().unwrap())
        .collect();
    for (cmd, child) in commands.iter().zip(children) {
        assert_ok(cmd, child.wait_with_output().unwrap());
    }
}

fn merge(dir: &Path, camp: &str, out: &str, shards: &[&str]) {
    run_ok(
        repro(dir)
            .args(["campaign", "merge", "--campaign", camp, "--store", out])
            .args(shards),
    );
}

#[test]
fn two_shards_plus_merge_are_byte_identical_to_a_single_process_run() {
    let dir = scratch("bytes");
    let camp = write_campaign(&dir);

    run_ok(repro(&dir).args([
        "campaign",
        "run",
        "--campaign",
        &camp,
        "--store",
        "single.jsonl",
    ]));
    run_two_shards(&dir, &camp, "run", "shard");
    for shard in ["shard0.jsonl", "shard1.jsonl"] {
        assert!(!read(&dir, shard).is_empty(), "{shard} got no cells");
        run_ok(repro(&dir).args(["campaign", "fsck", "--store", shard]));
    }
    merge(
        &dir,
        &camp,
        "merged.jsonl",
        &["shard0.jsonl", "shard1.jsonl"],
    );

    assert_eq!(
        read(&dir, "single.jsonl"),
        read(&dir, "merged.jsonl"),
        "shards + merge must be invisible in the output bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_shard_resumes_and_merges_to_the_same_bytes() {
    let dir = scratch("torn");
    let camp = write_campaign(&dir);

    run_ok(repro(&dir).args([
        "campaign",
        "run",
        "--campaign",
        &camp,
        "--store",
        "single.jsonl",
    ]));
    run_two_shards(&dir, &camp, "run", "shard");

    // A crash mid-append leaves a torn last line. Resuming the shard with
    // the same --shard re-measures exactly what was lost.
    let intact = read(&dir, "shard1.jsonl");
    std::fs::write(dir.join("shard1.jsonl"), &intact[..intact.len() - 80]).unwrap();
    let out = repro(&dir)
        .args(["campaign", "fsck", "--store", "shard1.jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a torn shard must fsck non-zero");
    let stdout = run_ok(repro(&dir).args([
        "campaign",
        "resume",
        "--campaign",
        &camp,
        "--store",
        "shard1.jsonl",
        "--shard",
        "1/2",
    ]));
    assert!(
        stdout.contains("1 executed"),
        "resume must re-measure the torn cell:\n{stdout}"
    );
    assert_eq!(
        read(&dir, "shard1.jsonl"),
        intact,
        "the resumed shard store"
    );
    merge(
        &dir,
        &camp,
        "merged.jsonl",
        &["shard0.jsonl", "shard1.jsonl"],
    );

    assert_eq!(
        read(&dir, "single.jsonl"),
        read(&dir, "merged.jsonl"),
        "a torn and resumed shard must not change the merged bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_shard_values_are_usage_errors() {
    let dir = scratch("malformed");
    let camp = write_campaign(&dir);
    for action in ["run", "resume"] {
        for value in ["2/2", "0/0", "a/b", "1", "1/"] {
            let out = repro(&dir)
                .args(["campaign", action, "--campaign", &camp])
                .args(["--store", "bad.jsonl", "--shard", value])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{action} --shard {value} must fail");
            assert!(
                stderr.contains("--shard requires K/N"),
                "{action} --shard {value} must print usage:\n{stderr}"
            );
            assert!(!stderr.contains("panicked"), "{stderr}");
            assert!(!dir.join("bad.jsonl").exists(), "no store may be created");
        }
    }
    // --shard selects cells to execute; nothing else takes it.
    let out = repro(&dir)
        .args(["campaign", "report", "--campaign", &camp])
        .args(["--store", "bad.jsonl", "--shard", "0/2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("run and resume only"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_without_shard_paths_is_a_usage_error() {
    let dir = scratch("usage");
    let camp = write_campaign(&dir);
    let out = repro(&dir)
        .args([
            "campaign",
            "merge",
            "--campaign",
            &camp,
            "--store",
            "out.jsonl",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("at least one shard store"),
        "the error must say shard paths are missing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_inspects_a_store_read_only_and_flags_a_torn_tail() {
    let dir = scratch("fsck");
    let camp = write_campaign(&dir);
    run_ok(repro(&dir).args([
        "campaign",
        "run",
        "--campaign",
        &camp,
        "--store",
        "single.jsonl",
    ]));

    // A clean store passes.
    let stdout = run_ok(repro(&dir).args(["campaign", "fsck", "--store", "single.jsonl"]));
    assert!(
        stdout.contains("clean: the store loads as-is"),
        "an intact store must fsck clean:\n{stdout}"
    );

    // Tear bytes off the tail: fsck must locate the tear, exit non-zero,
    // and leave the store untouched.
    let intact = read(&dir, "single.jsonl");
    std::fs::write(dir.join("torn.jsonl"), &intact[..intact.len() - 9]).unwrap();
    let out = repro(&dir)
        .args(["campaign", "fsck", "--store", "torn.jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a torn store must fsck non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("torn tail:"),
        "fsck must name the torn tail:\n{stdout}"
    );
    assert_eq!(
        read(&dir, "torn.jsonl").len(),
        intact.len() - 9,
        "fsck must never modify the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
