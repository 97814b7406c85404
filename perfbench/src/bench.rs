//! The two runs of a workload: the untraced run that gives the end-to-end
//! metrics, and the traced run that gives the per-layer metrics.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dradio_campaign::{execute_cell, CampaignSpec, CellRecord, ResultStore};
use dradio_scenario::Scenario;

use crate::harness::{
    audit_cell, fan_out, median, remove_if_present, run_campaign, set_up, store_counts,
    traced_scenario, trial_pass, CellPass, Counts, Prepared, SetupTimes, StoreCheck,
};
use crate::references::{self, Reference};
use crate::trace::{Phase, PhaseTimes};
use crate::workloads::{Scale, Workload};

/// How many set-ups one batch times: at least `min`, then more until the
/// batch has taken `seconds` or holds `max`.
#[derive(Debug, Clone, Copy)]
struct SetupBatch {
    min: usize,
    max: usize,
    seconds: f64,
}

/// The untraced run sets up after every campaign run, so the set-up median
/// samples the whole run as `run_s` does: the machine's speed drifts over
/// seconds, and set-ups timed back to back would all land in one phase.
const SETUPS_PER_RUN: SetupBatch = SetupBatch {
    min: 2,
    max: 20,
    seconds: 0.1,
};

/// The traced run sets up in one batch before its passes.
const TRACED_SETUPS: SetupBatch = SetupBatch {
    min: 5,
    max: 100,
    seconds: 1.0,
};

/// What one benchmark run measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// The campaign size.
    pub scale: Scale,
    /// Worker threads for the campaign and the benchmark's own passes.
    pub threads: usize,
    /// A directory the run may create and fill; it removes it at the end.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans, one JSON object a line.
    pub spans_file: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A run's metrics and the outcome of its output checks.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Cell executions and cell checks attempted.
    pub attempted: u64,
    /// Those that errored or failed a check.
    pub failed: u64,
    /// A line per failed check.
    pub failures: Vec<String>,
    /// The run's metrics, in report order.
    pub metrics: Vec<Metric>,
    /// The exact counts this run produced, by metric name: what
    /// `references.json` records for a seed.
    pub counts: Vec<(&'static str, u64)>,
    /// The committed store's digest and length.
    pub store: Option<(String, u64)>,
    /// Peak resident memory of the campaign runs and set-ups, read before the
    /// benchmark's own audit and passes allocate. Printed, not bounded: it
    /// follows the longest full-history execution, which the seed decides.
    pub peak_rss_mib: f64,
    /// Every repeated timing behind a reported median, by metric name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    /// Records a check that covers `cells` cells at once.
    fn check(&mut self, cells: usize, result: Result<(), String>) {
        self.attempted += cells as u64;
        if let Err(failure) = result {
            self.failed += cells as u64;
            self.failures.push(failure);
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Failed cells over attempted cells.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The run's reference entry, as `references.json` stores it.
    pub fn reference_json(&self) -> String {
        let (digest, bytes) = self.store.clone().unwrap_or_default();
        let mut out =
            format!("{{\"store_fnv64\": \"{digest}\", \"store_bytes\": {bytes}, \"counts\": {{");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value}");
        }
        out.push_str("}}");
        out
    }
}

/// `Ok` when `ok` holds, else the failure.
fn ensure(ok: bool, failure: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(failure.to_string())
    }
}

/// The reference recorded for this run's workload and seed, if any (toy
/// campaigns have none).
fn reference(cfg: &Config) -> Option<Reference> {
    match cfg.scale {
        Scale::Full => references::lookup(cfg.workload.name(), cfg.seed),
        Scale::Toy => None,
    }
}

/// Compares counts against the reference; a difference is a semantics
/// change and fails every cell of the run.
fn check_counts(report: &mut Report, reference: Option<&Reference>, cells: usize) {
    let Some(reference) = reference else { return };
    let mut differ = Vec::new();
    for (name, value) in &report.counts {
        if let Some(expected) = reference.counts.get(*name) {
            if expected != value {
                differ.push(format!("{name} {value} (reference {expected})"));
            }
        }
    }
    let result = if differ.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "counts differ from the reference: {}",
            differ.join(", ")
        ))
    };
    report.check(cells, result);
}

/// Sets the campaign up `batch` times, appending each set-up's times to
/// `times` and returning the last set-up's state.
fn set_up_batch(
    spec: &CampaignSpec,
    batch: SetupBatch,
    times: &mut Vec<SetupTimes>,
) -> Result<Prepared, String> {
    let start = Instant::now();
    for done in 1.. {
        let (t, prepared) = set_up(spec)?;
        times.push(t);
        let spent = start.elapsed().as_secs_f64();
        if done >= batch.max || (done >= batch.min && spent >= batch.seconds) {
            return Ok(prepared);
        }
    }
    unreachable!("the batch loop returns")
}

/// The median of one set-up component.
fn setup_median(times: &[SetupTimes], part: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(part).collect::<Vec<_>>())
}

/// Audits sampled trials of every committed cell under full recording.
fn audit(report: &mut Report, prepared: &Prepared, records: &[CellRecord], cfg: &Config) {
    let results = fan_out(records.len(), cfg.threads, |i| {
        audit_cell(&prepared.scenarios[i], &records[i], cfg.seed)
    });
    for result in results {
        report.check(1, result);
    }
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Whether another step of `last` seconds still ends by the deadline.
fn time_left(start: Instant, seconds: f64, last: f64) -> bool {
    start.elapsed().as_secs_f64() + last <= seconds
}

/// The untraced run: the end-to-end metrics.
///
/// Runs the campaign through `CampaignRunner::run` into a fresh file store
/// and then sets it up a few times, again and again until the run's time is
/// spent, checking every store's bytes; then audits sampled trials. Reports
/// medians.
///
/// # Errors
///
/// A set-up or campaign error, or a store I/O failure.
pub fn end_to_end(cfg: &Config) -> Result<Report, String> {
    let spec = cfg.workload.campaign(cfg.seed, cfg.scale);
    let reference = reference(cfg);
    let mut report = Report::default();
    let path = cfg.work_dir.join("store.jsonl");
    let mut store_check = StoreCheck::new(reference.as_ref());
    let mut run_s = Vec::new();
    let mut setups = Vec::new();
    let mut records = None;
    let start = Instant::now();
    let prepared = loop {
        let round = Instant::now();
        let run = run_campaign(&spec, cfg.threads, &path)?;
        report.check(run.records.len(), store_check.check(&run.bytes));
        run_s.push(run.run_s);
        if records.is_none() {
            report.store = Some((references::fnv64(&run.bytes), run.bytes.len() as u64));
            records = Some(run.records);
        }
        let prepared = set_up_batch(&spec, SETUPS_PER_RUN, &mut setups)?;
        if !time_left(start, cfg.seconds, round.elapsed().as_secs_f64()) {
            break prepared;
        }
    };
    remove_if_present(&path)?;
    // Read before the audit's full-history re-runs allocate.
    let peak_rss = peak_rss_mib().unwrap_or(f64::NAN);
    let records = records.expect("the campaign ran at least once");
    audit(&mut report, &prepared, &records, cfg);
    let (trials, node_rounds) = store_counts(&records);
    report.counts = vec![
        ("campaign.trials_run", trials),
        ("sim.node_rounds", node_rounds),
    ];
    check_counts(&mut report, reference.as_ref(), records.len());

    let run = median(&run_s);
    report.metric("setup_s", setup_median(&setups, |t| t.total_s), "s");
    report.metric("run_s", run, "s");
    report.samples.push(("run_s", run_s.clone()));
    report
        .samples
        .push(("setup_s", setups.iter().map(|t| t.total_s).collect()));
    report.metric("trials_per_s", trials as f64 / run, "1/s");
    report.metric("node_rounds_per_s", node_rounds as f64 / run, "1/s");
    report.peak_rss_mib = peak_rss;
    Ok(report)
}

/// One pass of every cell's trials over `scenarios`, on the configured
/// threads.
fn pass(
    cfg: &Config,
    scenarios: &[Scenario],
    records: &[CellRecord],
    traced: bool,
) -> Vec<CellPass> {
    let origin = Instant::now();
    fan_out(records.len(), cfg.threads, |i| {
        trial_pass(
            &scenarios[i],
            records[i].cell.record_mode,
            records[i].trials_run,
            traced,
            origin,
        )
    })
}

/// Checks a pass's measurements against the committed records and returns
/// its counts.
fn check_pass(
    report: &mut Report,
    passes: &[CellPass],
    records: &[CellRecord],
    what: &str,
) -> Counts {
    let mut counts = Counts::default();
    for (cell, record) in passes.iter().zip(records) {
        let result = match &cell.measurement {
            Ok(m) if *m == record.measurement => Ok(()),
            Ok(_) => Err(format!(
                "{}: {what} measurement differs from the store",
                record.cell.label()
            )),
            Err(e) => Err(format!("{}: {what}: {e}", record.cell.label())),
        };
        report.check(1, result);
        counts.add(&cell.counts);
    }
    counts
}

/// Writes the traced pass's spans: one line per cell, then one per trial
/// naming its cell.
fn write_spans(path: &Path, passes: &[CellPass], records: &[CellRecord]) -> Result<(), String> {
    let mut out = String::new();
    for (id, (cell, record)) in passes.iter().zip(records).enumerate() {
        let _ = writeln!(
            out,
            "{{\"span\":\"cell\",\"id\":{id},\"key\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
            record.key, cell.start_s, cell.end_s
        );
        for (t, trial) in cell.trials.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"span\":\"trial\",\"cell\":{id},\"trial\":{t},\"start_s\":{},\"seconds\":{}",
                trial.start_s, trial.seconds
            );
            for phase in Phase::ALL {
                let _ = write!(out, ",\"{}\":{}", phase.metric(), trial.phases.get(phase));
            }
            let _ = writeln!(
                out,
                ",\"adversary.edges_proposed\":{}}}",
                trial.phases.edges_proposed
            );
        }
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The traced run: the per-layer metrics.
///
/// Commits the campaign once and sets it up repeatedly, then times the
/// store's reopen and append paths, every cell through `execute_cell`, and
/// alternating untraced and traced passes of every cell's trials until the run's time is spent. The
/// two kinds of pass run identical trials, so their time ratio is the
/// tracing overhead. Every pass's measurements must equal the store's and
/// every pass's counts must agree.
///
/// # Errors
///
/// A set-up or campaign error, or a store I/O failure.
pub fn traced(cfg: &Config) -> Result<Report, String> {
    let spec = cfg.workload.campaign(cfg.seed, cfg.scale);
    let reference = reference(cfg);
    let mut report = Report::default();
    let start = Instant::now();

    // The committed store, and its resume and append paths.
    let path = cfg.work_dir.join("store.jsonl");
    let run = run_campaign(&spec, cfg.threads, &path)?;
    report.peak_rss_mib = peak_rss_mib().unwrap_or(f64::NAN);
    let mut setups = Vec::new();
    let prepared = set_up_batch(&spec, TRACED_SETUPS, &mut setups)?;
    let cells = prepared.cells.len();
    report.check(cells, StoreCheck::new(reference.as_ref()).check(&run.bytes));
    report.store = Some((references::fnv64(&run.bytes), run.bytes.len() as u64));
    let records = run.records;
    let t = Instant::now();
    let reopened = ResultStore::open(&path).map_err(|e| e.to_string())?;
    let store_open_s = t.elapsed().as_secs_f64();
    let same = reopened.records() == records.as_slice();
    report.check(cells, ensure(same, "the reopened store differs"));
    drop(reopened);
    let copy = cfg.work_dir.join("appended.jsonl");
    remove_if_present(&copy)?;
    let mut appended = ResultStore::open(&copy).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for record in &records {
        appended.append(record.clone()).map_err(|e| e.to_string())?;
    }
    let append_s = t.elapsed().as_secs_f64();
    drop(appended);
    let same = fs::read(&copy).map_err(|e| e.to_string())? == run.bytes;
    report.check(cells, ensure(same, "re-appended records differ"));
    remove_if_present(&copy)?;
    remove_if_present(&path)?;

    // Each cell on its own, as a fleet worker runs it.
    let cell_runs = fan_out(cells, cfg.threads, |i| {
        let t = Instant::now();
        let record = execute_cell(&prepared.cells[i], false);
        (t.elapsed().as_secs_f64(), record)
    });
    let cell_s: Vec<f64> = cell_runs.iter().map(|(s, _)| *s).collect();
    for ((_, result), record) in cell_runs.into_iter().zip(&records) {
        report.check(
            1,
            match result {
                Ok(r) if r == *record => Ok(()),
                Ok(_) => Err(format!(
                    "{}: execute_cell record differs",
                    record.cell.label()
                )),
                Err(e) => Err(e.to_string()),
            },
        );
    }

    // Alternating untraced and traced passes over identical trials.
    let traced_scenarios = prepared
        .cells
        .iter()
        .zip(&prepared.topologies)
        .map(|(cell, topology)| traced_scenario(cell, topology))
        .collect::<Result<Vec<_>, _>>()?;
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut phases = Vec::new();
    let mut counts = Vec::new();
    let mut edges = Vec::new();
    let mut spans = None;
    loop {
        let t = Instant::now();
        let plain = pass(cfg, &prepared.scenarios, &records, false);
        counts.push(check_pass(&mut report, &plain, &records, "untraced"));
        plain_s.push(plain.iter().map(CellPass::trial_seconds).sum::<f64>());
        let traced = pass(cfg, &traced_scenarios, &records, true);
        counts.push(check_pass(&mut report, &traced, &records, "traced"));
        traced_s.push(traced.iter().map(CellPass::trial_seconds).sum::<f64>());
        let mut total = PhaseTimes::default();
        for cell in &traced {
            total.add(&cell.phases());
        }
        phases.push(total);
        edges.push(total.edges_proposed);
        spans.get_or_insert(traced);
        if !time_left(start, cfg.seconds, t.elapsed().as_secs_f64()) {
            break;
        }
    }
    let counts_agree =
        counts.windows(2).all(|w| w[0] == w[1]) && edges.windows(2).all(|w| w[0] == w[1]);
    report.check(
        cells,
        ensure(counts_agree, "exact counts differ between passes"),
    );
    let counts = counts[0];
    let stored = store_counts(&records);
    report.check(
        cells,
        ensure(
            stored == (counts.trials, counts.node_rounds),
            "pass counts differ from the store",
        ),
    );
    audit(&mut report, &prepared, &records, cfg);
    report.counts = counts.named().to_vec();
    report.counts.push(("adversary.edges_proposed", edges[0]));
    check_counts(&mut report, reference.as_ref(), cells);
    if let (Some(path), Some(spans)) = (&cfg.spans_file, &spans) {
        write_spans(path, spans, &records)?;
    }

    report.metric(
        "graphs.build_s",
        setup_median(&setups, |t| t.graphs_build_s),
        "s",
    );
    let topology_mib = setups[0].topology_bytes as f64 / (1024.0 * 1024.0);
    report.metric("graphs.topology_mib", topology_mib, "MiB");
    report.metric(
        "scenario.build_s",
        setup_median(&setups, |t| t.scenario_build_s),
        "s",
    );
    report.metric(
        "scenario.executor_s",
        setup_median(&setups, |t| t.executor_s),
        "s",
    );
    for phase in Phase::ALL {
        let values: Vec<f64> = phases.iter().map(|p| p.get(phase)).collect();
        report.metric(phase.metric(), median(&values), "s");
    }
    for (name, value) in report.counts.clone() {
        if name != "campaign.trials_run" {
            report.metric(name, value as f64, "count");
        }
    }
    let batchable = prepared
        .scenarios
        .iter()
        .zip(&prepared.cells)
        .filter(|(s, c)| s.is_batchable(c.record_mode))
        .count();
    report.metric("sim.batchable_cells", batchable as f64, "count");
    report.metric(
        "campaign.expand_s",
        setup_median(&setups, |t| t.expand_s),
        "s",
    );
    report.metric(
        "campaign.cell_s_max",
        cell_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    report.metric("campaign.cell_s_sum", cell_s.iter().sum(), "s");
    report.metric("campaign.trials_run", counts.trials as f64, "count");
    report.metric("campaign.append_s", append_s, "s");
    report.metric("campaign.store_open_s", store_open_s, "s");
    report.metric("campaign.store_bytes", run.bytes.len() as f64, "bytes");
    report.metric("campaign.peak_rss_mib", report.peak_rss_mib, "MiB");
    let traced_total: f64 = traced_s.iter().sum();
    let covered: f64 = phases.iter().map(PhaseTimes::covered).sum();
    report.metric(
        "bench.trace_overhead_frac",
        traced_total / plain_s.iter().sum::<f64>() - 1.0,
        "fraction",
    );
    report.metric(
        "bench.unattributed_frac",
        (traced_total - covered) / traced_total,
        "fraction",
    );
    Ok(report)
}
