//! The benchmark's passes over one workload campaign, each timed from
//! outside the layer it measures through that layer's public API.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dradio_campaign::{CampaignRunner, CampaignSpec, CellRecord, CellSpec, ResultStore};
use dradio_scenario::{
    BuiltTopology, Measurement, RecordMode, Scenario, ScenarioBuilder, ScenarioRunner, TrialOutcome,
};

use crate::references::{fnv64, Reference};
use crate::trace::{self, PhaseTimes};

/// Runs `work(0..items)` on up to `threads` scoped threads, each claiming
/// the next index off a shared counter, and returns the results in index
/// order.
pub fn fan_out<T: Send>(items: usize, threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..items).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, items.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                let value = work(i);
                *slots[i].lock().expect("workers never panic holding a slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers never panic holding a slot")
                .expect("every index is claimed once")
        })
        .collect()
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.is_empty() {
        f64::NAN
    } else if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Everything a campaign needs before its first trial: the expanded cells,
/// one built topology per cell (shared between cells of equal topology) and
/// one built scenario per cell.
pub struct Prepared {
    /// The campaign's cells in expansion order.
    pub cells: Vec<CellSpec>,
    /// Each cell's built topology.
    pub topologies: Vec<BuiltTopology>,
    /// Each cell's built scenario.
    pub scenarios: Vec<Scenario>,
}

/// Wall seconds of one set-up, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// `CampaignSpec::expand`.
    pub expand_s: f64,
    /// `TopologySpec::build` over the distinct topologies.
    pub graphs_build_s: f64,
    /// `ScenarioBuilder::build` over the cells.
    pub scenario_build_s: f64,
    /// `Scenario::executor` over the cells.
    pub executor_s: f64,
    /// `TopologySpec::memory_estimate` summed over the distinct topologies.
    pub topology_bytes: u64,
}

/// Expands `spec` and builds every distinct topology and every cell's
/// scenario and executor, timing each layer.
///
/// # Errors
///
/// A message naming the cell whose topology or scenario failed to build.
pub fn set_up(spec: &CampaignSpec) -> Result<(SetupTimes, Prepared), String> {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let cells = spec.expand().map_err(|e| format!("expand: {e}"))?;
    times.expand_s = start.elapsed().as_secs_f64();

    let mut built: BTreeMap<String, BuiltTopology> = BTreeMap::new();
    let mut topologies = Vec::with_capacity(cells.len());
    for cell in &cells {
        let topology = &cell.scenario.topology;
        let key = format!("{:?}/{:?}", topology, cell.backend);
        if !built.contains_key(&key) {
            let t = Instant::now();
            let network = topology
                .build_with_backend(cell.backend)
                .map_err(|e| format!("{}: {e}", cell.label()))?;
            times.graphs_build_s += t.elapsed().as_secs_f64();
            times.topology_bytes += topology
                .memory_estimate(cell.backend)
                .map_or(0, |(_, bytes)| bytes);
            built.insert(key.clone(), network);
        }
        topologies.push(built[&key].clone());
    }

    let mut scenarios = Vec::with_capacity(cells.len());
    for (cell, topology) in cells.iter().zip(&topologies) {
        let t = Instant::now();
        let scenario = ScenarioBuilder::from_spec(cell.scenario.clone())
            .with_topology(topology.clone())
            .backend(cell.backend)
            .build()
            .map_err(|e| format!("{}: {e}", cell.label()))?;
        times.scenario_build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(std::hint::black_box(scenario.executor()));
        times.executor_s += t.elapsed().as_secs_f64();
        scenarios.push(scenario);
    }
    times.total_s = start.elapsed().as_secs_f64();
    Ok((
        times,
        Prepared {
            cells,
            topologies,
            scenarios,
        },
    ))
}

/// One `CampaignRunner::run` into a fresh file store.
pub struct StoreRun {
    /// Wall seconds of `CampaignRunner::run`.
    pub run_s: f64,
    /// The committed store's bytes.
    pub bytes: Vec<u8>,
    /// The committed records, in expansion order.
    pub records: Vec<CellRecord>,
}

/// Runs `spec` on `threads` threads into a fresh file store at `path`.
///
/// # Errors
///
/// The campaign engine's error, or a store I/O failure.
pub fn run_campaign(spec: &CampaignSpec, threads: usize, path: &Path) -> Result<StoreRun, String> {
    remove_if_present(path)?;
    let mut store = ResultStore::open(path).map_err(|e| e.to_string())?;
    let start = Instant::now();
    CampaignRunner::new(spec)
        .threads(threads)
        .run(&mut store)
        .map_err(|e| e.to_string())?;
    let run_s = start.elapsed().as_secs_f64();
    let records = store.records().to_vec();
    drop(store);
    let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(StoreRun {
        run_s,
        bytes,
        records,
    })
}

/// Removes `path` if it exists.
///
/// # Errors
///
/// Any removal failure other than the file being absent.
pub fn remove_if_present(path: &Path) -> Result<(), String> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// The byte-identity check on committed stores: every store of a run must
/// have the same bytes, and on a recorded seed those bytes must match the
/// reference digest.
pub struct StoreCheck {
    expected: Option<(String, u64)>,
}

impl StoreCheck {
    /// A check against `reference`, or — without one — against the first
    /// store it sees.
    pub fn new(reference: Option<&Reference>) -> Self {
        StoreCheck {
            expected: reference.map(|r| (r.store_fnv64.clone(), r.store_bytes)),
        }
    }

    /// Checks one committed store's bytes.
    ///
    /// # Errors
    ///
    /// A message giving the expected and the found digest.
    pub fn check(&mut self, bytes: &[u8]) -> Result<(), String> {
        let found = (fnv64(bytes), bytes.len() as u64);
        match &self.expected {
            None => {
                self.expected = Some(found);
                Ok(())
            }
            Some(expected) if *expected == found => Ok(()),
            Some((digest, len)) => Err(format!(
                "store digest {} ({} bytes), expected {digest} ({len} bytes)",
                found.0, found.1
            )),
        }
    }
}

/// Exact execution counts, summed over trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trials run.
    pub trials: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Rounds executed times the network size.
    pub node_rounds: u64,
    /// Transmissions.
    pub transmissions: u64,
    /// Successful receptions.
    pub deliveries: u64,
    /// Listeners with two or more transmitting neighbours.
    pub collisions: u64,
    /// Listeners with no transmitting neighbour.
    pub idle_listens: u64,
    /// Link-process edges the engine rejected as not dynamic.
    pub rejected_link_edges: u64,
}

impl Counts {
    /// Adds another set of counts into this one.
    pub fn add(&mut self, other: &Counts) {
        self.trials += other.trials;
        self.rounds += other.rounds;
        self.node_rounds += other.node_rounds;
        self.transmissions += other.transmissions;
        self.deliveries += other.deliveries;
        self.collisions += other.collisions;
        self.idle_listens += other.idle_listens;
        self.rejected_link_edges += other.rejected_link_edges;
    }

    /// The counts by their per-layer metric names.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("campaign.trials_run", self.trials),
            ("sim.rounds", self.rounds),
            ("sim.node_rounds", self.node_rounds),
            ("sim.transmissions", self.transmissions),
            ("sim.deliveries", self.deliveries),
            ("sim.collisions", self.collisions),
            ("sim.idle_listens", self.idle_listens),
            ("sim.rejected_link_edges", self.rejected_link_edges),
        ]
    }
}

/// Trials and node-rounds a committed store accounts for, read off its
/// records (`rounds.mean · rounds.count` is the exact round total).
pub fn store_counts(records: &[CellRecord]) -> (u64, u64) {
    records
        .iter()
        .fold((0, 0), |(trials, node_rounds), record| {
            let summary = &record.measurement.rounds;
            let rounds = (summary.mean * summary.count as f64).round() as u64;
            let n = record.cell.scenario.topology.node_count().unwrap_or(0) as u64;
            (trials + record.trials_run as u64, node_rounds + rounds * n)
        })
}

/// One trial of a [`trial_pass`]: a span under its cell's span.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpan {
    /// Seconds from the pass's origin to the trial's start.
    pub start_s: f64,
    /// Wall seconds of the trial, measured around `TrialExecutor::execute`.
    pub seconds: f64,
    /// The trial's phases (zero when untraced).
    pub phases: PhaseTimes,
}

/// One cell's trials, run back to back on one executor.
pub struct CellPass {
    /// The measurement the trials aggregate to.
    pub measurement: Result<Measurement, String>,
    /// Exact counts over the trials.
    pub counts: Counts,
    /// Seconds from the pass's origin to the cell's start.
    pub start_s: f64,
    /// Seconds from the pass's origin to the cell's end.
    pub end_s: f64,
    /// The cell's trials in index order.
    pub trials: Vec<TrialSpan>,
}

impl CellPass {
    /// Wall seconds of the cell's trials.
    pub fn trial_seconds(&self) -> f64 {
        self.trials.iter().map(|t| t.seconds).sum()
    }

    /// The cell's phases, summed over its trials.
    pub fn phases(&self) -> PhaseTimes {
        let mut total = PhaseTimes::default();
        for trial in &self.trials {
            total.add(&trial.phases);
        }
        total
    }
}

/// Runs trials `0..trials` of `scenario` exactly as the campaign engine
/// runs a cell's trials — `trial_seed(t)` on one reused executor, in the
/// cell's record mode — and tallies their exact counts. With `traced`, the
/// scenario must be a [`traced_scenario`] and each trial's phases are read
/// off the trace clock.
pub fn trial_pass(
    scenario: &Scenario,
    record_mode: RecordMode,
    trials: usize,
    traced: bool,
    origin: Instant,
) -> CellPass {
    let runner = ScenarioRunner::new(scenario)
        .sequential()
        .record_mode(record_mode);
    let mode = runner.effective_record_mode();
    let n = scenario.topology().len() as u64;
    let mut executor = runner.executor();
    let mut outcomes = Vec::with_capacity(trials);
    let mut counts = Counts::default();
    let mut spans = Vec::with_capacity(trials);
    let start_s = origin.elapsed().as_secs_f64();
    for t in 0..trials {
        let seed = runner.trial_seed(t);
        let start = if traced {
            trace::begin_trial()
        } else {
            Instant::now()
        };
        let outcome = executor.execute(seed, mode);
        let seconds = start.elapsed().as_secs_f64();
        spans.push(TrialSpan {
            start_s: (start - origin).as_secs_f64(),
            seconds,
            phases: if traced {
                trace::end_trial()
            } else {
                PhaseTimes::default()
            },
        });
        let m = &outcome.metrics;
        counts.add(&Counts {
            trials: 1,
            rounds: m.rounds as u64,
            node_rounds: m.rounds as u64 * n,
            transmissions: m.transmissions as u64,
            deliveries: m.deliveries as u64,
            collisions: m.collisions as u64,
            idle_listens: m.idle_listens as u64,
            rejected_link_edges: m.rejected_link_edges as u64,
        });
        outcomes.push(TrialOutcome {
            trial: t,
            seed,
            metrics: outcome.into_trial_metrics().without_curve(),
        });
    }
    CellPass {
        measurement: Measurement::from_trials(&outcomes).map_err(|e| e.to_string()),
        counts,
        start_s,
        end_s: origin.elapsed().as_secs_f64(),
        trials: spans,
    }
}

/// The cell's scenario with every process and the link process wrapped in
/// the round-phase tracer. It runs the same seeds to the same outcomes as
/// the plain scenario.
///
/// # Errors
///
/// A message naming the cell if its algorithm or adversary fails to build.
pub fn traced_scenario(cell: &CellSpec, topology: &BuiltTopology) -> Result<Scenario, String> {
    let at_cell = |e: dradio_scenario::ScenarioError| format!("{}: {e}", cell.label());
    let factory = cell
        .scenario
        .algorithm
        .factory(topology.len(), topology.max_degree())
        .map_err(at_cell)?;
    let adversary = cell.scenario.adversary.clone();
    adversary.build(topology).map_err(at_cell)?;
    let network = topology.clone();
    ScenarioBuilder::from_spec(cell.scenario.clone())
        .with_topology(topology.clone())
        .backend(cell.backend)
        .custom_algorithm(
            format!("traced {}", cell.scenario.algorithm.name()),
            trace::traced_factory(factory),
        )
        .custom_adversary(
            format!("traced {}", cell.scenario.adversary.label()),
            move || {
                trace::traced_link(
                    adversary
                        .build(&network)
                        .expect("the adversary built for this network before"),
                )
            },
        )
        .build()
        .map_err(at_cell)
}

/// Re-runs sampled trials of a committed cell with full history recording:
/// each must give the trial metrics the history-free run gives, and its
/// history must pass the problem's verifier exactly when the trial
/// completed.
///
/// # Errors
///
/// A message naming the cell and the trial that failed.
pub fn audit_cell(scenario: &Scenario, record: &CellRecord, seed: u64) -> Result<(), String> {
    let runner = ScenarioRunner::new(scenario)
        .sequential()
        .record_mode(record.cell.record_mode);
    let trials = record.trials_run.max(1);
    let key = u64::from_str_radix(&record.key, 16).unwrap_or(0);
    let sampled = ((seed ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15) % trials as u64) as usize;
    let mut executor = runner.executor();
    for t in [sampled, trials - 1] {
        let quick = runner.run_trial_on(&mut executor, t);
        let full = scenario.run_with(runner.trial_seed(t), RecordMode::Full);
        let at = |what: &str| format!("{} trial {t}: {what}", record.cell.label());
        if full.trial_metrics().without_curve() != quick.metrics {
            return Err(at("full-history metrics differ from the history-free run"));
        }
        if scenario.verify(&full.history) != full.completed {
            return Err(at("verifier disagrees with the stop condition"));
        }
    }
    Ok(())
}
