//! `perfbench`: runs one workload of the campaign benchmark and prints its
//! metrics, ending with one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics. The run writes only under `.bench_work/` in the current
//! directory: scratch stores it removes again, and the traced run's spans.

use std::path::PathBuf;
use std::process::ExitCode;

use dradio_perfbench::bench::{self, Config, Report};
use dradio_perfbench::workloads::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    config: Config,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let work = PathBuf::from(".bench_work");
    Ok(Args {
        config: Config {
            workload,
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            scale: Scale::Full,
            // Campaign workers: the machine's cores, at most two, so runs on
            // larger machines stay comparable with the recorded ones.
            threads: std::thread::available_parallelism().map_or(1, |p| p.get().min(2)),
            work_dir: work.join(format!("run-{}", std::process::id())),
            spans_file: Some(work.join(format!("spans-{}-seed{seed}.jsonl", workload.name()))),
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The final JSON line.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = if args.trace {
        bench::traced(cfg)
    } else {
        bench::end_to_end(cfg)
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        report
            .failures
            .push("a metric is not a finite number".into());
        report.metrics.retain(|m| m.value.is_finite());
    }
    println!(
        "{} seed {} ({} threads, {} s)",
        cfg.workload.name(),
        cfg.seed,
        cfg.threads,
        cfg.seconds
    );
    for m in &report.metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>18.6} MiB (not bounded)",
        "peak_rss_mib", report.peak_rss_mib
    );
    println!(
        "  {:<28} {:>18.6} fraction ({} of {} cell checks)",
        "failed_frac",
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    for (name, samples) in &report.samples {
        let shown: Vec<String> = samples.iter().take(12).map(|s| format!("{s:.4}")).collect();
        println!("  {name} samples ({}): {}", samples.len(), shown.join(" "));
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    println!("  reference: {}", report.reference_json());
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
