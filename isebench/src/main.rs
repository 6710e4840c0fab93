//! `isebench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! isebench --workload <single_level|multilevel|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one provenance line and, as the last line of standard output,
//! the result: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones (see `README.md` for every definition).

mod batch;
mod check;
mod layers;
mod metrics;
#[cfg(test)]
mod selftest;
mod serve_mix;
mod stats;

use isegen_core::{MultilevelConfig, SearchConfig};
use metrics::{Outcome, HUGE_APPS, PAPER_APPS};
use std::process::ExitCode;

/// Search and pass threads: single-threaded search is the steadiest
/// timing on a small machine, and it is `ised`'s default.
pub const THREADS: usize = 1;

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "single_level",
        "five huge apps (aes..sha256), default search: K-L is ~99% of a pass and coarsening never runs",
    ),
    (
        "multilevel",
        "the same five apps with the multilevel V-cycle: coarsen and band refine do the work, and quality shows its cost",
    ),
    (
        "serve_mix",
        "one client, closed loop over loopback TCP to ised on the paper's 8 apps: cold selects write the cache, warm ops read it",
    ),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: isebench --workload <single_level|multilevel|serve_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload on its full inputs.
pub fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "single_level" => batch::run(&HUGE_APPS, &SearchConfig::default(), opts),
        "multilevel" => batch::run(
            &HUGE_APPS,
            &SearchConfig::default().with_multilevel(MultilevelConfig::default()),
            opts,
        ),
        "serve_mix" => serve_mix::run(&PAPER_APPS, opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The commit the benchmark was built from, when run inside a git
/// working tree (`unknown` elsewhere, e.g. in an exported checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn provenance(opts: &Opts, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == opts.workload)
        .map_or("", |(_, why)| why);
    let mut fields = vec![
        ("git_rev".to_string(), git_rev()),
        ("workload".into(), opts.workload.clone()),
        ("why".into(), why.to_string()),
        ("seed".into(), opts.seed.to_string()),
        ("seconds".into(), opts.seconds.to_string()),
        ("trace".into(), u8::from(opts.trace).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("threads".into(), THREADS.to_string()),
    ];
    fields.extend(outcome.notes.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{:?}: {:?}", k, v))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("isebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_workload(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("isebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in outcome.failures.iter().take(20) {
        eprintln!("isebench: check failed: {failure}");
    }
    match metrics::result_line(&outcome, opts.trace) {
        Ok(line) => {
            println!("{}", provenance(&opts, &outcome));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("isebench: {e}");
            ExitCode::FAILURE
        }
    }
}
