//! The FTOA replay benchmark.
//!
//! ```text
//! ftoa-perfbench --workload <paper-default|downtown-weighted> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload from the seed, renders it as an `ftoa-trace v2`
//! string and replays it through the production path (see the library
//! docs). `--trace 0` measures the end-to-end metrics with tracing off
//! (`bench::end_to_end`); `--trace 1` measures the per-layer metrics in a
//! traced run (`bench::traced`). Either way every replay is checked, and
//! the last two stdout lines are the provenance record and the result
//! object. Failed checks are listed on stderr. Exit code 2 means a bad
//! command line, 1 a run that could not finish.

use ftoa_core::engine::kernels::active_kernel;
use ftoa_perfbench::bench::{end_to_end, traced, Report};
use ftoa_perfbench::stats::result_line;
use ftoa_perfbench::workloads::Workload;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: ftoa-perfbench --workload <paper-default|downtown-weighted> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let flag = flag.as_str();
        if !matches!(flag, "--workload" | "--seed" | "--seconds" | "--trace") {
            return Err(format!("unrecognised argument `{flag}`"));
        }
        let value = iter.next().ok_or_else(|| format!("{flag} is missing its value"))?;
        if values.insert(flag, value).is_some() {
            return Err(format!("flag {flag} given twice"));
        }
    }
    let get = |flag: &str| values.get(flag).copied().ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str| {
        get(flag)?.parse::<u64>().map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let config = args.workload.config();
    let outcome = if args.trace {
        traced(&config, args.seed, budget)
    } else {
        end_to_end(&config, args.seed, budget)
    };
    match outcome.and_then(|report| render(&args, report)) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Report failed checks on stderr and render the provenance and result
/// lines.
fn render(args: &Args, report: Report) -> Result<Vec<String>, String> {
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    let bad = report.metrics.non_finite();
    if !bad.is_empty() {
        return Err(format!("metrics without a finite value: {}", bad.join(", ")));
    }
    let result = result_line(report.failed == 0, report.attempted, report.failed, &report.metrics);
    Ok(vec![provenance(args, &report.repetitions), result])
}

/// The provenance line: host cores, kernel, source revision, seed and the
/// run's repetition counts. A run on fewer than two cores says nothing
/// about parallelism.
fn provenance(args: &Args, repetitions: &str) -> String {
    let cores = ftoa_runtime::available_jobs();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"cores\": {cores}, \
         \"parallel_claims\": \"{}\", \"kernel\": \"{}\", \"git_rev\": \"{}\", \"repetitions\": {{{repetitions}}}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if cores >= 2 { "valid" } else { "void: fewer than 2 cores" },
        active_kernel().name(),
        git_rev(),
    )
}

/// The checked-out commit, read from `.git` without running git; a source
/// tree that is not a git checkout reports `unknown`.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs").ok().and_then(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split(' ').next())
                        .map(str::to_string)
                })
            })
            .unwrap_or_default(),
        None => head,
    };
    let rev = rev.trim();
    if rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit()) {
        rev.to_string()
    } else {
        "unknown".to_string()
    }
}
