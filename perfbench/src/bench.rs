//! The two kinds of benchmark run: end-to-end with tracing off, and traced.
//!
//! Both replay every policy in [`Algo::ALL`], verify each replay's
//! assignments with [`verify`] and require them to repeat exactly across
//! repetitions; a replay that fails either check is a failed operation.

use crate::check::{digest, verify};
use crate::oracle::feasibility_graph;
use crate::probe::{index_probe, kernel_probe};
use crate::replay::{replay, setup, Algo, Replay, Setup};
use crate::stats::{median, percentile, Metrics};
use crate::timing::Record;
use crate::workloads::trace_text;
use ftoa_core::engine::kernels::{active_kernel, KernelKind};
use ftoa_core::Stopwatch;
use std::collections::BTreeMap;
use std::time::Duration;
use workload::SyntheticConfig;

/// Minimum time each measurement gets per round: repetitions continue
/// until the round has spent this much on it.
pub const SLICE: Duration = Duration::from_millis(100);

/// Rounds an end-to-end run makes even when they overrun its budget.
pub const MIN_ROUNDS: usize = 3;

/// Setup repetitions in a traced run.
const TRACED_SETUPS: usize = 3;

/// Worker queries in the kernel probe.
const KERNEL_QUERIES: usize = 2_000;

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics, by name.
    pub metrics: Metrics,
    /// Checked operations: replays, setups and the oracle comparison.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Repetition counts and per-metric sample ranges (n, min, median,
    /// max), as JSON members for the provenance line.
    pub repetitions: String,
    digests: BTreeMap<&'static str, u64>,
}

impl Report {
    /// One checked operation; `problem` is why it failed, if it did.
    fn record(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.failures.push(format!("{what}: {problem}"));
        }
    }

    /// Verify a replay's assignments and that they repeat exactly.
    fn check(&mut self, setup: &Setup, algo: Algo, replay: &Replay) {
        let stream = &setup.scenario.stream;
        let result = &replay.result;
        let pairs = result.assignments.pairs();
        let mut problem = verify(
            stream.workers(),
            stream.tasks(),
            setup.scenario.config.velocity,
            pairs,
            result.total_payoff,
            algo.online(),
        )
        .err();
        let d = digest(pairs);
        if *self.digests.entry(algo.key()).or_insert(d) != d {
            problem.get_or_insert_with(|| "assignments differ from the first repetition".into());
        }
        self.record(algo.key(), problem);
    }

    /// Every setup must rebuild the same guide.
    fn check_setup(&mut self, setup: &Setup) {
        let g = &setup.guide;
        let d = (g.num_worker_nodes() as u64) << 42
            ^ (g.num_task_nodes() as u64) << 21
            ^ g.matching_size() as u64;
        let repeated = *self.digests.entry("setup").or_insert(d) == d;
        self.record("setup", (!repeated).then(|| "guide differs from the first setup".into()));
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// Run `body` at least once and until it has taken `slice` in total.
fn repeat_for(slice: Duration, mut body: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let clock = Stopwatch::start();
    loop {
        body()?;
        if clock.elapsed() >= slice {
            return Ok(());
        }
    }
}

/// The end-to-end metrics, tracing off.
///
/// After one untimed warm-up pass (which also fixes `peak_rss_mb`), each
/// round repeats every measurement for at least [`SLICE`]: setup, an
/// untraced replay of every policy, and latency replays of SimpleGreedy and
/// GR that record only arrival callbacks. Rounds continue while another like the last still fits in
/// `budget` (at least [`MIN_ROUNDS`]); each timed metric is the median over
/// all its repetitions, so slow stretches of the host are spread over the
/// whole run instead of landing on one metric.
pub fn end_to_end(config: &SyntheticConfig, seed: u64, budget: Duration) -> Result<Report, String> {
    let text = trace_text(config, seed);
    let clock = Stopwatch::start();
    let mut report = Report::default();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut sample =
        |name: &str, value: f64| samples.entry(name.to_string()).or_default().push(value);

    let mut current = setup(&text)?;
    report.check_setup(&current);
    for algo in Algo::ALL {
        let r = replay(&current, algo, None);
        report.check(&current, algo, &r);
    }
    // Read after the warm-up pass, which does every kind of work once, so
    // the peak does not depend on how many rounds fit in the budget.
    let peak_rss = peak_rss_mb()?;

    let mut rounds = 0;
    let mut last_round = Duration::ZERO;
    while rounds < MIN_ROUNDS || clock.elapsed() + last_round <= budget {
        rounds += 1;
        let round = Stopwatch::start();
        repeat_for(SLICE, || {
            let s = setup(&text)?;
            sample("setup_s", secs(s.total));
            report.check_setup(&s);
            current = s;
            Ok(())
        })?;
        let events = current.scenario.stream.len() as f64;
        for algo in Algo::ALL {
            repeat_for(SLICE, || {
                let r = replay(&current, algo, None);
                report.check(&current, algo, &r);
                if algo == Algo::Opt {
                    sample("opt.solve_s", secs(r.wall));
                } else {
                    sample(&format!("{}.eps", algo.key()), events / secs(r.wall));
                }
                Ok(())
            })?;
        }
        for (algo, p, name) in
            [(Algo::Greedy, 0.99, "greedy.p99_us"), (Algo::Gr, 0.999, "gr.p999_us")]
        {
            repeat_for(SLICE, || {
                let r = replay(&current, algo, Some(Record::Arrivals));
                report.check(&current, algo, &r);
                let arrivals = sorted(r.callbacks.expect("wrapped replay").arrival_ns);
                sample(name, percentile(&arrivals, p) as f64 / 1e3);
                Ok(())
            })?;
        }
        last_round = round.elapsed();
    }

    let mut summary = vec![format!("\"rounds\": {rounds}")];
    for (name, values) in &samples {
        let unit = match name.rsplit_once(['.', '_']).map(|(_, suffix)| suffix) {
            Some("eps") => "events/s",
            Some("us") => "us",
            _ => "s",
        };
        let (lo, hi) =
            values.iter().fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
        summary.push(format!(
            "\"{name}\": {{\"n\": {}, \"min\": {lo:?}, \"median\": {:?}, \"max\": {hi:?}}}",
            values.len(),
            median(values)
        ));
        report.metrics.set(name.clone(), median(values), unit);
    }
    report.metrics.set("peak_rss_mb", peak_rss, "MB");
    report.repetitions = summary.join(", ");
    Ok(report)
}

/// The per-layer metrics: setup phases, one traced replay per policy
/// (after untraced baseline replays sharing `budget`), the index, kernel
/// and flow probes, and the independent OPT cardinality check.
pub fn traced(config: &SyntheticConfig, seed: u64, budget: Duration) -> Result<Report, String> {
    let text = trace_text(config, seed);
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(TRACED_SETUPS);
    for _ in 0..TRACED_SETUPS {
        let s = setup(&text)?;
        report.check_setup(&s);
        setups.push(s);
    }
    let phase =
        |f: fn(&Setup) -> Duration| median(&setups.iter().map(|s| secs(f(s))).collect::<Vec<_>>());
    let (parse_s, derive_s, build_s) =
        (phase(|s| s.parse), phase(|s| s.derive), phase(|s| s.build));
    let current = setups.pop().expect("at least one setup");
    drop(setups);
    let m = &mut report.metrics;
    m.set("workload.parse_s", parse_s, "s");
    m.set("workload.parse_mb_s", text.len() as f64 / 1e6 / parse_s, "MB/s");
    m.set("prediction.derive_s", derive_s, "s");
    m.set("guide.build_s", build_s, "s");
    let guide = &current.guide;
    m.set("guide.worker_nodes", guide.num_worker_nodes() as f64, "count");
    m.set("guide.task_nodes", guide.num_task_nodes() as f64, "count");
    m.set("guide.matched", guide.matching_size() as f64, "count");

    let baseline_slice = budget / (2 * Algo::ALL.len() as u32);
    let mut baselines = Vec::new();
    let (mut opt_finish, mut opt_matched) = (0.0, 0);
    for algo in Algo::ALL {
        let mut untraced = Vec::new();
        repeat_for(baseline_slice, || {
            let r = replay(&current, algo, None);
            report.check(&current, algo, &r);
            untraced.push(secs(r.wall));
            Ok(())
        })?;
        baselines.push(format!("\"{}\": {}", algo.key(), untraced.len()));
        let r = replay(&current, algo, Some(Record::Everything));
        report.check(&current, algo, &r);
        let cb = r.callbacks.as_ref().expect("wrapped replay");
        let key = algo.key();
        let callbacks = cb.arrival + cb.expiry + cb.finish;
        let candidates = r.result.stats.candidates_examined;
        let samples = sorted(cb.arrival_ns.clone());
        let us = |p: f64| percentile(&samples, p) as f64 / 1e3;
        let m = &mut report.metrics;
        m.set(format!("{key}.arrival_s"), secs(cb.arrival), "s");
        m.set(format!("{key}.expiry_s"), secs(cb.expiry), "s");
        m.set(format!("{key}.finish_s"), secs(cb.finish), "s");
        m.set(format!("{key}.decide_p50_us"), us(0.5), "us");
        m.set(format!("{key}.decide_p99_us"), us(0.99), "us");
        m.set(format!("{key}.decide_p999_us"), us(0.999), "us");
        m.set(format!("{key}.decide_max_us"), us(1.0), "us");
        m.set(format!("{key}.decide_samples"), samples.len() as f64, "count");
        m.set(format!("{key}.matched"), r.result.matching_size() as f64, "count");
        m.set(format!("{key}.payoff"), r.result.total_payoff, "payoff");
        m.set(format!("{key}.memory_mb"), r.result.memory_mb(), "MB");
        m.set(format!("{key}.engine_self_s"), secs(r.wall.saturating_sub(callbacks)), "s");
        m.set(format!("{key}.candidates"), candidates as f64, "count");
        m.set(
            format!("{key}.candidates_per_event"),
            candidates as f64 / r.result.stats.events.max(1) as f64,
            "count/event",
        );
        let per_candidate =
            if candidates == 0 { 0.0 } else { secs(callbacks) * 1e9 / candidates as f64 };
        m.set(format!("{key}.ns_per_candidate"), per_candidate, "ns");
        m.set(format!("{key}.trace_overhead"), secs(r.wall) / median(&untraced), "ratio");
        if algo == Algo::Opt {
            opt_finish = secs(cb.finish);
            opt_matched = r.result.matching_size();
        }
    }

    let stream = &current.scenario.stream;
    let config = &current.scenario.config;
    let per = |d: Duration, n: u64| secs(d) * 1e9 / n.max(1) as f64;
    let ip = index_probe(config, stream);
    let kp = kernel_probe(config, stream, KERNEL_QUERIES);
    let graph = feasibility_graph(stream.workers(), stream.tasks(), config.velocity);
    let clock = Stopwatch::start();
    let matching = graph.max_matching();
    let max_matching_s = secs(clock.elapsed());

    let m = &mut report.metrics;
    m.set("index.insert_ns", per(ip.insert, ip.inserts), "ns");
    m.set("index.remove_ns", per(ip.remove, ip.removes), "ns");
    m.set("index.nearest_ns", per(ip.nearest, ip.queries), "ns");
    m.set("index.range_ns", per(ip.range, ip.queries), "ns");
    m.set("index.examined_per_query", ip.examined as f64 / (2 * ip.queries).max(1) as f64, "count");
    m.set("kernels.within_ns_per_lane", per(kp.within, kp.lanes), "ns");
    m.set("kernels.best_payoff_ns_per_lane", per(kp.best_payoff, kp.lanes), "ns");
    m.set("kernels.active", kernel_lanes(active_kernel()), "f64_lanes");
    m.set("flow.opt_edges", graph.num_edges() as f64, "count");
    m.set("flow.max_matching_s", max_matching_s, "s");
    m.set("opt.edge_build_s", opt_finish - max_matching_s, "s");
    report.record(
        "oracle",
        (matching.len() != opt_matched).then(|| {
            format!("independent OPT matches {} pairs, OPT {opt_matched}", matching.len())
        }),
    );
    report.repetitions =
        format!("\"setup\": {TRACED_SETUPS}, \"untraced\": {{{}}}", baselines.join(", "));
    Ok(report)
}

/// Width in f64 lanes of one vector of the given distance kernel.
fn kernel_lanes(kind: KernelKind) -> f64 {
    match kind {
        KernelKind::Scalar => 1.0,
        KernelKind::Avx2 => 4.0,
        KernelKind::Neon => 2.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
