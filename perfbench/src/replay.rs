//! Setup and single replays on the production path.

use crate::timing::{Record, Timed};
use ftoa_core::{
    AlgorithmResult, BatchGreedy, BatchHungarian, IndexBackend, Instance, OfflineGuide,
    OnlinePolicy, Opt, PolarOp, SimpleGreedy, SimulationEngine, Stopwatch,
};
use std::time::Duration;
use workload::{Scenario, TraceReader};

/// The policies the benchmark replays. BATCH-MF is left out: it runs the
/// same range queries and Hopcroft–Karp rounds as GR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// SimpleGreedy: nearest feasible neighbour on every arrival.
    Greedy,
    /// GR: windowed batches solved greedily.
    Gr,
    /// POLAR-OP: follows the offline guide, no index queries.
    PolarOp,
    /// BATCH-HUN: windowed batches solved by min-cost flow.
    BatchHun,
    /// The exact offline optimum.
    Opt,
}

impl Algo {
    /// Every replayed policy, in reporting order.
    pub const ALL: [Algo; 5] = [Algo::Greedy, Algo::Gr, Algo::PolarOp, Algo::BatchHun, Algo::Opt];

    /// The metric-name prefix.
    pub fn key(self) -> &'static str {
        match self {
            Algo::Greedy => "greedy",
            Algo::Gr => "gr",
            Algo::PolarOp => "polar_op",
            Algo::BatchHun => "batch_hun",
            Algo::Opt => "opt",
        }
    }

    /// Does the policy decide online (so `assigned_at` must lie in both
    /// validity windows)? OPT dates its offline matching at time zero.
    pub fn online(self) -> bool {
        self != Algo::Opt
    }

    /// A fresh policy with the suite's default settings.
    pub fn policy<'g>(
        self,
        instance: &Instance<'_>,
        guide: &'g OfflineGuide,
    ) -> Box<dyn OnlinePolicy + 'g> {
        match self {
            Algo::Greedy => Box::new(SimpleGreedy.policy()),
            Algo::Gr => Box::new(BatchGreedy::default().policy()),
            Algo::PolarOp => Box::new(PolarOp::default().policy(instance, guide)),
            Algo::BatchHun => Box::new(BatchHungarian::default().policy()),
            Algo::Opt => Box::new(Opt::exact().policy()),
        }
    }
}

/// Everything that happens before the first event, with its phase times.
pub struct Setup {
    /// The replayed scenario (predictions are the trace's realised counts).
    pub scenario: Scenario,
    /// The offline guide POLAR-OP follows.
    pub guide: OfflineGuide,
    /// `TraceReader::read_str`.
    pub parse: Duration,
    /// `Trace::into_scenario` (prediction derivation).
    pub derive: Duration,
    /// `OfflineGuide::build`.
    pub build: Duration,
    /// All of the above, timed as one span.
    pub total: Duration,
}

/// Parse `trace`, derive predictions and build the guide.
pub fn setup(trace: &str) -> Result<Setup, String> {
    let total = Stopwatch::start();
    let phase = Stopwatch::start();
    let parsed = TraceReader::read_str(trace).map_err(|e| e.to_string())?;
    let parse = phase.elapsed();
    let phase = Stopwatch::start();
    let scenario = parsed.into_scenario();
    let derive = phase.elapsed();
    let phase = Stopwatch::start();
    let guide = OfflineGuide::build(
        &scenario.config,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    );
    let build = phase.elapsed();
    Ok(Setup { scenario, guide, parse, derive, build, total: total.elapsed() })
}

/// The callback timings of a wrapped replay.
pub struct Callbacks {
    /// Per-arrival callback durations (ns), in stream order.
    pub arrival_ns: Vec<u64>,
    /// Total arrival-callback time.
    pub arrival: Duration,
    /// Total expiry-callback time (zero unless everything was recorded).
    pub expiry: Duration,
    /// Finish-callback time.
    pub finish: Duration,
}

/// One replay's output.
pub struct Replay {
    /// What the engine returned.
    pub result: AlgorithmResult,
    /// Wall time from policy construction to the engine's return.
    pub wall: Duration,
    /// Callback timings, when the policy was wrapped.
    pub callbacks: Option<Callbacks>,
}

/// Replay `algo` once over the setup's stream on the grid backend, wrapped
/// in a [`Timed`] forwarder when `record` is given.
pub fn replay(setup: &Setup, algo: Algo, record: Option<Record>) -> Replay {
    let s = &setup.scenario;
    let instance = Instance::new(&s.config, &s.stream, &s.predicted_workers, &s.predicted_tasks);
    let engine = SimulationEngine::new(IndexBackend::Grid);
    let clock = Stopwatch::start();
    let mut policy = algo.policy(&instance, &setup.guide);
    let Some(record) = record else {
        let result = engine.run(&instance, policy.as_mut());
        return Replay { result, wall: clock.elapsed(), callbacks: None };
    };
    let mut timed = Timed::new(policy.as_mut(), record, s.stream.len());
    let result = engine.run(&instance, &mut timed);
    let wall = clock.elapsed();
    let callbacks = Callbacks {
        arrival: timed.arrival(),
        expiry: timed.expiry,
        finish: timed.finish,
        arrival_ns: timed.arrival_ns,
    };
    Replay { result, wall, callbacks: Some(callbacks) }
}
