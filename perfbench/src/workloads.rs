//! The benchmark's workloads: generator parameters and trace rendering.
//!
//! Every workload is a `SyntheticConfig`; the seed is the only input the
//! benchmark varies between runs. The reasons each one exists are in
//! `rationale.json` next to the package manifest.

use workload::{SyntheticConfig, TraceWriter};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 4 defaults: 20k workers + 20k tasks, unit weights.
    PaperDefault,
    /// 8k + 8k on a 20×20 region, payoffs uniform on 1–5, capacity 1–3.
    DowntownWeighted,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::PaperDefault, Workload::DowntownWeighted];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDefault => "paper-default",
            Workload::DowntownWeighted => "downtown-weighted",
        }
    }

    /// Look a workload up by its name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator parameters.
    pub fn config(self) -> SyntheticConfig {
        match self {
            Workload::PaperDefault => SyntheticConfig::default(),
            Workload::DowntownWeighted => SyntheticConfig {
                num_workers: 8_000,
                num_tasks: 8_000,
                grid_n: 20,
                region_side: 20.0,
                task_payoff: Some((1.0, 5.0)),
                worker_capacity: Some((1, 3)),
                ..SyntheticConfig::default()
            },
        }
    }
}

/// Generate `config` with `seed` and render it as an `ftoa-trace v2`
/// document: the only form in which the replayed program sees the input.
pub fn trace_text(config: &SyntheticConfig, seed: u64) -> String {
    let scenario = config.generate(seed);
    TraceWriter::to_string(&scenario.config, &scenario.stream)
}
