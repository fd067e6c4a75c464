//! Replay benchmark for the FTOA workspace.
//!
//! Each workload is generated from a seed, written as an `ftoa-trace v2`
//! string and replayed through the production path: `TraceReader` →
//! `Trace::into_scenario` → `OfflineGuide::build` →
//! `SimulationEngine::new(IndexBackend::Grid)`, single-threaded, with the
//! auto-selected distance kernel. The binary (`src/main.rs`) measures the
//! end-to-end metrics with tracing off, or the per-layer metrics in a
//! separate traced run; this library holds everything it measures with:
//!
//! * [`bench`](mod@bench) — the two kinds of run and their checks;
//! * [`workloads`] — the generator parameters of each workload;
//! * [`replay`] — setup and one policy replay on the production path;
//! * [`timing`] — a forwarding `OnlinePolicy` that times the callbacks;
//! * [`check`] — an assignment verifier written from the problem
//!   definition, sharing no code with the policies or the engine;
//! * [`oracle`] — the Definition-4 feasibility graph built straight from
//!   the stream, for an independent OPT cardinality;
//! * [`probe`] — index and kernel probes through their public APIs;
//! * [`stats`] — medians, percentiles and the result rendering.

pub mod bench;
pub mod check;
pub mod oracle;
pub mod probe;
pub mod replay;
pub mod stats;
pub mod timing;
pub mod workloads;
