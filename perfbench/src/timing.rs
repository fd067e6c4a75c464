//! A forwarding `OnlinePolicy` that times the calls into a wrapped policy.
//!
//! The engine hands every callback to the wrapper, which forwards it
//! unchanged (including `expiry_cutoff`, which batch and offline policies
//! depend on) and reads the sanctioned engine clock around it. Arrival
//! latencies go into a buffer sized for the whole stream before the run
//! starts, so recording never allocates mid-replay.

use ftoa_core::{EngineContext, OnlinePolicy, Stopwatch};
use ftoa_types::{Task, TimeStamp, Worker};
use std::time::Duration;

/// What the wrapper records besides per-arrival latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Only arrival-callback durations: the latency repetitions.
    Arrivals,
    /// Arrivals plus total expiry and finish time: the traced run.
    Everything,
}

/// Times the callbacks of the policy it wraps.
pub struct Timed<'p> {
    inner: &'p mut dyn OnlinePolicy,
    record: Record,
    /// Duration of every arrival callback, in nanoseconds, in stream order.
    pub arrival_ns: Vec<u64>,
    /// Total time in expiry callbacks (traced runs only).
    pub expiry: Duration,
    /// Time in the finish callback.
    pub finish: Duration,
}

impl<'p> Timed<'p> {
    /// Wrap `inner`, reserving room for `arrivals` latency samples.
    pub fn new(inner: &'p mut dyn OnlinePolicy, record: Record, arrivals: usize) -> Self {
        Self {
            inner,
            record,
            arrival_ns: Vec::with_capacity(arrivals),
            expiry: Duration::ZERO,
            finish: Duration::ZERO,
        }
    }

    /// Total time in arrival callbacks.
    pub fn arrival(&self) -> Duration {
        Duration::from_nanos(self.arrival_ns.iter().sum())
    }
}

impl OnlinePolicy for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, worker: &Worker) {
        let clock = Stopwatch::start();
        self.inner.on_worker_arrival(ctx, worker);
        self.arrival_ns.push(clock.elapsed().as_nanos() as u64);
    }

    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, task: &Task) {
        let clock = Stopwatch::start();
        self.inner.on_task_arrival(ctx, task);
        self.arrival_ns.push(clock.elapsed().as_nanos() as u64);
    }

    fn on_worker_expiry(&mut self, ctx: &mut EngineContext<'_>, worker: &Worker) {
        if self.record == Record::Arrivals {
            return self.inner.on_worker_expiry(ctx, worker);
        }
        let clock = Stopwatch::start();
        self.inner.on_worker_expiry(ctx, worker);
        self.expiry += clock.elapsed();
    }

    fn on_task_expiry(&mut self, ctx: &mut EngineContext<'_>, task: &Task) {
        if self.record == Record::Arrivals {
            return self.inner.on_task_expiry(ctx, task);
        }
        let clock = Stopwatch::start();
        self.inner.on_task_expiry(ctx, task);
        self.expiry += clock.elapsed();
    }

    fn on_finish(&mut self, ctx: &mut EngineContext<'_>) {
        let clock = Stopwatch::start();
        self.inner.on_finish(ctx);
        self.finish = clock.elapsed();
    }

    fn expiry_cutoff(&self, now: TimeStamp) -> TimeStamp {
        self.inner.expiry_cutoff(now)
    }
}
