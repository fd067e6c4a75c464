//! Index and kernel probes on a workload's own points.
//!
//! Both drive only public APIs: `ItemArena` + `GridCandidateIndex` through
//! the `CandidateIndex` trait, and the dispatching kernel entry points
//! `for_each_within_sq` / `best_payoff_within_sq`. Operations of one kind
//! that follow each other in the stream are timed as one batch, so the
//! clock's own cost is spread over the batch instead of added to every
//! operation.

use ftoa_core::engine::kernels::{best_payoff_within_sq, for_each_within_sq};
use ftoa_core::{CandidateIndex, GridCandidateIndex, ItemArena, Stopwatch};
use ftoa_types::{Event, EventStream, Location, PoolHandle, ProblemConfig, Worker};
use std::hint::black_box;
use std::time::Duration;

/// What the index probe measured.
#[derive(Debug, Clone, Default)]
pub struct IndexProbe {
    /// Index insertions (one per worker).
    pub inserts: u64,
    /// Index removals (one per worker whose deadline passed in-stream).
    pub removes: u64,
    /// Tasks queried (one nearest and one range query each).
    pub queries: u64,
    /// Time in `CandidateIndex::insert`.
    pub insert: Duration,
    /// Time in `CandidateIndex::remove`.
    pub remove: Duration,
    /// Time in `CandidateIndex::nearest_within`.
    pub nearest: Duration,
    /// Time in `CandidateIndex::for_each_within`.
    pub range: Duration,
    /// Entries the index reports examining over all queries.
    pub examined: u64,
    /// Workers the range queries returned, summed (a checksum).
    pub found: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert,
    Remove,
    Query,
}

/// Replay the stream's workers through an arena + grid index: insert at
/// arrival, remove once the deadline has passed, and for every task run
/// one nearest and one range query over the task's reachable disk.
pub fn index_probe(config: &ProblemConfig, stream: &EventStream) -> IndexProbe {
    let workers = stream.workers();
    let tasks = stream.tasks();
    let mut by_deadline: Vec<usize> = (0..workers.len()).collect();
    by_deadline.sort_by(|&a, &b| deadline(&workers[a]).total_cmp(&deadline(&workers[b])));
    // (operation, worker or task index) in stream order.
    let mut ops: Vec<(Op, usize)> = Vec::with_capacity(2 * workers.len() + tasks.len());
    let mut next_expiry = 0;
    for event in stream.iter() {
        let now = event.time().0;
        while next_expiry < by_deadline.len() && deadline(&workers[by_deadline[next_expiry]]) < now
        {
            ops.push((Op::Remove, by_deadline[next_expiry]));
            next_expiry += 1;
        }
        ops.push(match event {
            Event::WorkerArrival(w) => (Op::Insert, w.id.0),
            Event::TaskArrival(r) => (Op::Query, r.id.0),
        });
    }

    let mut arena: ItemArena<Worker> = ItemArena::with_capacity(workers.len());
    let mut index: GridCandidateIndex<Worker> = GridCandidateIndex::for_config(config);
    let mut handles: Vec<Option<PoolHandle>> = vec![None; workers.len()];
    let mut probe = IndexProbe::default();
    for run in ops.chunk_by(|a, b| a.0 == b.0) {
        let items = run.iter().map(|&(_, i)| i);
        match run[0].0 {
            Op::Insert => {
                let fresh: Vec<PoolHandle> =
                    items.map(|w| *handles[w].insert(arena.insert(workers[w]))).collect();
                let clock = Stopwatch::start();
                for &handle in &fresh {
                    index.insert(&arena, handle);
                }
                probe.insert += clock.elapsed();
                probe.inserts += fresh.len() as u64;
            }
            Op::Remove => {
                let gone: Vec<PoolHandle> = items
                    .map(|w| handles[w].take().expect("a worker expires after it arrived"))
                    .collect();
                let clock = Stopwatch::start();
                for &handle in &gone {
                    index.remove(&arena, handle);
                }
                probe.remove += clock.elapsed();
                for &handle in &gone {
                    arena.remove(handle);
                }
                probe.removes += gone.len() as u64;
            }
            Op::Query => {
                let queried: Vec<(Location, f64)> = items
                    .map(|t| (tasks[t].location, config.velocity * tasks[t].patience.0))
                    .collect();
                let clock = Stopwatch::start();
                for (at, radius) in &queried {
                    black_box(index.nearest_within(&arena, at, *radius, &mut |_| true));
                }
                probe.nearest += clock.elapsed();
                let clock = Stopwatch::start();
                for (at, radius) in &queried {
                    index.for_each_within(&arena, at, *radius, &mut |_, _| probe.found += 1);
                }
                probe.range += clock.elapsed();
                probe.queries += queried.len() as u64;
            }
        }
    }
    probe.examined = index.candidates_examined();
    probe
}

fn deadline(w: &Worker) -> f64 {
    w.start.0 + w.wait.0
}

/// What the kernel probe measured.
#[derive(Debug, Clone, Default)]
pub struct KernelProbe {
    /// Coordinates compared (queries × points), per kernel op.
    pub lanes: u64,
    /// Time in `for_each_within_sq`.
    pub within: Duration,
    /// Time in `best_payoff_within_sq`.
    pub best_payoff: Duration,
    /// Points inside the radius over all queries (a checksum).
    pub hits: u64,
}

/// Sweep the task coordinates (and payoffs) with each of up to
/// `max_queries` workers' reachable disks as the query.
pub fn kernel_probe(
    config: &ProblemConfig,
    stream: &EventStream,
    max_queries: usize,
) -> KernelProbe {
    let tasks = stream.tasks();
    let xs: Vec<f64> = tasks.iter().map(|r| r.location.x).collect();
    let ys: Vec<f64> = tasks.iter().map(|r| r.location.y).collect();
    let payoffs: Vec<f64> = tasks.iter().map(|r| r.payoff).collect();
    let max_patience = stream.max_task_patience();
    let queries: Vec<(f64, f64, f64)> = stream
        .workers()
        .iter()
        .take(max_queries)
        .map(|w| {
            let r = w.reach_radius(max_patience, config.velocity);
            (w.location.x, w.location.y, r * r)
        })
        .collect();
    let mut probe = KernelProbe { lanes: (queries.len() * xs.len()) as u64, ..Default::default() };
    let clock = Stopwatch::start();
    for &(qx, qy, r2) in &queries {
        for_each_within_sq(&xs, &ys, qx, qy, r2, &mut |_, _| probe.hits += 1);
    }
    probe.within = clock.elapsed();
    let clock = Stopwatch::start();
    for &(qx, qy, r2) in &queries {
        black_box(best_payoff_within_sq(&xs, &ys, &payoffs, qx, qy, r2, &mut |_| true));
    }
    probe.best_payoff = clock.elapsed();
    probe
}
