//! An independent OPT cardinality: the Definition-4 feasibility graph
//! built straight from the stream and solved with
//! `flow::BipartiteGraph::max_matching`.
//!
//! OPT itself enumerates each worker's feasible tasks through the engine's
//! spatial index; this builds the same edge set from the arrival times
//! instead (a binary search over tasks sorted by release bounds each
//! worker's window), so the two share only the definition.

use flow::BipartiteGraph;
use ftoa_types::{Task, Worker};

/// Build the feasibility graph: an edge `(w, r)` for every pair with
/// `S_r < S_w + D_w` and `S_w + d(L_w, L_r)/v ≤ S_r + D_r`.
pub fn feasibility_graph(workers: &[Worker], tasks: &[Task], velocity: f64) -> BipartiteGraph {
    let mut by_release: Vec<usize> = (0..tasks.len()).collect();
    by_release.sort_by(|&a, &b| tasks[a].release.0.total_cmp(&tasks[b].release.0));
    let releases: Vec<f64> = by_release.iter().map(|&t| tasks[t].release.0).collect();
    let max_patience = tasks.iter().map(|t| t.patience.0).fold(0.0, f64::max);

    let mut graph = BipartiteGraph::new(workers.len(), tasks.len());
    for (wi, w) in workers.iter().enumerate() {
        let (s_w, leave) = (w.start.0, w.start.0 + w.wait.0);
        // S_w ≤ S_w + d/v ≤ S_r + D_r, so no feasible task is released
        // before S_w - max D_r.
        let lo = releases.partition_point(|&s| s < s_w - max_patience);
        let hi = releases.partition_point(|&s| s < leave);
        for &ti in &by_release[lo..hi] {
            let r = &tasks[ti];
            let (dx, dy) = (w.location.x - r.location.x, w.location.y - r.location.y);
            if s_w + (dx * dx + dy * dy).sqrt() / velocity <= r.release.0 + r.patience.0 {
                graph.add_edge(wi, ti);
            }
        }
    }
    graph
}
