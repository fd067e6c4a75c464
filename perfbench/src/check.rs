//! Independent verification of a policy's output.
//!
//! Every rule is written from the problem definition (Definitions 1–4 of
//! the paper plus the weighted model's capacity and payoff), reading only
//! the raw fields of workers and tasks. Nothing here calls the policies,
//! the engine or the feasibility helpers on `Worker`/`Task`, so a bug
//! there cannot hide itself.

use ftoa_types::{Assignment, Task, Worker};

/// Slack for float comparisons of times (minutes) and payoff sums: the
/// verifier recomputes distances with its own arithmetic, which may round
/// differently from the engine's in the last place.
const EPS: f64 = 1e-9;

/// Check one policy's assignments against the problem definition.
///
/// * each task is assigned at most once;
/// * each worker serves at most `capacity` tasks;
/// * the task appears before the worker leaves: `S_r < S_w + D_w`;
/// * the worker can reach the task in time: `S_w + d/v ≤ S_r + D_r`;
/// * for online policies (`online`), `assigned_at` lies in both validity
///   windows `[S_w, S_w + D_w]` and `[S_r, S_r + D_r]`;
/// * the re-summed payoff of the assigned tasks equals `total_payoff`.
///
/// Returns the first rule broken, as a message naming the pair.
pub fn verify(
    workers: &[Worker],
    tasks: &[Task],
    velocity: f64,
    pairs: &[Assignment],
    total_payoff: f64,
    online: bool,
) -> Result<(), String> {
    let mut task_taken = vec![false; tasks.len()];
    let mut load = vec![0u32; workers.len()];
    let mut payoff = 0.0;
    for a in pairs {
        let (wi, ti) = (a.worker.0, a.task.0);
        let w = workers.get(wi).ok_or_else(|| format!("worker {wi} does not exist"))?;
        let r = tasks.get(ti).ok_or_else(|| format!("task {ti} does not exist"))?;
        if std::mem::replace(&mut task_taken[ti], true) {
            return Err(format!("task {ti} is assigned more than once"));
        }
        load[wi] += 1;
        if load[wi] > w.capacity {
            return Err(format!("worker {wi} serves more than its capacity {}", w.capacity));
        }
        let (s_w, d_w) = (w.start.0, w.wait.0);
        let (s_r, d_r) = (r.release.0, r.patience.0);
        if s_r >= s_w + d_w {
            return Err(format!(
                "task {ti} appears at {s_r} after worker {wi} left at {}",
                s_w + d_w
            ));
        }
        let (dx, dy) = (w.location.x - r.location.x, w.location.y - r.location.y);
        let travel = (dx * dx + dy * dy).sqrt() / velocity;
        if s_w + travel > s_r + d_r + EPS {
            return Err(format!(
                "worker {wi} cannot reach task {ti}: arrives at {} after its deadline {}",
                s_w + travel,
                s_r + d_r
            ));
        }
        if online {
            let at = a.assigned_at.0;
            let within = |start: f64, len: f64| start - EPS <= at && at <= start + len + EPS;
            if !(within(s_w, d_w) && within(s_r, d_r)) {
                return Err(format!(
                    "pair ({wi}, {ti}) assigned at {at}, outside [{s_w}, {}] or [{s_r}, {}]",
                    s_w + d_w,
                    s_r + d_r
                ));
            }
        }
        payoff += r.payoff;
    }
    if (payoff - total_payoff).abs() > EPS * payoff.abs().max(1.0) {
        return Err(format!("re-summed payoff {payoff} differs from the reported {total_payoff}"));
    }
    Ok(())
}

/// An order-sensitive FNV-1a digest of an assignment list: equal digests
/// across repetitions show that a replay is deterministic.
pub fn digest(pairs: &[Assignment]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in pairs {
        for word in [a.worker.0 as u64, a.task.0 as u64, a.assigned_at.0.to_bits()] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}
