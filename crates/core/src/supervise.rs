//! Supervised sweeps: panic-isolated grid points, retry + quarantine,
//! wall-clock deadlines, and cooperative cancellation.
//!
//! [`SweepRunner::map`](crate::runner::SweepRunner::map) executes grid
//! points in parallel but still *propagates* failures — the right
//! behaviour for benches, where a broken point means the bench is
//! broken. Long sweeps over possibly-broken algorithms (the lint
//! matrix, chaos-injection CI) instead go through
//! [`SweepRunner::map_supervised`]: every grid point runs under
//! `catch_unwind`, a failed point is retried once and then quarantined
//! as [`PointStatus::Failed`] with the error text, and the sweep always
//! completes every healthy point. A shared [`CancelToken`] — optionally
//! armed by a wall-clock deadline ([`SuperviseOpts::deadline`]) — aborts
//! the remainder of the sweep cleanly: in-flight simulations exit at
//! their next scheduling step, unstarted points come back
//! [`PointStatus::Skipped`] so a checkpoint/resume cycle re-runs them.
//!
//! The module also hosts the chaos-injection fixtures ([`ChaosPanic`],
//! [`ChaosDeadlock`]) that CI uses to prove the supervision plane works:
//! deliberately broken algorithms a supervised sweep must survive and
//! report, not die from.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use mpp_runtime::{CancelToken, CommFuture, Communicator, SimBudget, SimError};

use crate::algorithms::{StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;
use crate::runner::SweepRunner;

/// Supervision policy for one sweep.
#[derive(Debug, Clone)]
pub struct SuperviseOpts {
    /// Re-runs granted to a failed point before it is quarantined.
    /// Deterministic simulations fail deterministically, so this guards
    /// against *host* flakiness (OOM kills, thread-spawn failures), not
    /// algorithm bugs. Default 1.
    pub retries: usize,
    /// Wall-clock budget for the whole sweep; on expiry the shared
    /// token is cancelled and the remaining points are skipped.
    pub deadline: Option<Duration>,
    /// The shared cancellation token. Cancel it from a signal handler
    /// or another thread to stop the sweep at the next point boundary.
    pub cancel: CancelToken,
    /// Per-run watchdog budget threaded into every grid point's
    /// simulation (livelock containment).
    pub budget: SimBudget,
}

impl Default for SuperviseOpts {
    fn default() -> Self {
        SuperviseOpts {
            retries: 1,
            deadline: None,
            cancel: CancelToken::new(),
            budget: SimBudget::default(),
        }
    }
}

impl SuperviseOpts {
    /// Override the whole-sweep deadline.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Override the retry count.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Override the per-run watchdog budget.
    pub fn with_budget(mut self, budget: SimBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// How one supervised grid point ended.
#[derive(Debug)]
pub enum PointStatus<T> {
    /// The point completed; its result.
    Done(T),
    /// The point failed every attempt and was quarantined.
    Failed {
        /// Attempts consumed (1 + retries).
        attempts: usize,
        /// The final attempt's error or panic message.
        error: String,
    },
    /// The point was not run (or was cancelled mid-run) because the
    /// sweep was cancelled or hit its deadline. A checkpoint/resume
    /// cycle re-runs skipped points.
    Skipped,
}

impl<T> PointStatus<T> {
    /// True for [`PointStatus::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, PointStatus::Done(_))
    }

    /// The result, if the point completed.
    pub fn as_done(&self) -> Option<&T> {
        match self {
            PointStatus::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Consume into the result, if the point completed.
    pub fn into_done(self) -> Option<T> {
        match self {
            PointStatus::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// `(done, failed, skipped)` counts over a finished supervised sweep.
pub fn tally<T>(statuses: &[PointStatus<T>]) -> (usize, usize, usize) {
    let done = statuses.iter().filter(|s| s.is_done()).count();
    let failed = statuses
        .iter()
        .filter(|s| matches!(s, PointStatus::Failed { .. }))
        .count();
    (done, failed, statuses.len() - done - failed)
}

/// Arms a background timer that cancels `token` after `after`, unless
/// dropped first (sweep finished under budget).
struct DeadlineGuard {
    stop_tx: mpsc::Sender<()>,
    timer: Option<JoinHandle<()>>,
}

impl DeadlineGuard {
    fn arm(after: Duration, token: CancelToken) -> Self {
        let (stop_tx, stop_rx) = mpsc::channel();
        let timer = std::thread::spawn(move || {
            if stop_rx.recv_timeout(after) == Err(RecvTimeoutError::Timeout) {
                token.cancel();
            }
        });
        DeadlineGuard {
            stop_tx,
            timer: Some(timer),
        }
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        let _ = self.stop_tx.send(());
        if let Some(timer) = self.timer.take() {
            let _ = timer.join();
        }
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one point under the supervision policy: panic containment,
/// retry-once, cancellation awareness.
fn supervise_point<I, T>(
    item: &I,
    job: &(dyn Fn(&I) -> Result<T, SimError> + Sync),
    opts: &SuperviseOpts,
) -> PointStatus<T> {
    if opts.cancel.is_cancelled() {
        return PointStatus::Skipped;
    }
    let attempts = opts.retries + 1;
    let mut error = String::new();
    for _ in 0..attempts {
        match catch_unwind(AssertUnwindSafe(|| job(item))) {
            Ok(Ok(v)) => return PointStatus::Done(v),
            // The run was stopped by the sweep-level token, not by its
            // own bug: the point is unfinished work, not a failure.
            Ok(Err(SimError::Cancelled)) => return PointStatus::Skipped,
            Ok(Err(e)) => error = e.to_string(),
            Err(payload) => error = panic_message(payload),
        }
        if opts.cancel.is_cancelled() {
            return PointStatus::Skipped;
        }
    }
    PointStatus::Failed { attempts, error }
}

impl SweepRunner {
    /// [`map`](SweepRunner::map) under a supervision policy: each grid
    /// point runs under `catch_unwind`, failures are retried
    /// (`opts.retries`) and then quarantined as
    /// [`PointStatus::Failed`], and the shared token / deadline skips
    /// the remainder of the sweep on cancellation. Statuses come back
    /// in input order; `observe(index, &status)` fires as each point
    /// settles (checkpoint writers hook in here — it may be called
    /// concurrently from several workers).
    pub fn map_supervised<I, T, F, O>(
        &self,
        items: Vec<I>,
        job: F,
        opts: &SuperviseOpts,
        observe: O,
    ) -> Vec<PointStatus<T>>
    where
        I: Send + Sync,
        T: Send,
        F: Fn(&I) -> Result<T, SimError> + Sync,
        O: Fn(usize, &PointStatus<T>) + Sync,
    {
        let _deadline = opts
            .deadline
            .map(|after| DeadlineGuard::arm(after, opts.cancel.clone()));
        let indexed: Vec<(usize, I)> = items.into_iter().enumerate().collect();
        self.map(indexed, |(index, item)| {
            let status = supervise_point(&item, &job, opts);
            observe(index, &status);
            status
        })
    }
}

// ---------------------------------------------------------------------------
// Chaos-injection fixtures
// ---------------------------------------------------------------------------

/// Panic message planted by [`ChaosPanic`] — panic-hook filters and the
/// failure-report assertions match on this text.
pub const CHAOS_PANIC_MSG: &str = "deliberate chaos panic";

/// A deliberately panicking algorithm: the highest rank panics before
/// communicating. A supervised sweep must quarantine this point as
/// [`PointStatus::Failed`] (kind `rank_panic`) and keep going.
pub struct ChaosPanic;

impl StpAlgorithm for ChaosPanic {
    fn name(&self) -> &'static str {
        "chaos:panic"
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        _ctx: &'a StpCtx<'a>,
    ) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            if comm.rank() == comm.size() - 1 {
                panic!("{CHAOS_PANIC_MSG} on rank {}", comm.rank());
            }
            MessageSet::new()
        })
    }
}

/// A deliberately deadlocking algorithm: ring forwarding with an
/// off-by-one receive partner, so every rank blocks on a message nobody
/// sends. The kernel detects the full-machine deadlock instantly and a
/// supervised sweep quarantines the point (kind `deadlock`).
pub struct ChaosDeadlock;

impl StpAlgorithm for ChaosDeadlock {
    fn name(&self) -> &'static str {
        "chaos:deadlock"
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        _ctx: &'a StpCtx<'a>,
    ) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let (me, p) = (comm.rank(), comm.size());
            comm.send((me + 1) % p, 9_900, &[me as u8]);
            let _ = comm.recv(Some((me + 2) % p), Some(9_900)).await;
            MessageSet::new()
        })
    }
}

/// Constructor for a chaos fixture algorithm.
pub type ChaosBuilder = fn() -> Box<dyn StpAlgorithm>;

/// The chaos fixtures by stable name, for `--chaos` flags and tests.
pub fn chaos_algorithms() -> Vec<(&'static str, ChaosBuilder)> {
    vec![
        ("chaos:panic", || Box::new(ChaosPanic)),
        ("chaos:deadlock", || Box::new(ChaosDeadlock)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn healthy_points_all_complete() {
        let observed = Mutex::new(Vec::new());
        let statuses = SweepRunner::sequential().with_workers(4).map_supervised(
            (0..12usize).collect(),
            |&i| Ok(i * 3),
            &SuperviseOpts::default(),
            |index, status: &PointStatus<usize>| {
                observed.lock().unwrap().push((index, status.is_done()));
            },
        );
        let (done, failed, skipped) = tally(&statuses);
        assert_eq!((done, failed, skipped), (12, 0, 0));
        for (i, s) in statuses.iter().enumerate() {
            assert_eq!(s.as_done(), Some(&(i * 3)));
        }
        let mut observed = observed.into_inner().unwrap();
        observed.sort();
        assert_eq!(
            observed,
            (0..12).map(|i| (i, true)).collect::<Vec<_>>(),
            "observer fires exactly once per point"
        );
    }

    #[test]
    fn failed_points_are_retried_then_quarantined() {
        crate::runner::tests_hush_deliberate_panics();
        let attempts_on_3 = AtomicUsize::new(0);
        let statuses = SweepRunner::sequential().with_workers(3).map_supervised(
            (0..8usize).collect(),
            |&i| {
                if i == 3 {
                    attempts_on_3.fetch_add(1, Ordering::Relaxed);
                    panic!("deliberate test panic in point {i}");
                }
                if i == 5 {
                    return Err(SimError::RankPanic {
                        rank: 0,
                        message: "synthetic".into(),
                    });
                }
                Ok(i)
            },
            &SuperviseOpts::default(),
            |_, _| {},
        );
        let (done, failed, skipped) = tally(&statuses);
        assert_eq!((done, failed, skipped), (6, 2, 0));
        assert_eq!(attempts_on_3.load(Ordering::Relaxed), 2, "retried once");
        match &statuses[3] {
            PointStatus::Failed { attempts, error } => {
                assert_eq!(*attempts, 2);
                assert!(error.contains("point 3"), "got {error:?}");
            }
            other => panic!("point 3 should be Failed, got {other:?}"),
        }
        match &statuses[5] {
            PointStatus::Failed { error, .. } => {
                assert!(error.contains("rank 0"), "got {error:?}")
            }
            other => panic!("point 5 should be Failed, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_sweep_skips_everything() {
        let opts = SuperviseOpts::default();
        opts.cancel.cancel();
        let ran = AtomicUsize::new(0);
        let statuses = SweepRunner::sequential().with_workers(4).map_supervised(
            (0..6usize).collect(),
            |&i| {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(i)
            },
            &opts,
            |_, _| {},
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(tally(&statuses), (0, 0, 6));
    }

    #[test]
    fn a_cancelled_run_is_skipped_not_failed() {
        let statuses = SweepRunner::sequential().map_supervised(
            vec![0usize],
            |_| Err::<usize, _>(SimError::Cancelled),
            &SuperviseOpts::default(),
            |_, _| {},
        );
        assert!(matches!(statuses[0], PointStatus::Skipped));
    }

    #[test]
    fn deadline_guard_fires_and_disarms() {
        // Fires: a zero deadline cancels the token almost immediately.
        let token = CancelToken::new();
        let guard = DeadlineGuard::arm(Duration::ZERO, token.clone());
        let t0 = std::time::Instant::now();
        while !token.is_cancelled() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "deadline never fired"
            );
            std::thread::yield_now();
        }
        drop(guard);
        // Disarms: dropping the guard before expiry never cancels.
        let token = CancelToken::new();
        drop(DeadlineGuard::arm(Duration::from_secs(3600), token.clone()));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn chaos_fixtures_fail_with_the_right_error_kinds() {
        use crate::runner::{try_run_alg_controlled, RunControl};
        use mpp_model::{LibraryKind, Machine};
        use mpp_runtime::ExecMode;
        crate::runner::tests_hush_deliberate_panics();
        let machine = Machine::paragon(4, 4);
        let sources = vec![0usize, 5];
        let payload_of = |src: usize| vec![src as u8; 16];
        for exec in [ExecMode::Cooperative, ExecMode::Threaded] {
            let control = RunControl {
                exec: Some(exec),
                ..RunControl::default()
            };
            let err = try_run_alg_controlled(
                &machine,
                LibraryKind::Nx,
                &sources,
                &payload_of,
                &ChaosPanic,
                &control,
            )
            .expect_err("chaos:panic must fail");
            assert_eq!(err.kind(), "rank_panic", "{exec:?}: {err}");
            assert!(err.to_string().contains(CHAOS_PANIC_MSG), "{exec:?}: {err}");

            let err = try_run_alg_controlled(
                &machine,
                LibraryKind::Nx,
                &sources,
                &payload_of,
                &ChaosDeadlock,
                &control,
            )
            .expect_err("chaos:deadlock must fail");
            assert_eq!(err.kind(), "deadlock", "{exec:?}: {err}");
        }
    }
}
