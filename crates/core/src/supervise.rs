//! Supervised sweeps: panic-isolated grid points, retry + quarantine,
//! wall-clock deadlines, and cooperative cancellation.
//!
//! [`SweepRunner::map`](crate::runner::SweepRunner::map) executes grid
//! points in parallel but still *propagates* failures — the right
//! behaviour for figures, where a broken point means the figure is
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
//! [`SweepRunner::run_resumable`] puts a checkpoint in front of that:
//! each distinct experiment among the points is simulated once and
//! every point's record rendered from it, finished points are persisted
//! as they settle and replayed verbatim on resume, and the statuses come
//! back triaged into a [`SupervisedRun`]. It is the one resume loop behind `stp sweep` and
//! `stp lint`, which both run the acceptance matrix defined here
//! ([`matrix_shapes`], [`matrix_points`]).
//!
//! The module also hosts the chaos-injection fixtures ([`ChaosPanic`],
//! [`ChaosDeadlock`]) that CI uses to prove the supervision plane works:
//! deliberately broken algorithms a supervised sweep must survive and
//! report, not die from.

use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use mpp_model::{LibraryKind, Machine, MeshShape};
use mpp_runtime::{CancelToken, CommFuture, Communicator, SimBudget, SimError};

use crate::algorithms::{StpAlgorithm, StpCtx};
use crate::checkpoint::{json_escape, CheckpointFile};
use crate::distribution::SourceDist;
use crate::msgset::MessageSet;
use crate::runner::{AlgoKind, SweepRunner};

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
// Resumable supervised runs
// ---------------------------------------------------------------------------

/// A grid point quarantined by a supervised run.
#[derive(Debug)]
pub struct PointFailure {
    /// Stable point id (`algo/dist/RxC/sN` on the acceptance matrix).
    pub id: String,
    /// Attempts consumed before quarantine.
    pub attempts: usize,
    /// The final attempt's error text.
    pub error: String,
}

/// Everything a resumable supervised run produced.
#[derive(Debug)]
pub struct SupervisedRun<T> {
    /// Results of the completed points (replayed + freshly run), in grid
    /// order.
    pub done: Vec<T>,
    /// Quarantined points, in grid order.
    pub failures: Vec<PointFailure>,
    /// Ids of the points skipped by cancellation or the deadline.
    pub skipped: Vec<String>,
    /// Points replayed from the checkpoint instead of re-run.
    pub resumed: usize,
    /// Distinct experiments among the points that were not replayed:
    /// how many simulations the run dispatched.
    pub experiments: usize,
    /// Total grid points.
    pub total: usize,
}

impl<T> SupervisedRun<T> {
    /// The members every JSON report of a run opens with:
    /// `"points":N,"failures":[..],"skipped":[..]`. Deliberately no
    /// wall-clock and no `resumed` count — an interrupted-and-resumed
    /// run must report byte-identically to an uninterrupted one.
    pub fn summary_json(&self) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"id\":\"{}\",\"attempts\":{},\"error\":\"{}\"}}",
                    json_escape(&f.id),
                    f.attempts,
                    json_escape(&f.error)
                )
            })
            .collect();
        let skipped: Vec<String> = self
            .skipped
            .iter()
            .map(|id| format!("\"{}\"", json_escape(id)))
            .collect();
        format!(
            "\"points\":{},\"failures\":[{}],\"skipped\":[{}]",
            self.total,
            failures.join(","),
            skipped.join(",")
        )
    }
}

impl SweepRunner {
    /// [`map_supervised`](SweepRunner::map_supervised) behind a
    /// checkpoint, simulating each distinct experiment once. A point
    /// whose id (`ids[i]` names `points[i]`) has a record in `checkpoint`
    /// that `decode`s is replayed and never re-run; a record that does
    /// not decode costs a warning and a re-run.
    ///
    /// The other points are grouped by `key` — two points with equal
    /// keys must be the same experiment under different labels. Each
    /// group's first point in grid order is `simulate`d under `opts`, and
    /// every member's record is `render`ed from that one outcome; a
    /// failed or skipped experiment fails or skips every member alike. A
    /// group that completes is `encode`d into the checkpoint in one
    /// journal append as it settles, so a killed run resumes with only
    /// unfinished work; the store is compacted once the sweep is over.
    /// The outcome is in grid order whatever the completion order was.
    #[allow(clippy::too_many_arguments)]
    pub fn run_resumable<I, K, E, T>(
        &self,
        points: Vec<I>,
        ids: Vec<String>,
        checkpoint: Option<&CheckpointFile>,
        encode: impl Fn(&T) -> String + Sync,
        decode: impl Fn(&str) -> Result<T, String>,
        key: impl Fn(&I) -> K,
        simulate: impl Fn(&I) -> Result<E, SimError> + Sync,
        render: impl Fn(&I, &E) -> T + Sync,
        opts: &SuperviseOpts,
    ) -> SupervisedRun<T>
    where
        I: Send + Sync,
        K: Eq + Hash,
        T: Send,
    {
        assert_eq!(points.len(), ids.len(), "one id per grid point");
        // Each point is replayed (`Ok(record)`) or runs as a member of
        // experiment group `Err(g)`; `groups[g]` lists its members.
        let mut slots: Vec<Result<T, usize>> = Vec::with_capacity(points.len());
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<K, usize> = HashMap::new();
        for (index, (point, id)) in points.iter().zip(&ids).enumerate() {
            let record =
                checkpoint
                    .and_then(|cp| cp.get(id))
                    .and_then(|text| match decode(&text) {
                        Ok(value) => Some(value),
                        Err(e) => {
                            eprintln!("warning: re-running {id}: bad checkpoint entry ({e})");
                            None
                        }
                    });
            slots.push(record.ok_or_else(|| {
                let g = *group_of.entry(key(point)).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(index);
                g
            }));
        }

        let points = &points;
        let mut fresh = self.map_supervised(
            groups.iter().map(Vec::as_slice).collect(),
            |members: &&[usize]| {
                let outcome = simulate(&points[members[0]])?;
                let records: Vec<T> = members
                    .iter()
                    .map(|&m| render(&points[m], &outcome))
                    .collect();
                Ok(records.into_iter())
            },
            opts,
            |g, status| {
                if let (Some(cp), PointStatus::Done(records)) = (checkpoint, status) {
                    let encoded: Vec<(&str, String)> = groups[g]
                        .iter()
                        .zip(records.as_slice())
                        .map(|(&m, record)| (ids[m].as_str(), encode(record)))
                        .collect();
                    cp.record(&encoded);
                }
            },
        );
        if let Some(cp) = checkpoint {
            cp.flush();
        }

        let mut out = SupervisedRun {
            done: Vec::new(),
            failures: Vec::new(),
            skipped: Vec::new(),
            resumed: 0,
            experiments: groups.len(),
            total: ids.len(),
        };
        for (slot, id) in slots.into_iter().zip(&ids) {
            let status = match slot {
                Ok(value) => {
                    out.resumed += 1;
                    PointStatus::Done(value)
                }
                // Members take their records in grid order and inherit a
                // failure or a skip as it is.
                Err(g) => match &mut fresh[g] {
                    PointStatus::Done(records) => {
                        PointStatus::Done(records.next().expect("one record per member"))
                    }
                    PointStatus::Failed { attempts, error } => PointStatus::Failed {
                        attempts: *attempts,
                        error: error.clone(),
                    },
                    PointStatus::Skipped => PointStatus::Skipped,
                },
            };
            match status {
                PointStatus::Done(value) => out.done.push(value),
                PointStatus::Failed { attempts, error } => out.failures.push(PointFailure {
                    id: id.clone(),
                    attempts,
                    error,
                }),
                PointStatus::Skipped => out.skipped.push(id.clone()),
            }
        }
        out
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

// ---------------------------------------------------------------------------
// The acceptance matrix
// ---------------------------------------------------------------------------

/// The algorithm of one matrix point: a real variant or an injected
/// chaos fixture.
pub enum MatrixAlg {
    /// A registered algorithm variant.
    Kind(AlgoKind),
    /// A chaos fixture, by stable name.
    Chaos(&'static str, ChaosBuilder),
}

impl MatrixAlg {
    /// Display name (the first segment of the point id).
    pub fn name(&self) -> &'static str {
        match self {
            MatrixAlg::Kind(kind) => kind.name(),
            MatrixAlg::Chaos(name, _) => name,
        }
    }

    /// Instantiate the algorithm object.
    pub fn build(&self) -> Box<dyn StpAlgorithm> {
        match self {
            MatrixAlg::Kind(kind) => kind.build(),
            MatrixAlg::Chaos(_, build) => build(),
        }
    }

    /// The library flavour the point runs under.
    pub fn lib(&self) -> LibraryKind {
        match self {
            MatrixAlg::Kind(kind) => kind.default_lib(),
            MatrixAlg::Chaos(..) => LibraryKind::Nx,
        }
    }
}

/// One grid point of the acceptance matrix.
pub struct MatrixPoint {
    /// The Paragon mesh the point runs on.
    pub machine: Machine,
    /// Source distribution: the point's label.
    pub dist: SourceDist,
    /// The ranks `dist` placed the sources on.
    pub sources: Vec<usize>,
    /// Algorithm.
    pub alg: MatrixAlg,
}

impl MatrixPoint {
    /// Stable point id `algo/dist/RxC/sN` — the checkpoint key and the
    /// name failure reports use.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}x{}/s{}",
            self.alg.name(),
            self.dist.name(),
            self.machine.shape.rows,
            self.machine.shape.cols,
            self.sources.len()
        )
    }

    /// What gets simulated: shape, algorithm and placed sources. It is
    /// the whole experiment — every point of a shape runs on
    /// `Machine::paragon(rows, cols)`, the library follows from the
    /// algorithm, and message length, fault plan and budget belong to
    /// the run — so two labels that place the same ranks share a key.
    pub fn experiment(&self) -> (MeshShape, &'static str, Vec<usize>) {
        (self.machine.shape, self.alg.name(), self.sources.clone())
    }
}

/// Mesh shapes of the acceptance matrix, `(rows, cols)`: two paper
/// shapes, one tall, one with a prime dimension (exercises the
/// non-power-of-two paths). `quick` is the reduced matrix of
/// `stp lint --quick` / `stp sweep --quick` and the unit tests.
pub fn matrix_shapes(quick: bool) -> Vec<(usize, usize)> {
    if quick {
        vec![(4, 4), (8, 3)]
    } else {
        vec![(4, 4), (8, 4), (16, 16), (8, 3)]
    }
}

/// The acceptance matrix over `shapes`: every shape × the eight named
/// distributions × a sparse quarter-machine source count and the
/// all-sources count × every algorithm, in that nesting order. With
/// `chaos`, the [`chaos_algorithms`] come last, on the first shape.
pub fn matrix_points(shapes: &[(usize, usize)], chaos: bool) -> Vec<MatrixPoint> {
    let mut points = Vec::new();
    for &(rows, cols) in shapes {
        let machine = Machine::paragon(rows, cols);
        let p = machine.p();
        let sparse = (p / 4).max(2).min(p);
        let counts = if sparse == p {
            vec![p]
        } else {
            vec![sparse, p]
        };
        for dist in SourceDist::named() {
            for &s in &counts {
                let sources = dist.place(machine.shape, s);
                for &kind in AlgoKind::all() {
                    points.push(MatrixPoint {
                        machine: machine.clone(),
                        dist: dist.clone(),
                        sources: sources.clone(),
                        alg: MatrixAlg::Kind(kind),
                    });
                }
            }
        }
    }
    if chaos {
        let (rows, cols) = shapes.first().copied().unwrap_or((4, 4));
        for (name, build) in chaos_algorithms() {
            let machine = Machine::paragon(rows, cols);
            points.push(MatrixPoint {
                sources: SourceDist::Equal.place(machine.shape, 2),
                machine,
                dist: SourceDist::Equal,
                alg: MatrixAlg::Chaos(name, build),
            });
        }
    }
    points
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

    /// A fresh checkpoint file under the temp dir, removed on drop.
    struct TempCheckpoint(std::path::PathBuf);

    impl TempCheckpoint {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("stp-resumable-{tag}-{}.ckpt", std::process::id()));
            let file = TempCheckpoint(path);
            file.remove();
            file
        }

        fn open(&self) -> CheckpointFile {
            CheckpointFile::open(&self.0, "resumable-test").expect("open checkpoint")
        }

        fn remove(&self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(crate::checkpoint::journal_path(&self.0));
        }
    }

    impl Drop for TempCheckpoint {
        fn drop(&mut self) {
            self.remove();
        }
    }

    /// `run_resumable` over points `0..n` with ids `p0..`, records
    /// `"v<i>"` decoding to `i`; point 4 always fails. Returns the run
    /// and the points the job executed, in ascending order.
    fn resumable(n: usize, cp: Option<&CheckpointFile>) -> (SupervisedRun<usize>, Vec<usize>) {
        crate::runner::tests_hush_deliberate_panics();
        let executed = Mutex::new(Vec::new());
        let run = SweepRunner::sequential().with_workers(3).run_resumable(
            (0..n).collect(),
            (0..n).map(|i| format!("p{i}")).collect(),
            cp,
            |v| format!("v{v}"),
            |text| {
                text.strip_prefix('v')
                    .and_then(|digits| digits.parse().ok())
                    .ok_or_else(|| format!("not a record: {text:?}"))
            },
            |&i| i,
            |&i| {
                executed.lock().unwrap().push(i);
                if i == 4 {
                    panic!("deliberate test panic in point {i}");
                }
                Ok(i)
            },
            |_, &v| v,
            &SuperviseOpts::default().with_retries(0),
        );
        let mut executed = executed.into_inner().unwrap();
        executed.sort();
        (run, executed)
    }

    #[test]
    fn a_resumed_run_replays_records_and_runs_only_the_rest_in_grid_order() {
        let file = TempCheckpoint::new("resume");
        // The interrupted run: the first five points, one of them bad.
        let cp = file.open();
        let (first, ran) = resumable(5, Some(&cp));
        assert_eq!(ran, vec![0, 1, 2, 3, 4]);
        assert_eq!((first.resumed, first.total), (0, 5));
        assert_eq!(cp.completed(), 4, "a failed point leaves no record");
        drop(cp);

        // The resume, over the whole grid: four replays, the failed
        // point and the new ones run, and everything is in grid order.
        let cp = file.open();
        let (second, ran) = resumable(8, Some(&cp));
        assert_eq!(ran, vec![4, 5, 6, 7]);
        assert_eq!(second.done, vec![0, 1, 2, 3, 5, 6, 7]);
        assert_eq!((second.resumed, second.total), (4, 8));
        assert_eq!(second.skipped, Vec::<String>::new());
        let [failure] = &second.failures[..] else {
            panic!("exactly point 4 fails: {:?}", second.failures);
        };
        assert_eq!((failure.id.as_str(), failure.attempts), ("p4", 1));
        assert!(failure.error.contains("point 4"), "{}", failure.error);
        assert_eq!(cp.completed(), 7);

        // An uninterrupted run reports the same, byte for byte.
        let (reference, ran) = resumable(8, None);
        assert_eq!(ran.len(), 8);
        assert_eq!(reference.done, second.done);
        assert_eq!(reference.summary_json(), second.summary_json());
        assert_eq!(
            second.summary_json(),
            "\"points\":8,\"failures\":[{\"id\":\"p4\",\"attempts\":1,\
             \"error\":\"deliberate test panic in point 4\"}],\"skipped\":[]"
        );
    }

    #[test]
    fn a_record_that_does_not_decode_is_run_again_and_rewritten() {
        let file = TempCheckpoint::new("bad-record");
        let cp = file.open();
        cp.record(&[("p0", "v0".into())]);
        cp.record(&[("p1", "garbage".into())]);
        cp.record(&[("p2", "v2".into())]);
        let (run, ran) = resumable(3, Some(&cp));
        assert_eq!(ran, vec![1], "only the undecodable point runs");
        assert_eq!(run.done, vec![0, 1, 2]);
        assert_eq!(run.resumed, 2);
        assert_eq!(cp.get("p1").as_deref(), Some("v1"));
    }

    #[test]
    fn a_cancelled_resumable_run_names_what_it_skipped() {
        let file = TempCheckpoint::new("skipped");
        let cp = file.open();
        cp.record(&[("p1", "v1".into())]);
        let opts = SuperviseOpts::default();
        opts.cancel.cancel();
        let run = SweepRunner::sequential().run_resumable(
            vec![0usize, 1, 2],
            vec!["p0".into(), "p1".into(), "p2".into()],
            Some(&cp),
            |v: &usize| format!("v{v}"),
            |_| Ok(1),
            |&i| i,
            |&i| Ok(i),
            |_, &v| v,
            &opts,
        );
        // The record still replays; the unstarted points are skipped.
        assert_eq!(run.done, vec![1]);
        assert_eq!(run.skipped, vec!["p0", "p2"]);
        assert_eq!((run.resumed, run.total), (1, 3));
        assert_eq!(
            run.summary_json(),
            "\"points\":3,\"failures\":[],\"skipped\":[\"p0\",\"p2\"]"
        );
    }

    #[test]
    fn the_acceptance_matrix_is_1280_points_with_chaos_last() {
        let algos = AlgoKind::all().len();
        let full = matrix_points(&matrix_shapes(false), false);
        // 8x3 = 24 gives two source counts like the rest: 6 and 24.
        assert_eq!(full.len(), 4 * 8 * 2 * algos);
        assert_eq!(full.len(), 1280);
        let quick = matrix_points(&matrix_shapes(true), false);
        assert_eq!(quick.len(), 640);
        assert_eq!(full[0].id(), "2-Step/R/4x4/s4");
        assert_eq!(full[1279].id(), "KPort_Alltoall/Sq/8x3/s24");

        let chaotic = matrix_points(&matrix_shapes(false), true);
        assert_eq!(chaotic.len(), 1282);
        let ids: Vec<String> = chaotic.iter().map(MatrixPoint::id).collect();
        assert_eq!(
            ids[1280..],
            ["chaos:panic/E/4x4/s2", "chaos:deadlock/E/4x4/s2"]
        );
        assert!(ids[..1280].iter().all(|id| !id.starts_with("chaos:")));
        let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "point ids are checkpoint keys");
        // The quick matrix is a subset of the full one, in the same order.
        let mut rest = ids.iter();
        for point in &quick {
            let id = point.id();
            assert!(rest.any(|full_id| *full_id == id), "{id}");
        }
        // A machine too small for a sparse count sweeps all-sources only.
        assert_eq!(matrix_points(&[(1, 2)], false).len(), 8 * algos);
    }

    #[test]
    fn the_matrix_is_580_experiments_and_the_quick_one_280() {
        let experiments = |points: &[MatrixPoint]| {
            let keys: std::collections::HashSet<_> =
                points.iter().map(MatrixPoint::experiment).collect();
            keys.len()
        };
        assert_eq!(
            experiments(&matrix_points(&matrix_shapes(false), false)),
            580
        );
        assert_eq!(
            experiments(&matrix_points(&matrix_shapes(true), false)),
            280
        );

        // With s = p every label places every rank; at s = p/4 exactly
        // these label pairs place the same sources.
        let mut coinciding = Vec::new();
        for (rows, cols) in matrix_shapes(false) {
            let shape = Machine::paragon(rows, cols).shape;
            let placed: Vec<_> = SourceDist::named()
                .into_iter()
                .map(|d| (d.name(), d.place(shape, shape.p() / 4)))
                .collect();
            for (i, (a, sa)) in placed.iter().enumerate() {
                for (b, sb) in &placed[i + 1..] {
                    if sa == sb {
                        coinciding.push(format!("{a}={b}@{rows}x{cols}"));
                    }
                }
            }
        }
        assert_eq!(
            coinciding,
            [
                "R=Cr@4x4",
                "C=E@4x4",
                "Dr=B@4x4",
                "C=E@8x4",
                "Dr=B@8x4",
                "C=E@16x16",
                "Dr=B@8x3"
            ]
        );
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
        crate::runner::tests_hush_deliberate_panics();
        let machine = Machine::paragon(4, 4);
        let sources = vec![0usize, 5];
        let payload_of = |src: usize| vec![src as u8; 16];
        let run = |alg: &dyn crate::algorithms::StpAlgorithm| {
            try_run_alg_controlled(
                &machine,
                LibraryKind::Nx,
                &sources,
                &payload_of,
                alg,
                &RunControl::default(),
            )
        };
        let err = run(&ChaosPanic).expect_err("chaos:panic must fail");
        assert_eq!(err.kind(), "rank_panic", "{err}");
        assert!(err.to_string().contains(CHAOS_PANIC_MSG), "{err}");
        let err = run(&ChaosDeadlock).expect_err("chaos:deadlock must fail");
        assert_eq!(err.kind(), "deadlock", "{err}");
    }
}
