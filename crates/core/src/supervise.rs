//! Supervised sweeps: panic-isolated grid points and quarantine.
//!
//! [`SweepRunner::map`](crate::runner::SweepRunner::map) executes grid
//! points in parallel but still *propagates* failures — the right
//! behaviour for figures, where a broken point means the figure is
//! broken. Sweeps over possibly-broken algorithms (the lint matrix,
//! chaos-injection CI) and serve's cold plans instead run each point
//! through [`contained`]: `catch_unwind` around the run, so a panic or a
//! [`SimError`] comes back as an error message and never ends the
//! process.
//!
//! [`SweepRunner::run_grouped`] runs each distinct experiment among the
//! points once, contained, renders every point's record from its
//! experiment's outcome, and sorts the points into done and quarantined
//! in a [`SupervisedRun`]. It is the one loop behind `stp sweep` and
//! `stp lint`, which both run the acceptance matrix defined here
//! ([`matrix_shapes`], [`matrix_points`]). Nothing cancels a sweep: the
//! whole matrix runs in seconds, and the watchdog budget in each point's
//! `RunControl` bounds a livelock.
//!
//! The module also hosts the chaos-injection fixtures ([`ChaosPanic`],
//! [`ChaosDeadlock`]) that CI uses to prove the supervision plane works:
//! deliberately broken algorithms a supervised sweep must survive and
//! report, not die from.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mpp_model::{LibraryKind, Machine, MeshShape};
use mpp_runtime::{CommFuture, RankCtx, SimError};
use mpp_sim::error::panic_message;

use crate::algorithms::{StpAlgorithm, StpCtx};
use crate::checkpoint::json_escape;
use crate::distribution::SourceDist;
use crate::msgset::MessageSet;
use crate::runner::{AlgoKind, SweepRunner};

/// Run `job` once with its panics contained: a panic comes back as its
/// message and a [`SimError`] as its text. A failed point runs once:
/// every failure caught here is deterministic (the executor starts no
/// thread, and a Rust allocation failure aborts the process), so a
/// re-run would only fail again.
pub fn contained<T>(job: impl FnOnce() -> Result<T, SimError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_message(&*payload)),
    }
}

// ---------------------------------------------------------------------------
// Grouped supervised runs
// ---------------------------------------------------------------------------

/// A grid point quarantined by a supervised run.
#[derive(Debug)]
pub struct PointFailure {
    /// Stable point id (`algo/dist/RxC/sN` on the acceptance matrix).
    pub id: String,
    /// The error or panic message.
    pub error: String,
}

/// Everything a grouped supervised run produced.
#[derive(Debug)]
pub struct SupervisedRun<T> {
    /// Results of the completed points, in grid order.
    pub done: Vec<T>,
    /// Quarantined points, in grid order.
    pub failures: Vec<PointFailure>,
    /// Distinct experiments among the points: how many simulations the
    /// run dispatched.
    pub experiments: usize,
    /// Total grid points.
    pub total: usize,
}

impl<T> SupervisedRun<T> {
    /// The members every JSON report of a run opens with:
    /// `"points":N,"failures":[..],"skipped":[]`. Deliberately no
    /// wall-clock: a report depends on the grid and the simulations
    /// alone, so a re-run reproduces it byte for byte. Nothing skips a
    /// point, but `"skipped":[]` stays as fixed text: the committed
    /// `results/sweep-report.sha256` and `results/lint-report.sha256`
    /// digests cover these bytes, and `scripts/chaos-smoke.sh` reads
    /// them.
    pub fn summary_json(&self) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"id\":\"{}\",\"error\":\"{}\"}}",
                    json_escape(&f.id),
                    json_escape(&f.error)
                )
            })
            .collect();
        format!(
            "\"points\":{},\"failures\":[{}],\"skipped\":[]",
            self.total,
            failures.join(",")
        )
    }
}

impl SweepRunner {
    /// Run the distinct experiments among `points` (`ids[i]` names
    /// `points[i]`) through [`map`](SweepRunner::map), each
    /// [`contained`]. Points are grouped by `key` — two points with
    /// equal keys must be the same experiment under different labels.
    /// Each group's first point in grid order is `simulate`d, and every
    /// member's record is `render`ed from that one outcome; a failed
    /// experiment fails every member alike, under the member's own id.
    /// The outcome is in grid order whatever the completion order was.
    pub fn run_grouped<I, K, E, T>(
        &self,
        points: Vec<I>,
        ids: Vec<String>,
        key: impl Fn(&I) -> K,
        simulate: impl Fn(&I) -> Result<E, SimError> + Sync,
        render: impl Fn(&I, &E) -> T + Sync,
    ) -> SupervisedRun<T>
    where
        I: Send + Sync,
        K: Eq + Hash,
        T: Send,
    {
        assert_eq!(points.len(), ids.len(), "one id per grid point");
        // Point `i` belongs to experiment `group_of[i]`; `groups[g]`
        // lists its members in grid order.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut index: HashMap<K, usize> = HashMap::new();
        let group_of: Vec<usize> = points
            .iter()
            .enumerate()
            .map(|(i, point)| {
                let g = *index.entry(key(point)).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
                g
            })
            .collect();

        let points = &points;
        let mut outcomes = self.map(
            groups.iter().map(Vec::as_slice).collect(),
            |members: &[usize]| {
                contained(|| {
                    let outcome = simulate(&points[members[0]])?;
                    let records: Vec<T> = members
                        .iter()
                        .map(|&m| render(&points[m], &outcome))
                        .collect();
                    Ok(records.into_iter())
                })
            },
        );

        let mut out = SupervisedRun {
            done: Vec::new(),
            failures: Vec::new(),
            experiments: groups.len(),
            total: ids.len(),
        };
        // Members take their records in grid order and inherit a
        // failure as it is.
        for (g, id) in group_of.into_iter().zip(ids) {
            match &mut outcomes[g] {
                Ok(records) => out
                    .done
                    .push(records.next().expect("one record per member")),
                Err(error) => out.failures.push(PointFailure {
                    id,
                    error: error.clone(),
                }),
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
/// communicating. A supervised sweep must quarantine this point (kind
/// `rank_panic`) and keep going.
pub struct ChaosPanic;

impl StpAlgorithm for ChaosPanic {
    fn name(&self) -> &'static str {
        "chaos:panic"
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut RankCtx,
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
        comm: &'a mut RankCtx,
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
    /// Stable point id `algo/dist/RxC/sN` — the name reports and
    /// failure lines use.
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

    /// `run_grouped` over `n` points, each its own experiment, named
    /// `p0`, `p1`, ….
    fn run_each<T: Clone + Send>(
        n: usize,
        simulate: impl Fn(&usize) -> Result<T, SimError> + Sync,
    ) -> SupervisedRun<T> {
        SweepRunner::sequential().with_workers(3).run_grouped(
            (0..n).collect(),
            (0..n).map(|i| format!("p{i}")).collect(),
            |&i| i,
            simulate,
            |_, v| v.clone(),
        )
    }

    #[test]
    fn healthy_points_all_complete() {
        let run = run_each(12, |&i| Ok(i * 3));
        assert_eq!(run.done, (0..12).map(|i| i * 3).collect::<Vec<_>>());
        assert!(run.failures.is_empty());
        assert_eq!((run.experiments, run.total), (12, 12));
        assert_eq!(
            run.summary_json(),
            "\"points\":12,\"failures\":[],\"skipped\":[]"
        );
    }

    #[test]
    fn failed_points_run_once_then_are_quarantined() {
        crate::runner::tests_hush_deliberate_panics();
        let attempts_on_3 = AtomicUsize::new(0);
        let run = run_each(8, |&i| {
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
        });
        assert_eq!(run.done, [0, 1, 2, 4, 6, 7]);
        assert_eq!(attempts_on_3.load(Ordering::Relaxed), 1, "run once");
        let ids: Vec<&str> = run.failures.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids, ["p3", "p5"]);
        assert!(
            run.failures[0].error.contains("point 3"),
            "{:?}",
            run.failures
        );
        assert!(
            run.failures[1].error.contains("rank 0"),
            "{:?}",
            run.failures
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
        assert_eq!(unique.len(), ids.len(), "point ids are unique");
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
